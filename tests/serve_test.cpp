// Serving-layer tests: typed error taxonomy, admission validation, the
// exception-free inference entry point, bounded-queue backpressure,
// deadlines at every stage, retry + circuit-breaker fail-fast, and a
// multi-threaded stress run under injected faults.
//
// Every fault-driven branch is exercised through runtime::FaultInjector's
// inference-path hooks — the service must answer every request with a typed
// Status: zero crashes, zero hung requests.
//
// Counter assertions read the service's obs::MetricsRegistry snapshot
// (metrics_snapshot() / counters_from_snapshot) — one coherent cut of the
// accounting, the same path counters() and health() use.
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "runtime/fault.h"
#include "serve/service.h"
#include "serve/status.h"
#include "serve/validation.h"
#include "test_util.h"

// TSan slows real forward passes ~15x while injected wall-clock delays
// (slow_forward_ms) stay fixed; stretch the latency constants of the
// timing-sensitive tests so their ratios survive the race detector.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define YOLLO_TSAN_BUILD 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define YOLLO_TSAN_BUILD 1
#endif

namespace yollo::serve {
namespace {

#ifdef YOLLO_TSAN_BUILD
constexpr int kTimeScale = 8;
#else
constexpr int kTimeScale = 1;
#endif

// A guard that always leaves the process-wide injector disarmed.
struct FaultGuard {
  FaultGuard() { runtime::FaultInjector::instance().reset(); }
  ~FaultGuard() { runtime::FaultInjector::instance().reset(); }
};

core::YolloConfig tiny_config() {
  core::YolloConfig cfg;
  cfg.img_h = 32;
  cfg.img_w = 48;
  cfg.max_query_len = 6;
  cfg.num_rel2att = 1;
  return cfg;
}

// Untrained model: the service's behaviour under faults does not depend on
// grounding accuracy.
struct ServeHarness {
  data::Vocab vocab = data::Vocab::grounding_vocab();
  core::YolloConfig cfg = tiny_config();
  Rng rng{123};
  core::YolloModel model{cfg, vocab.size(), rng};

  ServeHarness() { model.set_training(false); }

  Tensor image(uint64_t seed = 5) {
    Rng r(seed);
    return Tensor::rand({3, cfg.img_h, cfg.img_w}, r);
  }

  GroundRequest request(const std::string& query = "red circle",
                        uint64_t seed = 5) {
    GroundRequest req;
    req.image = image(seed);
    req.query = query;
    return req;
  }
};

void expect_box_within(const vision::Box& box, const core::YolloConfig& cfg) {
  EXPECT_TRUE(std::isfinite(box.x) && std::isfinite(box.y) &&
              std::isfinite(box.w) && std::isfinite(box.h));
  EXPECT_GE(box.x, 0.0f);
  EXPECT_GE(box.y, 0.0f);
  EXPECT_LE(box.x2(), static_cast<float>(cfg.img_w) + 1e-4f);
  EXPECT_LE(box.y2(), static_cast<float>(cfg.img_h) + 1e-4f);
}

// --- status taxonomy --------------------------------------------------------

TEST(StatusTest, CodeNamesAndPredicates) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "OK");
  EXPECT_STREQ(status_code_name(StatusCode::kOverloaded), "OVERLOADED");
  EXPECT_STREQ(status_code_name(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");

  EXPECT_TRUE(Status::ok_status().ok());
  EXPECT_TRUE(Status::ok_status().answered());
  EXPECT_FALSE(Status::internal("x").answered());
  EXPECT_FALSE(Status::overloaded("x").answered());
  EXPECT_EQ(Status::invalid_input("bad").to_string(), "INVALID_INPUT: bad");
}

// --- admission validation ---------------------------------------------------

TEST(ValidationTest, ImageShapeAndFiniteness) {
  Rng rng(1);
  EXPECT_TRUE(validate_image(Tensor::rand({3, 32, 48}, rng), 32, 48).ok());

  EXPECT_EQ(validate_image(Tensor(), 32, 48).code, StatusCode::kInvalidInput);
  EXPECT_EQ(validate_image(Tensor::rand({3, 48, 32}, rng), 32, 48).code,
            StatusCode::kInvalidInput);
  EXPECT_EQ(validate_image(Tensor::rand({1, 3, 32, 48}, rng), 32, 48).code,
            StatusCode::kInvalidInput);

  Tensor poisoned = Tensor::rand({3, 32, 48}, rng);
  poisoned[100] = std::numeric_limits<float>::quiet_NaN();
  const Status nan_status = validate_image(poisoned, 32, 48);
  EXPECT_EQ(nan_status.code, StatusCode::kInvalidInput);
  EXPECT_NE(nan_status.message.find("non-finite"), std::string::npos);

  poisoned[100] = std::numeric_limits<float>::infinity();
  EXPECT_EQ(validate_image(poisoned, 32, 48).code, StatusCode::kInvalidInput);
}

TEST(ValidationTest, QueryNormalisationAndRejection) {
  const data::Vocab vocab = data::Vocab::grounding_vocab();

  const ValidatedQuery ok = validate_query("The RED circle!", vocab, 6);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.normalised, "the red circle");
  EXPECT_EQ(ok.known_words, 3);
  EXPECT_EQ(ok.unknown_words, 0);
  EXPECT_EQ(static_cast<int64_t>(ok.tokens.size()), 6);
  EXPECT_EQ(ok.tokens[3], data::Vocab::kPad);

  EXPECT_EQ(validate_query("", vocab, 6).status.code,
            StatusCode::kInvalidInput);
  EXPECT_EQ(validate_query("   ", vocab, 6).status.code,
            StatusCode::kInvalidInput);
  EXPECT_EQ(validate_query("?!...", vocab, 6).status.code,
            StatusCode::kInvalidInput);

  const ValidatedQuery unk = validate_query("florb zizzle", vocab, 6);
  EXPECT_EQ(unk.status.code, StatusCode::kInvalidInput);
  EXPECT_EQ(unk.known_words, 0);
  EXPECT_EQ(unk.unknown_words, 2);

  // One known word is enough to ground on.
  const ValidatedQuery mixed = validate_query("florb circle", vocab, 6);
  EXPECT_TRUE(mixed.status.ok());
  EXPECT_EQ(mixed.known_words, 1);
  EXPECT_EQ(mixed.unknown_words, 1);
}

// --- replica construction ---------------------------------------------------

TEST(CopyModuleStateTest, ReplicaMatchesSourceOutputs) {
  Rng rng_a(11), rng_b(22);
  nn::FFN a(4, 8, 3, rng_a), b(4, 8, 3, rng_b);
  Rng data_rng(5);
  const Tensor x = Tensor::rand({2, 4}, data_rng);
  const Tensor before_a = a.forward(ag::Variable::constant(x)).value();
  const Tensor before_b = b.forward(ag::Variable::constant(x)).value();
  bool differed = false;
  for (int64_t i = 0; i < before_a.numel(); ++i) {
    if (before_a[i] != before_b[i]) differed = true;
  }
  EXPECT_TRUE(differed);

  nn::copy_module_state(b, a);
  const Tensor after_b = b.forward(ag::Variable::constant(x)).value();
  for (int64_t i = 0; i < before_a.numel(); ++i) {
    EXPECT_FLOAT_EQ(before_a[i], after_b[i]);
  }
}

// --- exception-free inference entry point -----------------------------------

TEST(InferTest, ValidInputYieldsClippedFiniteBox) {
  FaultGuard guard;
  ServeHarness h;
  const Tensor batched = h.image().reshape({1, 3, h.cfg.img_h, h.cfg.img_w});
  const std::vector<int64_t> tokens =
      data::pad_to(h.vocab.encode("red circle"), h.cfg.max_query_len);
  const auto outcome = h.model.infer(batched, tokens);
  ASSERT_TRUE(outcome.ok()) << outcome.message;
  ASSERT_EQ(outcome.boxes.size(), 1u);
  expect_box_within(outcome.boxes[0], h.cfg);
}

TEST(InferTest, InvalidInputsAreTypedNotThrown) {
  FaultGuard guard;
  ServeHarness h;
  const std::vector<int64_t> tokens(static_cast<size_t>(h.cfg.max_query_len),
                                    data::Vocab::kUnk);

  // Wrong rank / shape.
  auto outcome = h.model.infer(h.image(), tokens);
  EXPECT_EQ(outcome.error, core::YolloModel::InferError::kInvalidInput);

  // Wrong token count.
  outcome = h.model.infer(h.image().reshape({1, 3, h.cfg.img_h, h.cfg.img_w}),
                          std::vector<int64_t>{1, 2});
  EXPECT_EQ(outcome.error, core::YolloModel::InferError::kInvalidInput);

  // Out-of-vocabulary token id.
  std::vector<int64_t> bad_tokens = tokens;
  bad_tokens[0] = h.vocab.size() + 100;
  outcome = h.model.infer(h.image().reshape({1, 3, h.cfg.img_h, h.cfg.img_w}),
                          bad_tokens);
  EXPECT_EQ(outcome.error, core::YolloModel::InferError::kInvalidInput);

  // Non-finite pixel.
  Tensor poisoned = h.image();
  poisoned[7] = std::numeric_limits<float>::quiet_NaN();
  outcome = h.model.infer(poisoned.reshape({1, 3, h.cfg.img_h, h.cfg.img_w}),
                          tokens);
  EXPECT_EQ(outcome.error, core::YolloModel::InferError::kInvalidInput);
}

TEST(InferTest, PoisonedForwardIsCaughtByFinitenessScan) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  fc.poison_forward_count = 1;
  runtime::FaultInjector::instance().configure(fc);

  const Tensor batched = h.image().reshape({1, 3, h.cfg.img_h, h.cfg.img_w});
  const std::vector<int64_t> tokens =
      data::pad_to(h.vocab.encode("red circle"), h.cfg.max_query_len);
  auto outcome = h.model.infer(batched, tokens);
  EXPECT_EQ(outcome.error, core::YolloModel::InferError::kNonFinite);
  EXPECT_TRUE(outcome.boxes.empty());

  // The shot is consumed: the next forward is clean.
  outcome = h.model.infer(batched, tokens);
  EXPECT_TRUE(outcome.ok()) << outcome.message;
}

TEST(InferTest, TransientForwardFailureIsTyped) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  fc.fail_forward_count = 1;
  runtime::FaultInjector::instance().configure(fc);

  const Tensor batched = h.image().reshape({1, 3, h.cfg.img_h, h.cfg.img_w});
  const std::vector<int64_t> tokens =
      data::pad_to(h.vocab.encode("red circle"), h.cfg.max_query_len);
  auto outcome = h.model.infer(batched, tokens);
  EXPECT_EQ(outcome.error, core::YolloModel::InferError::kFault);
  EXPECT_NE(outcome.message.find("injected fault"), std::string::npos);

  outcome = h.model.infer(batched, tokens);
  EXPECT_TRUE(outcome.ok()) << outcome.message;
}

// --- service behaviour ------------------------------------------------------

TEST(ServiceTest, ServesValidRequestAndCounts) {
  FaultGuard guard;
  ServeHarness h;
  ServeConfig sc;
  sc.num_workers = 2;
  InferenceService service(h.model, h.vocab, sc);

  const GroundResponse response = service.ground(h.request("the red circle"));
  EXPECT_TRUE(response.status.ok()) << response.status.to_string();
  EXPECT_EQ(response.normalised_query, "the red circle");
  expect_box_within(response.box, h.cfg);
  EXPECT_GE(response.latency_ms, 0.0);

  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counter("serve.submitted"), 1);
  EXPECT_EQ(snap.counter("serve.served"), 1);
  EXPECT_EQ(snap.counter("serve.rejected"), 0);
  // Stage latency histograms populated for the one request that ran.
  ASSERT_NE(snap.histogram("serve.latency_ms"), nullptr);
  EXPECT_EQ(snap.histogram("serve.latency_ms")->count, 1);
  ASSERT_NE(snap.histogram("serve.model_ms"), nullptr);
  EXPECT_GE(snap.histogram("serve.model_ms")->count, 1);
  // The legacy flat struct is a pure projection of the same snapshot.
  const ServiceCounters counters = counters_from_snapshot(snap);
  EXPECT_EQ(counters.submitted, 1);
  EXPECT_EQ(counters.served, 1);
  EXPECT_EQ(counters.rejected, 0);
}

TEST(ServiceTest, RejectsInvalidInputsAtAdmission) {
  FaultGuard guard;
  ServeHarness h;
  ServeConfig sc;
  sc.num_workers = 1;
  InferenceService service(h.model, h.vocab, sc);

  EXPECT_EQ(service.ground(h.request("")).status.code,
            StatusCode::kInvalidInput);
  EXPECT_EQ(service.ground(h.request("florb zizzle")).status.code,
            StatusCode::kInvalidInput);

  GroundRequest bad_shape = h.request();
  bad_shape.image = Tensor::rand({3, 8, 8}, h.rng);
  EXPECT_EQ(service.ground(std::move(bad_shape)).status.code,
            StatusCode::kInvalidInput);

  GroundRequest nan_image = h.request();
  nan_image.image[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(service.ground(std::move(nan_image)).status.code,
            StatusCode::kInvalidInput);

  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counter("serve.submitted"), 4);
  EXPECT_EQ(snap.counter("serve.rejected"), 4);
  EXPECT_EQ(snap.counter("serve.rejected_invalid"), 4);
  EXPECT_EQ(snap.counter("serve.served"), 0);
}

TEST(ServiceTest, BoundedQueueRejectsWithOverloaded) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 300;
  fc.slow_forward_count = 2;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.queue_capacity = 1;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  // First request occupies the single worker (slow forward); give it time
  // to be dequeued so the queue is empty again.
  auto first = service.submit(h.request());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Second request fills the queue's only slot.
  auto second = service.submit(h.request());
  // Admission is now saturated: typed rejection, immediately resolved.
  auto third = service.submit(h.request());
  ASSERT_EQ(third.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const GroundResponse rejected = third.get();
  EXPECT_EQ(rejected.status.code, StatusCode::kOverloaded);
  EXPECT_NE(rejected.status.message.find("queue full"), std::string::npos);

  EXPECT_TRUE(first.get().status.answered());
  EXPECT_TRUE(second.get().status.answered());

  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counter("serve.submitted"), 3);
  EXPECT_EQ(snap.counter("serve.rejected_overloaded"), 1);
  EXPECT_DOUBLE_EQ(snap.gauge("serve.queue_high_water"), 1.0);
  ASSERT_NE(snap.histogram("serve.queue_depth"), nullptr);
  EXPECT_GE(snap.histogram("serve.queue_depth")->count, 1);
}

TEST(ServiceTest, DeadlineCheckedAtEnqueue) {
  FaultGuard guard;
  ServeHarness h;
  ServeConfig sc;
  sc.num_workers = 1;
  InferenceService service(h.model, h.vocab, sc);

  GroundRequest expired = h.request();
  expired.deadline_at =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto future = service.submit(std::move(expired));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(future.get().status.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.counters().deadline_exceeded, 1);
}

TEST(ServiceTest, DeadlineCheckedAtDequeueWhenStarvedInQueue) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 300;
  fc.slow_forward_count = 1;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  // Occupies the worker for ~300ms.
  auto blocker = service.submit(h.request());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Starves in the queue past its 50ms budget.
  GroundRequest starved = h.request();
  starved.deadline_ms = 50;
  const GroundResponse response = service.ground(std::move(starved));
  EXPECT_EQ(response.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(response.status.message.find("queued"), std::string::npos);
  EXPECT_TRUE(blocker.get().status.answered());
}

TEST(ServiceTest, SlowForwardPastDeadlineIsTyped) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 300;
  fc.slow_forward_count = 1;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  GroundRequest slow = h.request();
  slow.deadline_ms = 50;
  const GroundResponse response = service.ground(std::move(slow));
  EXPECT_EQ(response.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.counters().deadline_exceeded, 1);
}

TEST(ServiceTest, RetryRecoversFromOneTransientFault) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  fc.fail_forward_count = 1;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.max_retries = 1;
  InferenceService service(h.model, h.vocab, sc);

  const GroundResponse response = service.ground(h.request());
  EXPECT_TRUE(response.status.ok()) << response.status.to_string();
  EXPECT_EQ(response.retries, 1);
  expect_box_within(response.box, h.cfg);

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.served, 1);
  EXPECT_EQ(counters.retries, 1);
}

TEST(ServiceTest, PoisonedForwardFailsTypedAfterRetry) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  fc.poison_forward_count = 2;  // first attempt + its retry
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.max_retries = 1;
  InferenceService service(h.model, h.vocab, sc);

  const GroundResponse response = service.ground(h.request());
  EXPECT_EQ(response.status.code, StatusCode::kInternalError);
  EXPECT_FALSE(response.status.answered());
  EXPECT_EQ(response.retries, 1);

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.served, 0);
  EXPECT_EQ(counters.failed, 1);
}

TEST(ServiceTest, NoFallbackMeansTypedInternalError) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  fc.fail_forward_count = 2;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.max_retries = 1;
  InferenceService service(h.model, h.vocab, sc);

  const GroundResponse response = service.ground(h.request());
  EXPECT_EQ(response.status.code, StatusCode::kInternalError);
  EXPECT_NE(response.status.message.find("model tier failed"),
            std::string::npos);
  EXPECT_EQ(service.counters().failed, 1);
}

TEST(ServiceTest, CircuitBreakerTripsAndReprobes) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  fc.fail_forward_count = 1000;  // the model tier never succeeds
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.max_retries = 1;      // 2 attempts per tier entry
  sc.breaker_threshold = 2;
  sc.breaker_cooldown = 3;
  InferenceService service(h.model, h.vocab, sc);

  // Sequential requests make the breaker arithmetic deterministic:
  //   r1, r2: tier fails -> consecutive = 2 -> breaker trips (cooldown 3)
  //   r3..r5: breaker open, failed fast without a model attempt
  //   r6:     probe fails -> re-trips
  for (int i = 0; i < 6; ++i) {
    const GroundResponse response = service.ground(h.request());
    EXPECT_EQ(response.status.code, StatusCode::kInternalError)
        << "request " << i << ": " << response.status.to_string();
    const bool fast = response.status.message == "circuit breaker open";
    EXPECT_EQ(fast, i >= 2 && i <= 4) << "request " << i;
  }

  const ServiceCounters counters =
      counters_from_snapshot(service.metrics_snapshot());
  EXPECT_EQ(counters.served, 0);
  EXPECT_EQ(counters.failed, 6);
  EXPECT_EQ(counters.breaker_trips, 2);
  // Tier entries: r1, r2, r6 (2 attempts each) = 3 retries counted.
  EXPECT_EQ(counters.retries, 3);
  EXPECT_TRUE(service.health().breaker_open);
}

TEST(ServiceTest, BreakerHalfOpenFailedProbeRetripsImmediately) {
  FaultGuard guard;
  ServeHarness h;
  // Exactly three failing forwards: two to trip the breaker, one for the
  // half-open probe. Every later forward is clean.
  runtime::FaultInjector::Config fc;
  fc.fail_forward_count = 3;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.max_retries = 0;  // one attempt per tier entry: shot accounting is exact
  sc.breaker_threshold = 2;
  sc.breaker_cooldown = 3;
  InferenceService service(h.model, h.vocab, sc);

  const auto expect_failure = [&](const char* message) {
    const GroundResponse response = service.ground(h.request());
    EXPECT_EQ(response.status.code, StatusCode::kInternalError);
    EXPECT_NE(response.status.message.find(message), std::string::npos)
        << response.status.to_string();
  };
  // r1, r2: tier fails -> consecutive = 2 -> trip #1 (cooldown 3).
  for (int i = 0; i < 2; ++i) expect_failure("model tier failed");
  EXPECT_TRUE(service.health().breaker_open);
  // r3..r5 ride out the cooldown, failed fast.
  for (int i = 0; i < 3; ++i) expect_failure("circuit breaker open");
  // r6 is the half-open probe; it consumes the third failing shot. Because
  // consecutive_failures_ survives the trip, ONE failed probe is >= the
  // threshold again and the breaker must re-trip immediately — not ride
  // through threshold-1 further model failures first.
  expect_failure("model tier failed");
  EXPECT_TRUE(service.health().breaker_open);
  EXPECT_EQ(service.counters().breaker_trips, 2);
  // r7..r9: the re-tripped cooldown, still failing fast (no model
  // attempts: the fail shots are exhausted, so any forward would succeed —
  // a breaker answer here proves the breaker really is open again).
  for (int i = 0; i < 3; ++i) expect_failure("circuit breaker open");
  // r10: the second probe runs clean and closes the breaker.
  const GroundResponse probe = service.ground(h.request());
  EXPECT_TRUE(probe.status.ok()) << probe.status.to_string();
  EXPECT_FALSE(service.health().breaker_open);
  EXPECT_EQ(service.counters().breaker_trips, 2);
}

TEST(ServiceTest, HealthSnapshotReflectsLifecycle) {
  FaultGuard guard;
  ServeHarness h;
  ServeConfig sc;
  sc.num_workers = 2;
  InferenceService service(h.model, h.vocab, sc);

  HealthSnapshot health = service.health();
  EXPECT_TRUE(health.accepting);
  EXPECT_FALSE(health.breaker_open);
  EXPECT_EQ(health.workers, 2);
  EXPECT_EQ(health.queue_depth, 0);

  service.stop();
  health = service.health();
  EXPECT_FALSE(health.accepting);

  // Post-stop submissions are typed rejections, not hangs.
  const GroundResponse response = service.ground(h.request());
  EXPECT_EQ(response.status.code, StatusCode::kOverloaded);
  EXPECT_NE(response.status.message.find("stopped"), std::string::npos);
}

// --- micro-batching ---------------------------------------------------------

TEST(ServiceBatchingTest, BacklogIsCoalescedAndEveryRequestAnswered) {
  FaultGuard guard;
  ServeHarness h;
  // Block the single worker for 300ms so a backlog builds up behind it.
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 300;
  fc.slow_forward_count = 1;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.batch_max = 4;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  auto blocker = service.submit(h.request("red circle", 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<std::future<GroundResponse>> queued;
  for (uint64_t i = 0; i < 3; ++i) {
    queued.push_back(service.submit(h.request("red circle", 10 + i)));
  }

  EXPECT_TRUE(blocker.get().status.ok());
  for (auto& future : queued) {
    const GroundResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.to_string();
    expect_box_within(response.box, h.cfg);
  }
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.batches_coalesced, 1);
  EXPECT_EQ(counters.batched_requests, 3);
  EXPECT_EQ(counters.max_batch, 3);
  EXPECT_EQ(counters.served, 4);
}

TEST(ServiceBatchingTest, BatchMaxOneDisablesCoalescing) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 300;
  fc.slow_forward_count = 1;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.batch_max = 1;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  auto blocker = service.submit(h.request());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<std::future<GroundResponse>> queued;
  for (uint64_t i = 0; i < 3; ++i) {
    queued.push_back(service.submit(h.request("red circle", 20 + i)));
  }
  EXPECT_TRUE(blocker.get().status.ok());
  for (auto& future : queued) EXPECT_TRUE(future.get().status.ok());
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.batches_coalesced, 0);
  EXPECT_EQ(counters.batched_requests, 0);
  EXPECT_EQ(counters.served, 4);
}

TEST(ServiceBatchingTest, NearDeadlineRequestRunsSoloNotCoalesced) {
  FaultGuard guard;
  ServeHarness h;
  // Regression for the burst-batching latency cliff (BENCH_infer.json
  // serve_burst: batch_max 8 ran at 0.78x of batch_max 1): greedy
  // coalescing serialised near-deadline requests into k-wide forwards that
  // cost budget they did not have. The worker must fall back to solo
  // serving when the oldest queued request's slack is below the observed
  // model-stage p95.
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 250 * kTimeScale;
  fc.slow_forward_count = 2;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.batch_max = 4;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  // Prime serve.model_ms with one ~250ms sample so its p95 lands in the
  // 204.8..409.6ms bucket — every later slack below ~205ms trips the guard.
  EXPECT_TRUE(service.ground(h.request("red circle", 1)).status.ok());

  // Block the worker (second slow shot) and queue three requests behind it
  // whose slack at dequeue (~150ms of their 300ms budget) is under that
  // p95. Greedy coalescing would batch all three; the guard must serve
  // them one by one instead — and each solo forward is fast enough that
  // every one still answers kOk inside its budget.
  auto blocker = service.submit(h.request("red circle", 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(100 * kTimeScale));
  std::vector<std::future<GroundResponse>> queued;
  for (uint64_t i = 0; i < 3; ++i) {
    GroundRequest near_deadline = h.request("red circle", 40 + i);
    near_deadline.deadline_ms = 300 * kTimeScale;
    queued.push_back(service.submit(std::move(near_deadline)));
  }

  EXPECT_TRUE(blocker.get().status.ok());
  for (auto& future : queued) {
    const GroundResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.to_string();
    expect_box_within(response.box, h.cfg);
  }
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.batches_coalesced, 0);
  EXPECT_EQ(counters.batched_requests, 0);
  EXPECT_EQ(counters.served, 5);
  EXPECT_EQ(counters.deadline_exceeded, 0);
}

TEST(ServiceBatchingTest, PoisonedElementDegradesOnlyItsOwnRequest) {
  FaultGuard guard;
  ServeHarness h;
  // Shot 1 (slow): blocks the worker so three requests queue up behind it.
  // Poison shot 1 lands on the blocker's forward; with max_retries = 0 it
  // fails typed. Poison shot 2 lands on the coalesced batch
  // forward and corrupts its LAST element only: the first two batch mates
  // must be served from the batch, the third salvaged individually (shots
  // exhausted by then, so its solo forward is clean and returns kOk).
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 300;
  fc.slow_forward_count = 1;
  fc.poison_forward_count = 2;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.batch_max = 4;
  sc.max_retries = 0;
  sc.breaker_threshold = 100;  // keep the breaker out of this test
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  auto blocker = service.submit(h.request("red circle", 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<std::future<GroundResponse>> queued;
  for (uint64_t i = 0; i < 3; ++i) {
    queued.push_back(service.submit(h.request("red circle", 30 + i)));
  }

  const GroundResponse blocked = blocker.get();
  EXPECT_EQ(blocked.status.code, StatusCode::kInternalError);
  for (auto& future : queued) {
    const GroundResponse response = future.get();
    // Batch mates ride the coalesced forward; the poisoned element is
    // salvaged solo — every one of them still ends kOk.
    EXPECT_TRUE(response.status.ok()) << response.status.to_string();
    expect_box_within(response.box, h.cfg);
  }
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.batches_coalesced, 1);
  EXPECT_EQ(counters.batched_requests, 3);
  EXPECT_EQ(counters.served, 3);
  EXPECT_EQ(counters.failed, 1);  // only the blocker
}

// --- concurrency stress under injected faults -------------------------------

TEST(ServiceStressTest, MixedLoadUnderFaultsLosesNoRequest) {
  FaultGuard guard;
  ServeHarness h;
  runtime::FaultInjector::Config fc;
  // Few enough shots that the breaker's fail-fast cooldown cannot swallow
  // every request the bounded queue admits.
  fc.poison_forward_count = 4;
  fc.fail_forward_count = 4;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 4;
  sc.queue_capacity = 32;
  sc.max_retries = 1;
  sc.breaker_threshold = 4;
  sc.breaker_cooldown = 6;
  InferenceService service(h.model, h.vocab, sc);

  const char* queries[] = {"red circle", "the large square",
                           "blue thing on the left", "small green triangle"};
  constexpr int kRequests = 220;

  // Concurrent stats poller: health() (and metrics_snapshot() underneath)
  // must hand back one coherent cut of the accounting — the sub-invariants
  // below hold in EVERY observation, not just after quiescence. Totals may
  // be behind `submitted` mid-flight (requests in the pipeline), never
  // ahead, and the taxonomy subsets always reconcile.
  std::atomic<bool> poll_stop{false};
  std::atomic<int64_t> poll_violations{0};
  std::atomic<int64_t> polls{0};
  std::thread poller;

  std::vector<std::future<GroundResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    GroundRequest request;
    switch (i % 8) {
      case 6:  // invalid: alternate empty query / poisoned image
        if (i % 16 == 6) {
          request.image = h.image(static_cast<uint64_t>(i));
          request.query = "";
        } else {
          request.image = h.image(static_cast<uint64_t>(i));
          request.image[i % request.image.numel()] =
              std::numeric_limits<float>::quiet_NaN();
          request.query = queries[i % 4];
        }
        break;
      case 7:  // tight deadline: answered or typed deadline miss
        request.image = h.image(static_cast<uint64_t>(i));
        request.query = queries[i % 4];
        request.deadline_ms = (i % 16 == 7) ? 1 : 200;
        break;
      default:  // valid
        request.image = h.image(static_cast<uint64_t>(i));
        request.query = queries[i % 4];
        break;
    }
    if (i == 0) {
      poller = std::thread([&] {
        while (!poll_stop.load(std::memory_order_relaxed)) {
          const HealthSnapshot health = service.health();
          const ServiceCounters& c = health.counters;
          const bool coherent =
              c.rejected == c.rejected_invalid + c.rejected_overloaded &&
              c.served + c.rejected + c.deadline_exceeded + c.failed <=
                  c.submitted &&
              c.queue_high_water <= 32 && health.queue_depth <= 32;
          if (!coherent) poll_violations.fetch_add(1);
          polls.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }
    futures.push_back(service.submit(std::move(request)));
  }

  // Zero hung requests: every future resolves (generous bound for TSan).
  int64_t answered = 0, rejected = 0, deadline = 0, failed = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::minutes(5)),
              std::future_status::ready)
        << "a request was lost";
    const GroundResponse response = future.get();
    switch (response.status.code) {
      case StatusCode::kOk:
        ++answered;
        expect_box_within(response.box, h.cfg);
        break;
      case StatusCode::kInvalidInput:
      case StatusCode::kOverloaded:
        ++rejected;
        break;
      case StatusCode::kDeadlineExceeded:
        ++deadline;
        break;
      case StatusCode::kInternalError:
        ++failed;
        break;
    }
  }
  poll_stop.store(true);
  poller.join();
  EXPECT_EQ(poll_violations.load(), 0)
      << "a stats poll observed the accounting mid-update";
  EXPECT_GE(polls.load(), 1);
  service.stop();

  // Counter invariant: every submitted request is accounted exactly once —
  // asserted on the raw registry snapshot and on the derived flat struct,
  // which must agree (both come from the same coherent cut).
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counter("serve.served") + snap.counter("serve.rejected") +
                snap.counter("serve.deadline_exceeded") +
                snap.counter("serve.failed"),
            snap.counter("serve.submitted"));
  const ServiceCounters counters = counters_from_snapshot(snap);
  const ServiceCounters via_legacy = service.counters();
  EXPECT_EQ(via_legacy.submitted, counters.submitted);
  EXPECT_EQ(via_legacy.served, counters.served);
  EXPECT_EQ(via_legacy.rejected, counters.rejected);
  EXPECT_EQ(via_legacy.deadline_exceeded, counters.deadline_exceeded);
  EXPECT_EQ(via_legacy.failed, counters.failed);
  EXPECT_EQ(counters.submitted, kRequests);
  EXPECT_EQ(counters.served + counters.rejected + counters.deadline_exceeded +
                counters.failed,
            counters.submitted);
  // Latency histogram covers at least every answered request (admission
  // rejections resolve before reaching the worker pipeline).
  ASSERT_NE(snap.histogram("serve.latency_ms"), nullptr);
  EXPECT_GE(snap.histogram("serve.latency_ms")->count, counters.served);
  EXPECT_EQ(counters.served, answered);
  EXPECT_EQ(counters.rejected, rejected);
  EXPECT_EQ(counters.deadline_exceeded, deadline);
  EXPECT_EQ(counters.failed, failed);
  EXPECT_EQ(counters.rejected, counters.rejected_invalid +
                                   counters.rejected_overloaded);
  EXPECT_GE(counters.served, 1);
  EXPECT_GE(counters.rejected_invalid, 1);
  // The injected faults must have driven real failures or retries.
  EXPECT_GE(counters.failed + counters.retries, 1);
}

}  // namespace
}  // namespace yollo::serve
