// Cancellation + supervision tests (DESIGN.md §13): the ExecContext
// contract (arm / cancel / generation pinning / deadline self-cancel), the
// kernel checkpoint behaviour, the typed kCancelled / kResourceExhausted
// outcomes out of YolloModel::infer, the StoragePool byte budget, and the
// serving layer built on top of them — in-flight deadline aborts, client
// CancelTokens, the watchdog kick -> grace -> reap state machine with
// worker replacement, and the five-term accounting invariant
//
//   served + rejected + deadline_exceeded + failed + cancelled == submitted
//
// held in every concurrent snapshot. Closes with the disabled-path
// guardband: a checkpoint with no context installed must stay within the
// same overhead band the obs hooks are held to.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/yollo.h"
#include "runtime/fault.h"
#include "serve/service.h"
#include "tensor/exec.h"
#include "tensor/gemm.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "test_util.h"

// TSan slows real forward passes ~15x while injected wall-clock delays stay
// fixed; stretch the latency constants of the timing-sensitive tests so
// their ratios survive the race detector.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define YOLLO_SUPERVISION_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define YOLLO_SUPERVISION_TSAN 1
#endif

namespace yollo::serve {
namespace {

#ifdef YOLLO_SUPERVISION_TSAN
constexpr int kTimeScale = 8;
#else
constexpr int kTimeScale = 1;
#endif

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The process-wide injector must stay disarmed around every test; faults
// are armed through scoped per-service injectors.
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

struct Harness {
  data::Vocab vocab = data::Vocab::grounding_vocab();
  core::YolloConfig cfg = tiny_config();
  Rng rng{123};
  core::YolloModel model{cfg, vocab.size(), rng};

  Harness() { model.set_training(false); }

  Tensor image(uint64_t seed = 5) {
    Rng r(seed);
    return Tensor::rand({3, cfg.img_h, cfg.img_w}, r);
  }

  GroundRequest request(uint64_t seed = 5) {
    GroundRequest req;
    req.image = image(seed);
    req.query = "red circle";
    return req;
  }

  std::vector<int64_t> tokens() {
    return std::vector<int64_t>(static_cast<size_t>(cfg.max_query_len), 1);
  }
};

void expect_invariant(const ServiceCounters& c) {
  EXPECT_EQ(c.served + c.rejected + c.deadline_exceeded + c.failed +
                c.cancelled,
            c.submitted);
  EXPECT_LE(c.rejected_invalid + c.rejected_overloaded + c.rejected_resource,
            c.rejected);
}

// --- ExecContext ------------------------------------------------------------

TEST(ExecContextTest, CancelSetsCauseOnceAndStampsTime) {
  ExecContext ctx;
  ctx.arm();
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_EQ(ctx.cancel_time_ns(), 0);

  EXPECT_TRUE(ctx.cancel(CancelCause::kCancelled));
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_EQ(ctx.cause(), CancelCause::kCancelled);
  EXPECT_GT(ctx.cancel_time_ns(), 0);

  // First cause wins: a later deadline trip cannot overwrite it.
  EXPECT_FALSE(ctx.cancel(CancelCause::kDeadlineExceeded));
  EXPECT_EQ(ctx.cause(), CancelCause::kCancelled);
}

TEST(ExecContextTest, ArmClearsCancelAndAdvancesGeneration) {
  ExecContext ctx;
  ctx.arm();
  const uint64_t gen = ctx.generation();
  ctx.cancel(CancelCause::kCancelled);
  ctx.arm();
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_EQ(ctx.cause(), CancelCause::kNone);
  EXPECT_EQ(ctx.cancel_time_ns(), 0);
  EXPECT_EQ(ctx.generation(), gen + 1);
}

TEST(ExecContextTest, StaleGenerationCancelIsDeclined) {
  ExecContext ctx;
  ctx.arm();
  const uint64_t stale = ctx.generation();
  ctx.arm();  // the unit of work the canceller observed is gone
  EXPECT_FALSE(ctx.cancel_if_generation(stale, CancelCause::kCancelled));
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_TRUE(
      ctx.cancel_if_generation(ctx.generation(), CancelCause::kCancelled));
  EXPECT_TRUE(ctx.cancelled());
}

TEST(ExecContextTest, CheckpointBumpsHeartbeatAndSelfCancelsOnDeadline) {
  ExecContext ctx;
  ctx.arm();  // no deadline
  const uint64_t hb = ctx.heartbeats();
  EXPECT_FALSE(ctx.checkpoint());
  EXPECT_EQ(ctx.heartbeats(), hb + 1);

  ctx.arm(ExecContext::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx.checkpoint());
  EXPECT_EQ(ctx.cause(), CancelCause::kDeadlineExceeded);
  EXPECT_GT(ctx.cancel_time_ns(), 0);
}

TEST(ExecContextTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(ExecContext::current(), nullptr);
  ExecContext outer;
  ExecContext inner;
  {
    ExecContext::Scope a(&outer);
    EXPECT_EQ(ExecContext::current(), &outer);
    {
      ExecContext::Scope b(&inner);
      EXPECT_EQ(ExecContext::current(), &inner);
    }
    EXPECT_EQ(ExecContext::current(), &outer);
  }
  EXPECT_EQ(ExecContext::current(), nullptr);
}

TEST(ExecContextTest, ThrowIfCancelledThrowsTypedCause) {
  ExecContext ctx;
  ctx.arm();
  EXPECT_NO_THROW(ctx.throw_if_cancelled());
  ctx.cancel(CancelCause::kDeadlineExceeded);
  try {
    ctx.throw_if_cancelled();
    FAIL() << "expected ExecCancelled";
  } catch (const ExecCancelled& e) {
    EXPECT_EQ(e.cause(), CancelCause::kDeadlineExceeded);
  }
}

// --- kernel checkpoints -----------------------------------------------------

TEST(ExecContextTest, PreCancelledGemmAbandonsBeforeTouchingOutput) {
  constexpr int64_t kM = 96, kN = 96, kK = 64;
  std::vector<float> a(kM * kK, 1.0f);
  std::vector<float> b(kK * kN, 1.0f);
  std::vector<float> c(kM * kN, 7.5f);  // sentinel

  ExecContext ctx;
  ctx.arm();
  ctx.cancel(CancelCause::kCancelled);
  {
    ExecContext::Scope scope(&ctx);
    gemm(false, false, kM, kN, kK, a.data(), b.data(), c.data(), {});
  }
  // The (jc, pc) checkpoint fires before any packing or micro-kernel work:
  // the output is exactly as the caller left it.
  for (size_t i = 0; i < c.size(); ++i) {
    ASSERT_FLOAT_EQ(c[i], 7.5f) << "index " << i;
  }
  // Without a cancelled context the same call computes normally.
  gemm(false, false, kM, kN, kK, a.data(), b.data(), c.data(), {});
  EXPECT_FLOAT_EQ(c[0], static_cast<float>(kK));
}

// --- typed infer outcomes ---------------------------------------------------

TEST(InferCancellationTest, ExpiredDeadlineYieldsCancelledOutcome) {
  Harness h;
  ExecContext ctx;
  ctx.arm(ExecContext::Clock::now() - std::chrono::milliseconds(1));
  ExecContext::Scope scope(&ctx);
  const Tensor batched = h.image().reshape({1, 3, h.cfg.img_h, h.cfg.img_w});
  const auto outcome = h.model.infer(batched, h.tokens());
  EXPECT_EQ(outcome.error, core::YolloModel::InferError::kCancelled);
  EXPECT_TRUE(outcome.boxes.empty());
  EXPECT_EQ(ctx.cause(), CancelCause::kDeadlineExceeded);
}

TEST(InferCancellationTest, CrossThreadCancelAbortsForwardWithinBound) {
  Harness h;
  ExecContext ctx;
  ctx.arm();
  ExecContext::Scope scope(&ctx);
  const Tensor batched = h.image().reshape({1, 3, h.cfg.img_h, h.cfg.img_w});

  // One uncancelled forward calibrates nothing — the bound below is
  // absolute: after the cancel lands, the forward may run at most a small
  // multiple of a checkpoint interval, far below a full pass worth of work.
  std::atomic<int64_t> cancelled_at_ms{0};
  const Clock::time_point t0 = Clock::now();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ctx.cancel(CancelCause::kCancelled);
    cancelled_at_ms.store(static_cast<int64_t>(ms_since(t0)));
  });
  const auto outcome = h.model.infer(batched, h.tokens());
  const double done_ms = ms_since(t0);
  canceller.join();

  if (outcome.error == core::YolloModel::InferError::kNone) {
    // The tiny forward beat the 2ms fuse — legal, nothing to bound.
    return;
  }
  EXPECT_EQ(outcome.error, core::YolloModel::InferError::kCancelled);
  // Signal -> abort within a generous checkpoint-latency bound (the tiny
  // model's full pass is itself short; the point is the forward did not
  // run to completion plus epsilon after the signal).
  EXPECT_LT(done_ms - static_cast<double>(cancelled_at_ms.load()),
            250.0 * kTimeScale);
}

TEST(InferCancellationTest, TinyPoolBudgetYieldsResourceExhausted) {
  Harness h;
  PoolScope pool;
  pool.set_budget_bytes(64 * 1024);  // far below one forward's working set
  const Tensor batched = h.image().reshape({1, 3, h.cfg.img_h, h.cfg.img_w});
  const auto outcome = h.model.infer(batched, h.tokens());
  EXPECT_EQ(outcome.error, core::YolloModel::InferError::kResourceExhausted);
  EXPECT_TRUE(outcome.boxes.empty());
  EXPECT_GT(pool.stats().budget_rejected, 0);
}

// --- pool budget ------------------------------------------------------------

TEST(PoolBudgetTest, RejectsAtTheCapAndTrimRecovers) {
  PoolScope pool;
  constexpr int64_t kBlock = 128 * 1024;  // floats: 512 KiB per tensor
  constexpr int64_t kBlockBytes = kBlock * static_cast<int64_t>(sizeof(float));
  pool.set_budget_bytes(2 * kBlockBytes);
  EXPECT_EQ(pool.outstanding_bytes(), 0);

  auto a = std::make_unique<Tensor>(Shape{kBlock});
  auto b = std::make_unique<Tensor>(Shape{kBlock});
  EXPECT_EQ(pool.outstanding_bytes(), 2 * kBlockBytes);
  EXPECT_THROW(Tensor{Shape{kBlock}}, PoolBudgetExceeded);
  EXPECT_EQ(pool.stats().budget_rejected, 1);

  // Releasing parks the buffers on the free list: their bytes stay
  // attributed to the pool.
  a.reset();
  b.reset();
  EXPECT_EQ(pool.outstanding_bytes(), 2 * kBlockBytes);
  // A same-size request is served off the free list (a hit, already
  // counted) without re-checking the budget...
  { Tensor reuse{Shape{kBlock}}; }
  EXPECT_GE(pool.stats().hits, 1);
  // ...but a fresh-size miss is still rejected against the parked bytes.
  EXPECT_THROW(Tensor{Shape{2 * kBlock}}, PoolBudgetExceeded);
  EXPECT_EQ(pool.stats().budget_rejected, 2);

  // trim() hands the parked bytes back to the allocator; the budget now
  // admits the larger allocation.
  pool.trim();
  EXPECT_EQ(pool.outstanding_bytes(), 0);
  EXPECT_NO_THROW(Tensor{Shape{2 * kBlock}});
}

TEST(PoolBudgetTest, ExceptionCarriesTheAccounting) {
  PoolScope pool;
  pool.set_budget_bytes(1024);
  try {
    Tensor big({100000});
    FAIL() << "expected PoolBudgetExceeded";
  } catch (const PoolBudgetExceeded& e) {
    EXPECT_EQ(e.budget_bytes, 1024);
    EXPECT_EQ(e.requested_bytes,
              100000 * static_cast<int64_t>(sizeof(float)));
    EXPECT_GE(e.outstanding_bytes, 0);
  }
}

// --- service: in-flight deadline aborts -------------------------------------

TEST(SupervisionServiceTest, DeadlineAbortsSlowForwardInFlight) {
  FaultGuard guard;
  Harness h;
  runtime::FaultInjector injector;
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 600 * kTimeScale;
  fc.slow_forward_count = 1;
  injector.configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.max_retries = 0;
  sc.fault_injector = &injector;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  GroundRequest req = h.request();
  req.deadline_ms = 50 * kTimeScale;
  const Clock::time_point t0 = Clock::now();
  const GroundResponse response = service.ground(std::move(req));
  const double elapsed = ms_since(t0);

  EXPECT_EQ(response.status.code, StatusCode::kDeadlineExceeded)
      << response.status.to_string();
  // The worker was freed mid-sleep: well under the injected 600ms, i.e.
  // within a small multiple of the checkpoint/slice interval past the
  // 50ms deadline.
  EXPECT_LT(elapsed, 300.0 * kTimeScale)
      << "cancellation did not abort the slow forward";

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.submitted, 1);
  EXPECT_EQ(c.deadline_exceeded, 1);
  expect_invariant(c);

  // The cancel->observed latency histogram recorded the abort.
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  const auto* cancel_hist = snap.histogram("serve.cancel_latency_ms");
  ASSERT_NE(cancel_hist, nullptr);
  EXPECT_GE(cancel_hist->count, 1);
}

TEST(SupervisionServiceTest, DisabledCancellationRunsTheFullSlowForward) {
  FaultGuard guard;
  Harness h;
  runtime::FaultInjector injector;
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 300 * kTimeScale;
  fc.slow_forward_count = 1;
  injector.configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.max_retries = 0;
  sc.enable_cancellation = false;  // PR-2 observe-only behaviour
  sc.fault_injector = &injector;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  GroundRequest req = h.request();
  req.deadline_ms = 50 * kTimeScale;
  const Clock::time_point t0 = Clock::now();
  const GroundResponse response = service.ground(std::move(req));
  const double elapsed = ms_since(t0);

  // Still answered with the typed deadline verdict — but only after the
  // full injected sleep, because nothing could interrupt the forward.
  EXPECT_EQ(response.status.code, StatusCode::kDeadlineExceeded)
      << response.status.to_string();
  EXPECT_GE(elapsed, 0.9 * 300.0 * kTimeScale);
  expect_invariant(service.counters());
}

// --- service: client cancel tokens ------------------------------------------

TEST(SupervisionServiceTest, CancelTokenAbortsInFlightAndQueued) {
  FaultGuard guard;
  Harness h;
  runtime::FaultInjector injector;
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 500 * kTimeScale;
  fc.slow_forward_count = 1;  // only the first (in-flight) request is slow
  injector.configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.batch_max = 1;
  sc.max_retries = 0;
  sc.fault_injector = &injector;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  GroundRequest in_flight = h.request();
  in_flight.cancel = std::make_shared<CancelToken>();
  auto token_a = in_flight.cancel;
  std::future<GroundResponse> fa = service.submit(std::move(in_flight));

  GroundRequest queued = h.request();
  queued.cancel = std::make_shared<CancelToken>();
  auto token_b = queued.cancel;
  std::future<GroundResponse> fb = service.submit(std::move(queued));

  // Give the worker time to start the slow forward, then cancel both: A
  // mid-forward, B while still queued behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(40 * kTimeScale));
  const Clock::time_point t0 = Clock::now();
  token_a->cancel();
  token_b->cancel();
  EXPECT_TRUE(token_a->requested());

  const GroundResponse ra = fa.get();
  const GroundResponse rb = fb.get();
  const double elapsed = ms_since(t0);
  EXPECT_EQ(ra.status.code, StatusCode::kCancelled)
      << ra.status.to_string();
  EXPECT_EQ(rb.status.code, StatusCode::kCancelled)
      << rb.status.to_string();
  EXPECT_LT(elapsed, 300.0 * kTimeScale)
      << "cancel did not abort the in-flight forward";

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.submitted, 2);
  EXPECT_EQ(c.cancelled, 2);
  expect_invariant(c);
}

TEST(SupervisionServiceTest, LateCancelAfterCompletionIsHarmless) {
  FaultGuard guard;
  Harness h;
  ServeConfig sc;
  sc.num_workers = 1;
  InferenceService service(h.model, h.vocab, sc);

  GroundRequest req = h.request();
  req.cancel = std::make_shared<CancelToken>();
  auto token = req.cancel;
  const GroundResponse response = service.ground(std::move(req));
  EXPECT_TRUE(response.status.ok()) << response.status.to_string();

  // The token's pinned generation is stale: this cancel must not poison
  // the worker's next request.
  token->cancel();
  const GroundResponse next = service.ground(h.request());
  EXPECT_TRUE(next.status.ok()) << next.status.to_string();

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.served, 2);
  EXPECT_EQ(c.cancelled, 0);
  expect_invariant(c);
}

// --- service: watchdog ------------------------------------------------------

TEST(SupervisionWatchdogTest, KickCancelsAStalledButCancellableWorker) {
  FaultGuard guard;
  Harness h;
  runtime::FaultInjector injector;
  runtime::FaultInjector::Config fc;
  // The sliced slow sleep polls the context but never bumps heartbeats:
  // exactly a busy worker making no progress, but still cancellable.
  fc.slow_forward_ms = 5000;
  fc.slow_forward_count = 1;
  injector.configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.max_retries = 0;
  sc.watchdog_interval_ms = 20;
  sc.watchdog_stall_intervals = 2;
  sc.watchdog_grace_intervals = 1000;  // never reap in this test
  sc.fault_injector = &injector;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  const Clock::time_point t0 = Clock::now();
  const GroundResponse response = service.ground(h.request());
  const double elapsed = ms_since(t0);

  EXPECT_EQ(response.status.code, StatusCode::kCancelled)
      << response.status.to_string();
  EXPECT_LT(elapsed, 2500.0) << "watchdog kick did not abort the stall";

  const ServiceCounters c = service.counters();
  EXPECT_GE(c.watchdog_kicks, 1);
  EXPECT_EQ(c.cancelled, 1);
  EXPECT_EQ(c.workers_lost, 0);
  expect_invariant(c);
}

TEST(SupervisionWatchdogTest, WedgedWorkerIsReapedAndReplaced) {
  FaultGuard guard;
  Harness h;
  runtime::FaultInjector injector;
  runtime::FaultInjector::Config fc;
  // Uninterruptible stall: no checkpoint ever observes the kick, so the
  // watchdog must escalate to reap. Bounded so stop() can join the thread.
  fc.wedge_forward_ms = 1200;
  fc.wedge_forward_count = 1;
  injector.configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.max_retries = 0;
  sc.watchdog_interval_ms = 20;
  sc.watchdog_stall_intervals = 1;
  sc.watchdog_grace_intervals = 2;
  sc.fault_injector = &injector;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);
  const int64_t compiles = testing::global_counter("plan.compiles");
  const int64_t fallbacks = testing::global_counter("plan.fallbacks");

  const Clock::time_point t0 = Clock::now();
  const GroundResponse wedged = service.ground(h.request());
  const double elapsed = ms_since(t0);

  // The request did not wait out the 1200ms wedge: the watchdog declared
  // the worker lost and failed it.
  EXPECT_EQ(wedged.status.code, StatusCode::kInternalError)
      << wedged.status.to_string();
  EXPECT_LT(elapsed, 1000.0) << "reap did not pre-empt the wedge";

  // The replacement worker serves the next request while the wedged thread
  // is still sleeping...
  testing::wait_for_warm(service, 2);
  const int64_t executions = testing::global_counter("plan.executions");
  const GroundResponse next = service.ground(h.request());
  EXPECT_TRUE(next.status.answered()) << next.status.to_string();

  // ...from the shared Programs: the respawn compiled nothing, sized its
  // own arena, and ran its forward planned.
  EXPECT_EQ(testing::global_counter("plan.compiles"), compiles);
  EXPECT_GT(testing::global_counter("plan.executions"), executions);
  EXPECT_EQ(testing::global_counter("plan.fallbacks"), fallbacks);
  EXPECT_GT(service.metrics_snapshot().gauge("serve.arena_bytes"), 0.0);

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.workers_lost, 1);
  EXPECT_EQ(c.workers_spawned, 1);
  EXPECT_GE(c.failed, 1);
  expect_invariant(c);
  EXPECT_GE(service.health().workers, 1);
}

// --- service: pool budget refusal -------------------------------------------

TEST(SupervisionServiceTest, PoolBudgetYieldsResourceExhausted) {
  FaultGuard guard;
  Harness h;
  ServeConfig sc;
  sc.num_workers = 1;
  sc.max_retries = 1;
  sc.pool_budget_mb = 1;  // far below the model tier's working set
  InferenceService service(h.model, h.vocab, sc);

  // Every attempt is refused by the budget (trim-and-retry included): the
  // request is shed with the typed status, not turned into a failure.
  const GroundResponse response = service.ground(h.request());
  EXPECT_EQ(response.status.code, StatusCode::kResourceExhausted)
      << response.status.to_string();

  const ServiceCounters c = service.counters();
  EXPECT_GE(c.pool_rejected, 1);
  EXPECT_EQ(c.rejected_resource, 1);
  EXPECT_EQ(c.failed, 0);
  EXPECT_EQ(c.breaker_trips, 0);  // memory pressure must not trip the breaker
  expect_invariant(c);
}

// --- stress: cancellation + supervision under concurrent load ---------------

TEST(SupervisionStressTest, MixedCancellationLoadKeepsInvariantCoherent) {
  FaultGuard guard;
  Harness h;
  runtime::FaultInjector injector;
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 30 * kTimeScale;
  fc.slow_forward_count = 24;  // a poisoned minority of the forwards stall
  injector.configure(fc);

  ServeConfig sc;
  sc.num_workers = 3;
  sc.queue_capacity = 64;
  sc.batch_max = 2;
  sc.max_retries = 0;
  sc.breaker_threshold = 1000;
  sc.watchdog_interval_ms = 25;
  sc.watchdog_stall_intervals = 3;
  sc.watchdog_grace_intervals = 1000;  // kicks allowed, reaps not needed
  sc.fault_injector = &injector;
  InferenceService service(h.model, h.vocab, sc);

  // Concurrent snapshot poller: in every cut, terminal counts never exceed
  // submissions and each subset stays within its superset.
  std::atomic<bool> stop_poller{false};
  std::thread poller([&] {
    while (!stop_poller.load()) {
      const ServiceCounters c = service.counters();
      EXPECT_LE(c.served + c.rejected + c.deadline_exceeded + c.failed +
                    c.cancelled,
                c.submitted);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::vector<std::thread> clients;
  std::atomic<int> resolved{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        GroundRequest req = h.request(static_cast<uint64_t>(t * 100 + i));
        std::shared_ptr<CancelToken> token;
        if (i % 3 == 0) {
          // A deadline tight enough to cancel a poisoned slow forward.
          req.deadline_ms = 15 * kTimeScale;
        } else if (i % 3 == 1) {
          token = std::make_shared<CancelToken>();
          req.cancel = token;
        }
        std::future<GroundResponse> f = service.submit(std::move(req));
        if (token != nullptr && i % 2 == 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(2 * kTimeScale));
          token->cancel();
        }
        const GroundResponse r = f.get();
        // Every request terminates in exactly one typed status; answered
        // ones carry a finite box.
        if (r.status.answered()) {
          EXPECT_TRUE(std::isfinite(r.box.x) && std::isfinite(r.box.w));
        }
        ++resolved;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop_poller.store(true);
  poller.join();

  EXPECT_EQ(resolved.load(), kThreads * kPerThread);
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.submitted, kThreads * kPerThread);
  expect_invariant(c);
  EXPECT_EQ(c.workers_lost, 0);
  service.stop();
  expect_invariant(service.counters());
}

// --- disabled-path overhead guardband ---------------------------------------
// With no ExecContext installed, a checkpoint poll is one thread_local load
// plus a null-check — held to the same guardband the obs hooks are.

uint64_t xorshift_step(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

__attribute__((noinline)) uint64_t loop_plain(int64_t iters, uint64_t x) {
  for (int64_t i = 0; i < iters; ++i) x = xorshift_step(x);
  return x;
}

__attribute__((noinline)) uint64_t loop_checkpointed(int64_t iters,
                                                     uint64_t x) {
  for (int64_t i = 0; i < iters; ++i) {
    ExecContext* ctx = ExecContext::current();
    if (ctx != nullptr && ctx->checkpoint()) break;
    x = xorshift_step(x);
  }
  return x;
}

TEST(SupervisionOverhead, UninstalledCheckpointStaysWithinGuardband) {
#ifdef YOLLO_SUPERVISION_TSAN
  // TSan intercepts the thread_local access, inflating it far past the
  // guardband; the overhead claim is about production builds.
  GTEST_SKIP() << "disabled-path overhead is not meaningful under TSan";
#endif
  ASSERT_EQ(ExecContext::current(), nullptr);
  constexpr int64_t kIters = 2000000;
  constexpr int kReps = 5;
  double best_plain = 1e300;
  double best_instr = 1e300;
  uint64_t sink = 0x2545f4914f6cdd1dULL;
  for (int rep = 0; rep < kReps; ++rep) {
    Clock::time_point t0 = Clock::now();
    sink = loop_plain(kIters, sink);
    const double plain = ms_since(t0);
    t0 = Clock::now();
    sink = loop_checkpointed(kIters, sink);
    const double instr = ms_since(t0);
    best_plain = std::min(best_plain, plain);
    best_instr = std::min(best_instr, instr);
  }
  EXPECT_NE(sink, 0u);
  // Same guardband as the obs disabled-span test: may not double the loop,
  // plus 2ms absolute slack so tiny bases do not flake.
  EXPECT_LE(best_instr, best_plain * 2.0 + 2.0)
      << "plain " << best_plain << " ms vs checkpointed " << best_instr
      << " ms over " << kIters << " iterations";
}

}  // namespace
}  // namespace yollo::serve
