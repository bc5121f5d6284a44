// Continuous-batching scheduler tests (DESIGN.md §15): the burst-throughput
// regression that motivated the rewrite (BENCH_infer.json serve_burst:
// batch_max 8 ran at 0.78x of batch_max 1 under the greedy coalescer),
// slack-forced solo dispatch for near-deadline stragglers, and the
// five-term accounting invariant under a concurrent metrics poller.
//
// Suite names deliberately contain "Batch" so `ctest -R 'serve|cache|batch'`
// selects everything here.
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/fault.h"
#include "serve/service.h"
#include "test_util.h"

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

// Untrained model (scheduler behaviour does not depend on grounding
// accuracy) — the serve_test harness, trimmed.
struct BatchHarness {
  data::Vocab vocab = data::Vocab::grounding_vocab();
  core::YolloConfig cfg = tiny_config();
  Rng rng{123};
  core::YolloModel model{cfg, vocab.size(), rng};

  BatchHarness() { model.set_training(false); }

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

TEST(ServeBatchTest, WarmupGaugeReachesWorkerCount) {
  FaultGuard guard;
  BatchHarness h;
  ServeConfig sc;
  sc.num_workers = 3;
  sc.batch_max = 4;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 3);
  EXPECT_EQ(service.counters().workers_warmed, 3);
}

// --- the 0.78x burst regression, pinned in-tree ------------------------------

namespace {
struct BurstResult {
  double rps = 0.0;
  ServiceCounters counters;
};

BurstResult run_burst(BatchHarness& h, int64_t batch_max, int64_t requests) {
  ServeConfig sc;
  // One worker, deep queue: batching efficiency is measured directly
  // (formed batches vs solo forwards over identical work), not through the
  // scheduling noise of several workers time-sharing the same cores.
  sc.num_workers = 1;
  sc.queue_capacity = requests;
  sc.batch_max = batch_max;
  sc.feature_cache_mb = 0;  // isolate the scheduler from the cache
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, sc.num_workers);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<GroundResponse>> futures;
  futures.reserve(static_cast<size_t>(requests));
  for (int64_t i = 0; i < requests; ++i) {
    futures.push_back(service.submit(
        h.request("red circle", static_cast<uint64_t>(100 + i % 7))));
  }
  int64_t ok = 0;
  for (auto& f : futures) {
    if (f.get().status.answered()) ++ok;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(ok, requests);

  BurstResult result;
  result.rps = static_cast<double>(requests) / secs;
  result.counters = service.counters();
  return result;
}
}  // namespace

TEST(ServeBatchTest, BurstOf256Batch8ThroughputAtLeastBatch1) {
  FaultGuard guard;
  BatchHarness h;
  constexpr int64_t kBurst = 256;

  // Regression pin for BENCH_infer.json serve_burst batch_max 8 at 0.78x of
  // batch_max 1: with slack-aware formation, warm workers, and the fused
  // per-image conv workspace, batching a deadline-free backlog must never
  // cost throughput. Interleave three trials per configuration and compare
  // the best of each (peak capacity, immune to one noisy slice of a shared
  // box); the 10% tolerance absorbs machine noise, not the 22% regression
  // class this test exists to catch.
  double best_b1 = 0.0, best_b8 = 0.0;
  ServiceCounters last_b1, last_b8;
  for (int run = 0; run < 3; ++run) {
    const BurstResult b1 = run_burst(h, 1, kBurst);
    const BurstResult b8 = run_burst(h, 8, kBurst);
    best_b1 = std::max(best_b1, b1.rps);
    best_b8 = std::max(best_b8, b8.rps);
    last_b1 = b1.counters;
    last_b8 = b8.counters;
  }

  EXPECT_GE(best_b8, best_b1 * 0.9)
      << "batched burst slower than solo: " << best_b8 << " vs " << best_b1
      << " req/s";

  // batch_max 1 must never coalesce; batch_max 8 must actually batch the
  // backlog (a 256-deep deadline-free queue over 4 workers).
  EXPECT_EQ(last_b1.batches_coalesced, 0);
  EXPECT_GT(last_b8.batches_coalesced, 0);
  EXPECT_GT(last_b8.max_batch, 1);
  EXPECT_LE(last_b8.max_batch, 8);
  testing::expect_serve_invariant(last_b1);
  testing::expect_serve_invariant(last_b8);
}

// --- slack-forced solo dispatch ---------------------------------------------

TEST(ServeBatchTest, NearDeadlineStragglersDispatchSoloAndAreCounted) {
  FaultGuard guard;
  BatchHarness h;
  // Same shape as serve_test's NearDeadlineRequestRunsSoloNotCoalesced, but
  // this suite additionally pins the scheduler's solo_dispatches counter:
  // slack-forced solo runs must be visible, not inferred from the absence
  // of coalescing.
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 250 * kTimeScale;
  fc.slow_forward_count = 2;
  runtime::FaultInjector::instance().configure(fc);

  ServeConfig sc;
  sc.num_workers = 1;
  sc.batch_max = 4;
  InferenceService service(h.model, h.vocab, sc);
  testing::wait_for_warm(service, 1);

  // Prime the solo cost model with one ~250ms sample.
  EXPECT_TRUE(service.ground(h.request("red circle", 1)).status.ok());

  // Block the worker and queue three requests whose slack at dequeue
  // (~150ms of a 300ms budget) cannot cover a predicted 2-wide forward.
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
  }
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.batches_coalesced, 0);
  EXPECT_EQ(counters.batched_requests, 0);
  EXPECT_GE(counters.solo_dispatches, 1);
  EXPECT_EQ(counters.deadline_exceeded, 0);
  testing::expect_serve_invariant(counters);
}

// --- accounting invariant under a concurrent poller -------------------------

TEST(ServeBatchTest, FiveTermInvariantHoldsUnderConcurrentPoller) {
  FaultGuard guard;
  BatchHarness h;

  // A scoped injector bound to this service's workers: a few transient
  // faults mid-run exercise retry and typed failure while the poller
  // watches.
  runtime::FaultInjector injector;
  runtime::FaultInjector::Config fc;
  fc.fail_forward_count = 6;
  injector.configure(fc);

  ServeConfig sc;
  sc.num_workers = 4;
  sc.queue_capacity = 24;  // small enough that the burst overloads it
  sc.batch_max = 8;
  sc.feature_cache_mb = 8;
  sc.fault_injector = &injector;
  InferenceService service(h.model, h.vocab, sc);

  std::atomic<bool> done{false};
  std::atomic<int64_t> polls{0};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const ServiceCounters c = service.counters();
      // Mid-run every snapshot must be coherent: terminal counters can
      // never outrun submissions (both sides move under the service lock).
      EXPECT_LE(c.served + c.rejected + c.deadline_exceeded + c.failed +
                    c.cancelled,
                c.submitted);
      polls.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 40;
  std::vector<std::future<GroundResponse>> futures[kSubmitters];
  std::vector<std::shared_ptr<CancelToken>> tokens;
  std::mutex tokens_mu;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        GroundRequest req =
            h.request("red circle", static_cast<uint64_t>(t * 100 + i % 5));
        switch (i % 4) {
          case 1:  // tight deadline: may expire in the queue
            req.deadline_ms = 2 * kTimeScale;
            break;
          case 2: {  // cancellable: half get cancelled below
            req.cancel = std::make_shared<CancelToken>();
            std::lock_guard<std::mutex> lock(tokens_mu);
            tokens.push_back(req.cancel);
            break;
          }
          default:
            break;
        }
        futures[t].push_back(service.submit(std::move(req)));
      }
    });
  }
  for (auto& th : submitters) th.join();
  {
    std::lock_guard<std::mutex> lock(tokens_mu);
    for (size_t i = 0; i < tokens.size(); i += 2) tokens[i]->cancel();
  }

  int64_t resolved = 0;
  for (auto& fs : futures) {
    for (auto& f : fs) {
      (void)f.get();
      ++resolved;
    }
  }
  done.store(true, std::memory_order_release);
  poller.join();
  service.stop();

  EXPECT_EQ(resolved, kSubmitters * kPerThread);
  EXPECT_GT(polls.load(), 0);
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.submitted, kSubmitters * kPerThread);
  testing::expect_serve_invariant(c);
}

// --- scenario table (config-map fixture from test_util.h) -------------------

class ServeBatchScenarioTest
    : public ::testing::TestWithParam<testing::ServeScenario> {};

TEST_P(ServeBatchScenarioTest, BatchingCountersMatchScenario) {
  FaultGuard guard;
  BatchHarness h;
  const testing::ServeScenario& scenario = GetParam();

  const testing::ServeScenarioOutcome out = testing::run_serve_scenario(
      h.model, h.vocab, scenario, /*requests=*/24,
      /*distinct_images=*/4, kTimeScale);

  if (scenario.batch_max == 1) {
    EXPECT_EQ(out.counters.batches_coalesced, 0) << scenario.name;
    EXPECT_EQ(out.counters.batched_requests, 0) << scenario.name;
  } else {
    EXPECT_LE(out.counters.max_batch, scenario.batch_max) << scenario.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ServeScenarios, ServeBatchScenarioTest,
    ::testing::ValuesIn(testing::serve_scenario_table()),
    [](const ::testing::TestParamInfo<yollo::testing::ServeScenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace yollo::serve
