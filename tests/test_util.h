// Shared helpers for the yollo test suites.
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "runtime/fault.h"
#include "serve/service.h"
#include "tensor/tensor.h"

namespace yollo::testing {

// Finite-difference gradient check.
//
// `fn` maps the list of leaf Variables to a scalar Variable. For every leaf
// that requires grad, each element is perturbed by +/- eps and the numeric
// derivative is compared against the autograd gradient.
//
// Build the graph fresh inside `fn` on every call: the helper re-invokes it
// after each perturbation.
inline void check_gradients(
    const std::function<ag::Variable(std::vector<ag::Variable>&)>& fn,
    std::vector<ag::Variable>& leaves, float eps = 1e-3f, float tol = 2e-2f) {
  // Analytic gradients.
  for (ag::Variable& leaf : leaves) leaf.zero_grad();
  ag::Variable loss = fn(leaves);
  ASSERT_EQ(loss.numel(), 1) << "gradcheck target must be scalar";
  loss.backward();

  std::vector<Tensor> analytic;
  analytic.reserve(leaves.size());
  for (ag::Variable& leaf : leaves) {
    analytic.push_back(leaf.has_grad() ? leaf.grad().clone()
                                       : Tensor(leaf.shape()));
  }

  // Numeric gradients.
  for (size_t li = 0; li < leaves.size(); ++li) {
    ag::Variable& leaf = leaves[li];
    if (!leaf.requires_grad()) continue;
    float* data = leaf.value().data();
    for (int64_t i = 0; i < leaf.numel(); ++i) {
      const float saved = data[i];
      data[i] = saved + eps;
      const float up = fn(leaves).value().item();
      data[i] = saved - eps;
      const float down = fn(leaves).value().item();
      data[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float got = analytic[li][i];
      const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(got)});
      EXPECT_NEAR(got, numeric, tol * scale)
          << "leaf " << li << " element " << i;
    }
  }
}

// --- serving scenario fixture ----------------------------------------------
//
// One table of named configurations, one runner, shared assertions — the
// config-map pattern: each serving suite instantiates TEST_P over
// serve_scenario_table() and layers its own expectations on the common
// outcome instead of hand-rolling a harness per combination. Everything here
// is inline and header-only; only translation units that link yollo_serve
// should instantiate it.

struct ServeScenario {
  const char* name;     // gtest parameter name ([A-Za-z0-9_] only)
  bool warm_cache;      // enable the feature cache and pre-warm every image
  int64_t batch_max;    // continuous-batching formation cap
  bool tight_deadline;  // per-request deadline that real queueing can miss
  bool fault;           // a few transient model-tier faults mid-run
};

inline std::vector<ServeScenario> serve_scenario_table() {
  return {
      //  name                    warm   bmax  tight  fault
      {"cold_b1_loose_clean", false, 1, false, false},
      {"cold_b8_loose_clean", false, 8, false, false},
      {"warm_b1_loose_clean", true, 1, false, false},
      {"warm_b8_loose_clean", true, 8, false, false},
      {"cold_b8_tight_clean", false, 8, true, false},
      {"warm_b8_tight_clean", true, 8, true, false},
      {"cold_b8_loose_faulty", false, 8, false, true},
      {"warm_b8_loose_faulty", true, 8, false, true},
  };
}

struct ServeScenarioOutcome {
  serve::ServiceCounters counters;
  serve::FeatureCache::Stats cache;
  int64_t resolved = 0;  // futures that came back (must equal submissions)
  int64_t answered = 0;  // kOk responses
  int64_t errors = 0;    // typed non-answered responses
  double elapsed_ms = 0.0;
};

// Block until every worker has finished plan warm-up (the serve.
// workers_warmed gauge). Timing tests call this first: a worker still
// compiling plans — slow under sanitizers — would otherwise hold its first
// request past the test's sleeps and deadlines.
inline void wait_for_warm(const serve::InferenceService& service,
                          int64_t workers) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(240);
  while (service.counters().workers_warmed < workers) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "workers never finished plan warm-up";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// The five-term accounting invariant, exact once every future has resolved.
inline void expect_serve_invariant(const serve::ServiceCounters& c) {
  EXPECT_EQ(c.submitted, c.served + c.rejected + c.deadline_exceeded +
                             c.failed + c.cancelled)
      << "five-term invariant broken: submitted=" << c.submitted
      << " served=" << c.served << " rejected=" << c.rejected
      << " deadline_exceeded=" << c.deadline_exceeded
      << " failed=" << c.failed << " cancelled=" << c.cancelled;
}

// Drive `requests` submissions over `distinct_images` images through a
// service configured from the scenario row. `time_scale` stretches the
// deadline constants for sanitizer builds. The injector is scoped (never
// the process-wide one) so scenario faults cannot leak between tests.
inline ServeScenarioOutcome run_serve_scenario(
    core::YolloModel& model, const data::Vocab& vocab,
    const ServeScenario& scenario,
    int64_t requests = 24, int64_t distinct_images = 4,
    int64_t time_scale = 1) {
  using Clock = std::chrono::steady_clock;

  runtime::FaultInjector injector;  // declared before the service: workers
                                    // must stop before their injector dies

  serve::ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.queue_capacity = requests;  // admission never rejects for capacity
  cfg.batch_max = scenario.batch_max;
  cfg.feature_cache_mb = scenario.warm_cache ? 16 : 0;
  cfg.max_retries = 1;
  cfg.fault_injector = &injector;
  serve::InferenceService service(model, vocab, cfg);

  const int64_t img_h = service.model_config().img_h;
  const int64_t img_w = service.model_config().img_w;
  std::vector<Tensor> images;
  for (int64_t i = 0; i < distinct_images; ++i) {
    Rng rng(static_cast<uint64_t>(1000 + i));
    images.push_back(Tensor::rand({3, img_h, img_w}, rng));
  }

  if (scenario.warm_cache) {
    // Pre-warm: one loose-deadline pass over every distinct image, so the
    // measured workload starts with the cache populated.
    for (const Tensor& img : images) {
      serve::GroundRequest req;
      req.image = img;
      req.query = "red circle";
      req.deadline_ms = 0;
      (void)service.ground(std::move(req));
    }
  }

  if (scenario.fault) {
    runtime::FaultInjector::Config fc;
    fc.fail_forward_count = 3;  // transient: retries absorb most of it
    injector.configure(fc);
  }

  const char* queries[] = {"red circle", "blue square", "the green thing"};
  const auto start = Clock::now();
  std::vector<std::future<serve::GroundResponse>> futures;
  futures.reserve(static_cast<size_t>(requests));
  for (int64_t i = 0; i < requests; ++i) {
    serve::GroundRequest req;
    req.image = images[static_cast<size_t>(i % distinct_images)];
    req.query = queries[i % 3];
    req.deadline_ms = scenario.tight_deadline ? 150 * time_scale : 0;
    futures.push_back(service.submit(std::move(req)));
  }

  ServeScenarioOutcome out;
  for (auto& f : futures) {
    const serve::GroundResponse resp = f.get();
    ++out.resolved;
    if (resp.status.answered()) {
      ++out.answered;
    } else {
      ++out.errors;
    }
  }
  out.elapsed_ms = std::chrono::duration<double, std::milli>(
                       Clock::now() - start)
                       .count();
  service.stop();
  out.counters = service.counters();
  out.cache = service.feature_cache().stats();

  // Row-independent guarantees: every submission resolves exactly once and
  // the accounting invariant is exact.
  EXPECT_EQ(out.resolved, requests);
  expect_serve_invariant(out.counters);
  // Clean loose-deadline rows additionally answer everything: nothing
  // expires and nothing is rejected (capacity == request count). Fault rows
  // may not — a twice-faulted forward is a typed kInternalError.
  if (!scenario.tight_deadline && !scenario.fault) {
    EXPECT_EQ(out.answered, requests) << "scenario " << scenario.name;
  }
  return out;
}

}  // namespace yollo::testing
