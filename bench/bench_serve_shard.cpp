// Sharded-router capacity and chaos benchmark.
//
// Open-loop load generation (Poisson arrivals on an absolute schedule — the
// generator never slows down because the server is slow, which is what
// exposes the latency knee that closed-loop drivers hide) against
// yollo::serve::Router, in three parts:
//
//   1. latency-vs-offered-load sweep, 1 shard vs 3 shards, to locate the
//      knee: the highest offered rate each fleet sustains with >= 99% of
//      requests answered inside the SLO deadline;
//   2. an SLO report line per fleet (p99 of answered latency at the knee);
//   3. a chaos leg per fault mode (kill / poison / slow): one of the three
//      shards is broken mid-run while the generator keeps offering load.
//      Every request must resolve with a typed status (zero lost), the
//      router accounting invariant must hold exactly, and post-failure
//      throughput must stay >= (N-1)/N of the healthy window.
//
// Every fleet runs the same workers per shard, sized so the 3-shard fleet
// uses at most hardware_concurrency() workers (one per core, two when the
// machine has six or more cores).
//
// Usage: bench_serve_shard [json-path]   (default: BENCH_serve_shard.json)
// YOLLO_BENCH_SCALE=quick shrinks the sweep for smoke runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "data/renderer.h"
#include "serve/router.h"

namespace yollo {
namespace {

using Clock = std::chrono::steady_clock;

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct Workload {
  const data::GroundingDataset* dataset = nullptr;
  std::vector<Tensor> images;  // pre-rendered: generation must be cheap
  std::vector<std::string> queries;

  serve::RouteRequest request(size_t i) const {
    serve::RouteRequest req;
    req.image = images[i % images.size()];  // storage shared, no copy
    req.query = queries[i % queries.size()];
    req.image_id = "bench-" + std::to_string(i % images.size());
    return req;
  }
};

// Workers per shard: the largest count, up to 2, that keeps the 3-shard
// fleet within the machine's cores.
int64_t workers_per_shard() {
  const int64_t cores =
      std::max<int64_t>(1, std::thread::hardware_concurrency());
  return std::clamp<int64_t>(cores / 3, 1, 2);
}

serve::RouterConfig fleet_config(int64_t num_shards) {
  serve::RouterConfig rc;
  rc.num_shards = num_shards;
  rc.shard.num_workers = workers_per_shard();
  rc.shard.queue_capacity = 64;
  rc.shard.max_retries = 1;
  return rc;
}

// Block until every shard's workers have compiled their plans: a fresh
// fleet otherwise bills plan warm-up to its first requests, and three
// shards warming at once miss the SLO deadline on a quiet fleet.
void wait_for_warm(serve::Router& router) {
  for (int64_t s = 0; s < router.num_shards(); ++s) {
    serve::InferenceService& shard = router.shard(s);
    while (shard.counters().workers_warmed < shard.config().num_workers) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

struct LoadPoint {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;  // answered per second of wall time
  int64_t submitted = 0;
  int64_t answered = 0;
  int64_t rejected = 0;
  int64_t deadline = 0;
  int64_t failed = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  // Time-to-verdict for deadline-missed requests: p95 latency of
  // kDeadlineExceeded responses. With cooperative cancellation a doomed
  // forward aborts at a kernel checkpoint right after the deadline; without
  // it the verdict waits for the full (injected) forward.
  double dl_p95 = 0.0;
  double wall_sec = 0.0;
  bool invariant_ok = false;
  bool slo_ok = false;  // >= 99% answered inside the deadline
};

// One open-loop run: Poisson arrivals at `offered_rps` against `router`.
// `on_request` (optional) fires once after `chaos_at` submissions — the
// chaos legs use it to break a shard mid-run from a side thread.
LoadPoint run_open_loop(serve::Router& router, const Workload& load,
                        double offered_rps, int64_t num_requests,
                        int64_t deadline_ms, uint64_t seed,
                        int64_t chaos_at = -1,
                        void (*chaos)(serve::Router&) = nullptr,
                        std::vector<int64_t>* windows = nullptr,
                        std::vector<double>* window_answered = nullptr) {
  wait_for_warm(router);
  Rng arrivals(seed);
  std::vector<std::future<serve::RouteResponse>> futures;
  futures.reserve(static_cast<size_t>(num_requests));
  std::thread chaos_thread;

  const Clock::time_point start = Clock::now();
  Clock::time_point next = start;
  for (int64_t i = 0; i < num_requests; ++i) {
    // Exponential inter-arrival: an absolute schedule, so a stalled server
    // faces a growing backlog instead of a politely pausing generator.
    const double u =
        std::max(1e-9, 1.0 - static_cast<double>(arrivals.uniform()));
    next += std::chrono::microseconds(
        static_cast<int64_t>(-std::log(u) / offered_rps * 1e6));
    std::this_thread::sleep_until(next);
    if (i == chaos_at && chaos != nullptr) {
      // kill_shard blocks while the victim drains; a side thread keeps the
      // generator open-loop through the failure.
      chaos_thread = std::thread([&router, chaos] { chaos(router); });
    }
    serve::RouteRequest request = load.request(static_cast<size_t>(i));
    request.deadline_ms = deadline_ms;
    futures.push_back(router.submit(std::move(request)));
  }

  LoadPoint point;
  point.offered_rps = offered_rps;
  std::vector<double> latencies;
  std::vector<double> dl_latencies;
  latencies.reserve(futures.size());
  int64_t lost = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    if (futures[i].wait_for(std::chrono::minutes(5)) !=
        std::future_status::ready) {
      ++lost;  // must stay 0: the router contract says every future resolves
      continue;
    }
    const serve::RouteResponse response = futures[i].get();
    if (response.status.code == serve::StatusCode::kDeadlineExceeded) {
      dl_latencies.push_back(response.latency_ms);
    }
    if (response.status.answered()) {
      latencies.push_back(response.latency_ms);
      if (windows != nullptr) {
        // Per-window goodput for the chaos legs (windowed by submit index).
        for (size_t w = 0; w < windows->size(); ++w) {
          if (static_cast<int64_t>(i) < (*windows)[w]) {
            (*window_answered)[w] += 1.0;
            break;
          }
        }
      }
    }
  }
  point.wall_sec =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (chaos_thread.joinable()) chaos_thread.join();

  const serve::RouterCounters counters = router.counters();
  point.submitted = counters.submitted;
  point.answered = counters.served;
  point.rejected = counters.rejected;
  point.deadline = counters.deadline_exceeded;
  point.failed = counters.failed;
  point.invariant_ok =
      lost == 0 &&
      counters.served + counters.rejected + counters.deadline_exceeded +
              counters.failed ==
          counters.submitted;
  point.achieved_rps =
      static_cast<double>(point.answered) / std::max(point.wall_sec, 1e-9);
  std::sort(latencies.begin(), latencies.end());
  point.p50 = percentile(latencies, 0.50);
  point.p95 = percentile(latencies, 0.95);
  point.p99 = percentile(latencies, 0.99);
  std::sort(dl_latencies.begin(), dl_latencies.end());
  point.dl_p95 = percentile(dl_latencies, 0.95);
  const int64_t in_slo = point.answered;  // answers past deadline are typed
  point.slo_ok = point.submitted > 0 &&
                 static_cast<double>(in_slo) >=
                     0.99 * static_cast<double>(point.submitted);
  return point;
}

void print_point(const char* fleet, const LoadPoint& p) {
  std::printf(
      "%8s %9.0f %9.1f %9lld %8lld %8lld %8lld %9.2f %9.2f %9.2f  %s%s\n",
      fleet, p.offered_rps, p.achieved_rps,
      static_cast<long long>(p.submitted), static_cast<long long>(p.answered),
      static_cast<long long>(p.rejected + p.failed),
      static_cast<long long>(p.deadline), p.p50, p.p95, p.p99,
      p.slo_ok ? "slo-ok" : "SLO-MISS", p.invariant_ok ? "" : " INVARIANT!");
}

void json_point(FILE* json, const LoadPoint& p, const char* indent,
                bool last) {
  std::fprintf(json,
               "%s{\"offered_rps\": %.0f, \"achieved_rps\": %.1f, "
               "\"submitted\": %lld, \"answered\": %lld, "
               "\"rejected\": %lld, \"deadline_exceeded\": %lld, "
               "\"failed\": %lld, "
               "\"p50_ms\": %.2f, \"p95_ms\": %.2f, \"p99_ms\": %.2f, "
               "\"slo_ok\": %s, \"invariant_ok\": %s}%s\n",
               indent, p.offered_rps, p.achieved_rps,
               static_cast<long long>(p.submitted),
               static_cast<long long>(p.answered),
               static_cast<long long>(p.rejected),
               static_cast<long long>(p.deadline),
               static_cast<long long>(p.failed), p.p50, p.p95, p.p99,
               p.slo_ok ? "true" : "false",
               p.invariant_ok ? "true" : "false", last ? "" : ",");
}

// --- chaos legs -------------------------------------------------------------

void chaos_kill(serve::Router& router) { router.kill_shard(1); }

void chaos_poison(serve::Router& router) {
  runtime::FaultInjector::Config fc;
  fc.poison_forward_count = 1000000;
  router.shard_injector(1)->configure(fc);
}

void chaos_slow(serve::Router& router) {
  runtime::FaultInjector::Config fc;
  fc.slow_forward_ms = 200;
  fc.slow_forward_count = 1000000;
  router.shard_injector(1)->configure(fc);
}

struct ChaosResult {
  LoadPoint point;
  double healthy_rps = 0.0;       // goodput before the fault
  double post_failure_rps = 0.0;  // goodput after the fault landed
  double ratio = 0.0;
  bool throughput_ok = false;  // ratio >= (N-1)/N within tolerance
};

ChaosResult run_chaos(core::YolloModel& model, const data::Vocab& vocab,
                      const Workload& load, double offered_rps,
                      int64_t num_requests, int64_t deadline_ms,
                      void (*chaos)(serve::Router&), uint64_t seed,
                      bool cancellation = true) {
  serve::RouterConfig rc = fleet_config(3);
  rc.shard.enable_cancellation = cancellation;
  serve::Router router(model, vocab, rc);
  // Windows by submit index: [0, third) healthy, [third, 2*third) the fault
  // lands and the router reacts, [2*third, end) post-failure steady state.
  const int64_t third = num_requests / 3;
  std::vector<int64_t> windows = {third, 2 * third, num_requests};
  std::vector<double> window_answered(windows.size(), 0.0);
  ChaosResult result;
  result.point =
      run_open_loop(router, load, offered_rps, num_requests, deadline_ms,
                    seed, /*chaos_at=*/third, chaos, &windows,
                    &window_answered);
  router.stop();
  const double window_sec =
      static_cast<double>(third) / std::max(offered_rps, 1e-9);
  result.healthy_rps = window_answered[0] / window_sec;
  result.post_failure_rps = window_answered[2] / window_sec;
  result.ratio =
      result.post_failure_rps / std::max(result.healthy_rps, 1e-9);
  // (N-1)/N with a small tolerance for windowing noise at bench scale.
  result.throughput_ok = result.ratio >= (2.0 / 3.0) * 0.9;
  return result;
}

}  // namespace
}  // namespace yollo

int main(int argc, char** argv) {
  using namespace yollo;

  const char* json_path = "BENCH_serve_shard.json";
  if (argc > 1) json_path = argv[1];
  const bench::BenchScale scale = bench::BenchScale::from_env();
  const int64_t sweep_requests = scale.quick ? 150 : 500;
  const int64_t chaos_requests = scale.quick ? 240 : 900;

  const data::Vocab vocab = data::Vocab::grounding_vocab();
  data::DatasetConfig dc = bench::bench_dataset_config(0, scale);
  dc.num_images = scale.quick ? 24 : 64;
  const data::GroundingDataset dataset(dc, vocab);

  core::YolloConfig cfg;
  cfg.img_h = dc.img_h;
  cfg.img_w = dc.img_w;
  cfg.max_query_len = dataset.max_query_len();
  Rng rng(cfg.seed);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);

  Workload load;
  load.dataset = &dataset;
  for (const data::GroundingSample& sample : dataset.train()) {
    load.images.push_back(data::render_scene(sample.scene));
    load.queries.push_back(sample.query_text);
    if (load.images.size() >= 48) break;
  }

  // Calibrate. Unloaded p50 (sequential requests) sets the SLO deadline;
  // actual capacity comes from a saturating burst, NOT from p50 arithmetic —
  // the model's forwards use intra-op parallelism, so concurrent workers
  // contend for the same cores and real capacity is well below
  // workers / p50.
  double p50_unloaded;
  {
    serve::Router probe(model, vocab, fleet_config(1));
    wait_for_warm(probe);
    std::vector<double> lat;
    for (int i = 0; i < 30; ++i) {
      const serve::RouteResponse r =
          probe.route(load.request(static_cast<size_t>(i)));
      if (r.status.answered()) lat.push_back(r.latency_ms);
    }
    probe.stop();
    std::sort(lat.begin(), lat.end());
    p50_unloaded = std::max(0.5, percentile(lat, 0.50));
  }
  // Deadline = ~20x the unloaded p50: far enough out that sub-knee Poisson
  // bursts (queueing of a few service times) do not miss, close enough that
  // a saturated fleet's unbounded queue delay does.
  const int64_t slo_deadline_ms =
      std::max<int64_t>(40, static_cast<int64_t>(20.0 * p50_unloaded));

  // Measured capacity: how fast a fleet drains an unpaced, deadline-free
  // backlog (queue 64 absorbs it; submission paced just enough not to trip
  // admission rejections).
  const auto measure_capacity = [&](int64_t num_shards) {
    serve::Router router(model, vocab, fleet_config(num_shards));
    wait_for_warm(router);
    const int64_t n = scale.quick ? 80 : 160;
    std::vector<std::future<serve::RouteResponse>> futures;
    const Clock::time_point start = Clock::now();
    for (int64_t i = 0; i < n; ++i) {
      futures.push_back(router.submit(load.request(static_cast<size_t>(i))));
      if ((i + 1) % 32 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    int64_t answered = 0;
    for (auto& f : futures) {
      if (f.get().status.answered()) ++answered;
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    router.stop();
    return static_cast<double>(answered) / std::max(wall, 1e-9);
  };
  const double one_shard_cap = measure_capacity(1);
  const double three_shard_cap = measure_capacity(3);

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("== Sharded serving: open-loop sweep ==\n");
  std::printf("nproc %u, %lld worker(s) per shard\n", nproc,
              static_cast<long long>(workers_per_shard()));
  std::printf("unloaded p50 %.2f ms, SLO deadline %lld ms, measured capacity "
              "%.0f rps (1 shard) / %.0f rps (3 shards)\n\n",
              p50_unloaded, static_cast<long long>(slo_deadline_ms),
              one_shard_cap, three_shard_cap);
  std::printf("%8s %9s %9s %9s %8s %8s %8s %9s %9s %9s\n", "fleet",
              "offer/s", "ach/s", "submitted", "answered", "rej+fail",
              "dl-miss", "p50(ms)", "p95(ms)", "p99(ms)");

  const std::vector<double> fractions =
      scale.quick ? std::vector<double>{0.5, 1.5, 2.5}
                  : std::vector<double>{0.15, 0.3, 0.6, 1.0, 1.5, 2.25, 3.0};
  std::vector<LoadPoint> one_shard, three_shard;
  for (const double f : fractions) {
    const double rate = f * one_shard_cap;
    {
      serve::Router router(model, vocab, fleet_config(1));
      one_shard.push_back(run_open_loop(router, load, rate, sweep_requests,
                                        slo_deadline_ms, 42));
      router.stop();
      print_point("1-shard", one_shard.back());
    }
    {
      serve::Router router(model, vocab, fleet_config(3));
      three_shard.push_back(run_open_loop(router, load, rate, sweep_requests,
                                          slo_deadline_ms, 43));
      router.stop();
      print_point("3-shard", three_shard.back());
    }
  }

  // The knee: highest offered rate each fleet sustained inside the SLO.
  const auto knee = [](const std::vector<LoadPoint>& points) {
    double best = 0.0;
    const LoadPoint* at = nullptr;
    for (const LoadPoint& p : points) {
      if (p.slo_ok && p.offered_rps > best) {
        best = p.offered_rps;
        at = &p;
      }
    }
    return std::make_pair(best, at);
  };
  const auto [knee1, knee1_at] = knee(one_shard);
  const auto [knee3, knee3_at] = knee(three_shard);
  std::printf("\nknee: 1-shard %.0f rps, 3-shard %.0f rps "
              "(p99 %.2f / %.2f ms < %lld ms deadline)\n",
              knee1, knee3, knee1_at != nullptr ? knee1_at->p99 : 0.0,
              knee3_at != nullptr ? knee3_at->p99 : 0.0,
              static_cast<long long>(slo_deadline_ms));

  // Chaos legs at half the 3-shard capacity: the surviving 2/3 fleet
  // (~0.67 x capacity) can absorb that in full, so any post-failure
  // throughput loss is the router's fault, not physics. The chaos deadline
  // gets transition headroom — the leg's SLO is availability (every request
  // answered), not tail latency.
  const double chaos_rate = 0.5 * three_shard_cap;
  const int64_t chaos_deadline_ms = 3 * slo_deadline_ms;
  std::printf("\n== Chaos: one of 3 shards broken mid-run (%.0f rps "
              "offered) ==\n", chaos_rate);
  struct Leg {
    const char* name;
    void (*fault)(serve::Router&);
  };
  const Leg legs[] = {{"kill", chaos_kill},
                      {"poison", chaos_poison},
                      {"slow", chaos_slow}};
  std::vector<ChaosResult> chaos_results;
  for (const Leg& leg : legs) {
    ChaosResult result =
        run_chaos(model, vocab, load, chaos_rate, chaos_requests,
                  chaos_deadline_ms, leg.fault, 1234);
    std::printf("%8s healthy %7.1f rps -> post-failure %7.1f rps "
                "(ratio %.2f, need >= 0.60)  lost=%s invariant=%s\n",
                leg.name, result.healthy_rps, result.post_failure_rps,
                result.ratio, result.point.invariant_ok ? "0" : "SOME",
                result.point.invariant_ok ? "ok" : "VIOLATED");
    chaos_results.push_back(result);
  }

  // Cancellation A/B on the slow leg. A slow shard is the worst chaos mode
  // for goodput: a killed shard is routed around, but a slow one keeps
  // accepting work and wedges its workers for the full injected sleep. With
  // cooperative cancellation the deadline aborts the forward at a kernel
  // checkpoint and the worker is back serving; without it every poisoned
  // forward holds a worker hostage to the end. Same seed, same load, the
  // only variable is enable_cancellation.
  std::printf("\n== Chaos A/B: slow shard, cancellation off vs on ==\n");
  const ChaosResult slow_off =
      run_chaos(model, vocab, load, chaos_rate, chaos_requests,
                chaos_deadline_ms, chaos_slow, 1234, /*cancellation=*/false);
  const ChaosResult slow_on =
      run_chaos(model, vocab, load, chaos_rate, chaos_requests,
                chaos_deadline_ms, chaos_slow, 1234, /*cancellation=*/true);
  std::printf("     off healthy %7.1f rps -> post-failure %7.1f rps "
              "(ratio %.2f)  dl-verdict p95 %7.2f ms  invariant=%s\n",
              slow_off.healthy_rps, slow_off.post_failure_rps, slow_off.ratio,
              slow_off.point.dl_p95,
              slow_off.point.invariant_ok ? "ok" : "VIOLATED");
  std::printf("      on healthy %7.1f rps -> post-failure %7.1f rps "
              "(ratio %.2f)  dl-verdict p95 %7.2f ms  invariant=%s\n",
              slow_on.healthy_rps, slow_on.post_failure_rps, slow_on.ratio,
              slow_on.point.dl_p95,
              slow_on.point.invariant_ok ? "ok" : "VIOLATED");
  // The pinned claim is time-to-verdict: a request doomed on the slow shard
  // resolves right after its deadline when cancellation aborts the forward
  // at a checkpoint, versus only after the full injected sleep (plus queue
  // wait) without. The goodput ratio is reported but only held to a wide
  // non-regression band — post-failure goodput is dominated by the router
  // draining the slow shard, which both modes enjoy, so the ratio delta is
  // windowing noise at bench scale.
  const bool verdict_ok =
      slow_off.point.dl_p95 <= 0.0 ||  // no deadline misses to compare
      slow_on.point.dl_p95 < 0.9 * slow_off.point.dl_p95;
  const bool cancel_ab_ok = slow_off.point.invariant_ok &&
                            slow_on.point.invariant_ok && verdict_ok &&
                            slow_on.ratio + 0.15 >= slow_off.ratio;
  std::printf("cancellation: dl-verdict p95 %.2f -> %.2f ms, ratio delta "
              "%+.2f (%s)\n",
              slow_off.point.dl_p95, slow_on.point.dl_p95,
              slow_on.ratio - slow_off.ratio,
              cancel_ab_ok ? "ok" : "REGRESSION");

  FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"img_h\": %lld,\n  \"img_w\": %lld,\n"
               "  \"nproc\": %u,\n  \"workers_per_shard\": %lld,\n"
               "  \"queue_capacity\": 64,\n"
               "  \"unloaded_p50_ms\": %.3f,\n"
               "  \"slo_deadline_ms\": %lld,\n",
               static_cast<long long>(cfg.img_h),
               static_cast<long long>(cfg.img_w), nproc,
               static_cast<long long>(workers_per_shard()), p50_unloaded,
               static_cast<long long>(slo_deadline_ms));
  std::fprintf(json, "  \"sweep\": {\n    \"one_shard\": [\n");
  for (size_t i = 0; i < one_shard.size(); ++i) {
    json_point(json, one_shard[i], "      ", i + 1 == one_shard.size());
  }
  std::fprintf(json, "    ],\n    \"three_shard\": [\n");
  for (size_t i = 0; i < three_shard.size(); ++i) {
    json_point(json, three_shard[i], "      ", i + 1 == three_shard.size());
  }
  std::fprintf(json,
               "    ]\n  },\n"
               "  \"knee\": {\"one_shard_rps\": %.0f, \"three_shard_rps\": "
               "%.0f},\n"
               "  \"slo\": {\"deadline_ms\": %lld, \"one_shard_p99_ms\": "
               "%.2f, \"three_shard_p99_ms\": %.2f},\n",
               knee1, knee3, static_cast<long long>(slo_deadline_ms),
               knee1_at != nullptr ? knee1_at->p99 : 0.0,
               knee3_at != nullptr ? knee3_at->p99 : 0.0);
  std::fprintf(json, "  \"chaos\": {\n");
  for (size_t i = 0; i < chaos_results.size(); ++i) {
    const ChaosResult& r = chaos_results[i];
    std::fprintf(json,
                 "    \"%s\": {\"offered_rps\": %.0f, \"healthy_rps\": %.1f, "
                 "\"post_failure_rps\": %.1f, \"ratio\": %.3f, "
                 "\"throughput_ok\": %s, \"zero_lost\": %s, "
                 "\"invariant_ok\": %s, \"submitted\": %lld, "
                 "\"answered\": %lld, \"failed\": %lld, "
                 "\"deadline_exceeded\": %lld}%s\n",
                 legs[i].name, chaos_rate, r.healthy_rps, r.post_failure_rps,
                 r.ratio, r.throughput_ok ? "true" : "false",
                 r.point.invariant_ok ? "true" : "false",
                 r.point.invariant_ok ? "true" : "false",
                 static_cast<long long>(r.point.submitted),
                 static_cast<long long>(r.point.answered),
                 static_cast<long long>(r.point.failed),
                 static_cast<long long>(r.point.deadline),
                 i + 1 == chaos_results.size() ? "" : ",");
  }
  std::fprintf(json, "  },\n");
  const auto json_ab = [&](const char* name, const ChaosResult& r,
                           bool last) {
    std::fprintf(json,
                 "    \"%s\": {\"healthy_rps\": %.1f, "
                 "\"post_failure_rps\": %.1f, \"ratio\": %.3f, "
                 "\"deadline_verdict_p95_ms\": %.2f, "
                 "\"invariant_ok\": %s}%s\n",
                 name, r.healthy_rps, r.post_failure_rps, r.ratio,
                 r.point.dl_p95, r.point.invariant_ok ? "true" : "false",
                 last ? "" : ",");
  };
  std::fprintf(json, "  \"chaos_cancellation_ab\": {\n");
  json_ab("slow_off", slow_off, false);
  json_ab("slow_on", slow_on, false);
  std::fprintf(json, "    \"ratio_delta\": %.3f,\n    \"improved_ok\": %s\n",
               slow_on.ratio - slow_off.ratio,
               cancel_ab_ok ? "true" : "false");
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path);

  bool ok = cancel_ab_ok;
  for (const ChaosResult& r : chaos_results) {
    ok = ok && r.point.invariant_ok && r.throughput_ok;
  }
  return ok ? 0 : 1;
}
