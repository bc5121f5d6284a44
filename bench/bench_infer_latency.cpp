// Inference-engine latency — what each layer of the grad-free execution
// path buys (DESIGN.md §9).
//
// Part 1 measures the same single-image forward four ways:
//   grad_on       autograd graph recorded (the pre-refactor predict cost)
//   no_grad       ag::NoGradGuard — ops return plain leaves, no graph
//   no_grad_pool  + a long-lived PoolScope recycling tensor storage
//   predict       the production entry point (no-grad + pool + decode)
// and a batched forward at batch 8 (per-image cost). Part 2 drives the
// serving layer with the same burst of requests at batch_max 1 vs 8.
//
// The acceptance baseline is the previous perf PR's inference path, whose
// kernels each new perf PR also rewrites — measuring the current binary's
// grad_on mode would credit the baseline with those kernel wins. So
// scripts/run_benchmarks.sh builds the baseline revision from git, runs
// bench_infer_baseline on the identical workload, and passes the measured
// numbers here via --baseline_* flags; they land in the JSON as
// "baseline_prev" together with the speedups against them.
//
// Usage: bench_infer_latency [json-path]
//          [--baseline_predict_p50_ms=X] [--baseline_predict_p95_ms=X]
//          [--baseline_serve_rps=X] [--baseline_rev=SHA]
// (default json-path: BENCH_infer.json in the current directory;
// scripts/run_benchmarks.sh runs it from the repo root).
// YOLLO_BENCH_SCALE=quick shrinks the iteration counts.
//
// Alongside the latency JSON this writes METRICS_infer.json — a yollo::obs
// snapshot merging the global registry (gemm/conv/autograd counters when
// YOLLO_OBS=1) with the serve bursts' registries — and, when YOLLO_OBS=1,
// TRACE_infer.json with chrome://tracing spans for the kernel and serve
// stages.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "data/renderer.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "tensor/pool.h"

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

struct LatencyStats {
  double p50 = 0.0;
  double p95 = 0.0;
  double mean = 0.0;
};

// Time `iters` runs of `fn`; per-image latency is the run latency divided
// by `images_per_run` (for the batched mode).
LatencyStats time_runs(int64_t iters, int64_t images_per_run,
                       const std::function<void()>& fn) {
  for (int i = 0; i < 3; ++i) fn();  // warmup (also primes the pool)
  std::vector<double> per_image;
  per_image.reserve(static_cast<size_t>(iters));
  double total = 0.0;
  for (int64_t i = 0; i < iters; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count() /
        static_cast<double>(images_per_run);
    per_image.push_back(ms);
    total += ms;
  }
  std::sort(per_image.begin(), per_image.end());
  LatencyStats stats;
  stats.p50 = percentile(per_image, 0.50);
  stats.p95 = percentile(per_image, 0.95);
  stats.mean = total / static_cast<double>(iters);
  return stats;
}

struct ServePoint {
  double wall_sec = 0.0;
  double throughput = 0.0;  // answered per second
  double p50 = 0.0;
  double p95 = 0.0;
  int64_t answered = 0;
  int64_t batches = 0;
  int64_t max_batch = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double cache_hit_ratio = 0.0;  // hits / lookups; 0 when the cache is off
  // p50 batch-formation latency (enqueue of the batch head to dispatch)
  // per formed batch size, from the serve.formation_ms_b<k> histograms.
  std::vector<std::pair<int64_t, double>> formation_p50_ms;
  obs::MetricsSnapshot metrics;  // the service's registry after stop()
};

// Block until every worker reports warmed (plans compiled). The throughput
// clock must start after this: charging plan compilation to the measured
// window penalises whichever configuration compiles more per-size plans —
// that artefact is what made batch_max 8 read as 0.78x of batch_max 1.
void wait_for_warm(serve::InferenceService& service, int64_t workers) {
  const Clock::time_point give_up =
      Clock::now() + std::chrono::seconds(120);
  while (service.counters().workers_warmed < workers &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// `cache_mb` stays 0 for the batching comparison: the cache favours small
// batch_max on a repeat-heavy burst (a solo request probes late enough to
// hit; a deep batch probes its repeats while the first sighting is still
// in flight and misses), so enabling it on both sides would confound the
// batch_max 1 vs 8 headline. The cached configuration runs separately.
ServePoint run_serve_burst(core::YolloModel& model, const data::Vocab& vocab,
                           const std::vector<data::GroundingSample>& samples,
                           int64_t batch_max, int64_t num_requests,
                           int64_t cache_mb) {
  serve::ServeConfig sc;
  sc.num_workers = 4;
  sc.queue_capacity = num_requests;  // admit the whole burst: same offered
  sc.batch_max = batch_max;          // load reaches the workers either way
  sc.feature_cache_mb = cache_mb;
  serve::InferenceService service(model, vocab, sc);
  wait_for_warm(service, sc.num_workers);

  const Clock::time_point start = Clock::now();
  std::vector<std::future<serve::GroundResponse>> futures;
  futures.reserve(static_cast<size_t>(num_requests));
  for (int64_t i = 0; i < num_requests; ++i) {
    const data::GroundingSample& sample =
        samples[static_cast<size_t>(i) % samples.size()];
    serve::GroundRequest request;
    request.image = data::render_scene(sample.scene);
    request.query = sample.query_text;
    futures.push_back(service.submit(std::move(request)));
  }
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  ServePoint point;
  for (auto& future : futures) {
    const serve::GroundResponse response = future.get();
    if (response.status.answered()) {
      ++point.answered;
      latencies.push_back(response.latency_ms);
    }
  }
  point.wall_sec =
      std::chrono::duration<double>(Clock::now() - start).count();
  service.stop();
  point.metrics = service.metrics_snapshot();
  const serve::ServiceCounters counters =
      serve::counters_from_snapshot(point.metrics);
  point.batches = counters.batches_coalesced;
  point.max_batch = counters.max_batch;
  point.cache_hits = counters.cache_hits;
  point.cache_misses = counters.cache_misses;
  const int64_t lookups = point.cache_hits + point.cache_misses;
  point.cache_hit_ratio =
      lookups > 0 ? static_cast<double>(point.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  for (int64_t k = 1; k <= batch_max; ++k) {
    const obs::HistogramSnapshot* h = point.metrics.histogram(
        "serve.formation_ms_b" + std::to_string(k));
    if (h != nullptr && h->count > 0) {
      point.formation_p50_ms.emplace_back(k, h->quantile(0.50));
    }
  }
  point.throughput =
      static_cast<double>(point.answered) / std::max(point.wall_sec, 1e-9);
  std::sort(latencies.begin(), latencies.end());
  point.p50 = percentile(latencies, 0.50);
  point.p95 = percentile(latencies, 0.95);
  return point;
}

void print_row(const char* name, const LatencyStats& stats, double base_p50) {
  std::printf("%14s %10.2f %10.2f %10.2f %9.2fx\n", name, stats.p50,
              stats.p95, stats.mean, base_p50 / std::max(stats.p50, 1e-9));
}

}  // namespace
}  // namespace yollo

int main(int argc, char** argv) {
  using namespace yollo;

  const char* json_path = "BENCH_infer.json";
  double baseline_p50 = 0.0, baseline_p95 = 0.0, baseline_rps = 0.0;
  std::string baseline_rev;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto flag_value = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = flag_value("--baseline_predict_p50_ms=")) {
      baseline_p50 = std::atof(v);
    } else if (const char* v = flag_value("--baseline_predict_p95_ms=")) {
      baseline_p95 = std::atof(v);
    } else if (const char* v = flag_value("--baseline_serve_rps=")) {
      baseline_rps = std::atof(v);
    } else if (const char* v = flag_value("--baseline_rev=")) {
      baseline_rev = v;
    } else {
      json_path = arg;
    }
  }
  const bool have_baseline = baseline_p50 > 0.0;
  const bench::BenchScale scale = bench::BenchScale::from_env();
  const int64_t iters = scale.quick ? 15 : 40;
  const int64_t batch = 8;
  const int64_t serve_requests = scale.quick ? 64 : 256;

  const data::Vocab vocab = data::Vocab::grounding_vocab();
  data::DatasetConfig dc = bench::bench_dataset_config(0, scale);
  dc.num_images = scale.quick ? 40 : 120;
  const data::GroundingDataset dataset(dc, vocab);

  // Latency does not depend on the weights, so the model is untrained.
  core::YolloConfig cfg;
  cfg.img_h = dc.img_h;
  cfg.img_w = dc.img_w;
  cfg.max_query_len = dataset.max_query_len();
  Rng rng(cfg.seed);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);

  const data::GroundingSample& sample = dataset.train().front();
  const Tensor image = data::render_scene(sample.scene)
                           .reshape({1, 3, cfg.img_h, cfg.img_w});
  const std::vector<int64_t> tokens =
      data::pad_to(sample.tokens, cfg.max_query_len);

  Tensor batch_images({batch, 3, cfg.img_h, cfg.img_w});
  std::vector<int64_t> batch_tokens;
  const int64_t plane = 3 * cfg.img_h * cfg.img_w;
  for (int64_t i = 0; i < batch; ++i) {
    std::copy(image.data(), image.data() + plane,
              batch_images.data() + i * plane);
    batch_tokens.insert(batch_tokens.end(), tokens.begin(), tokens.end());
  }

  std::printf("== Inference-engine latency (%lldx%lld, %lld iters) ==\n",
              static_cast<long long>(cfg.img_h),
              static_cast<long long>(cfg.img_w),
              static_cast<long long>(iters));
  std::printf("%14s %10s %10s %10s %10s\n", "mode", "p50(ms)", "p95(ms)",
              "mean(ms)", "speedup");

  const LatencyStats grad_on = time_runs(
      iters, 1, [&] { model.forward(image, tokens); });
  const LatencyStats no_grad = time_runs(iters, 1, [&] {
    ag::NoGradGuard guard;
    model.forward(image, tokens);
  });
  LatencyStats no_grad_pool;
  {
    PoolScope pool;  // long-lived, as a serve worker holds it
    ag::NoGradGuard guard;
    no_grad_pool = time_runs(iters, 1, [&] { model.forward(image, tokens); });
  }
  const LatencyStats predict = time_runs(
      iters, 1, [&] { model.predict(image, tokens); });
  LatencyStats batched;
  {
    PoolScope pool;
    batched = time_runs(iters, batch, [&] {
      model.predict(batch_images, batch_tokens);
    });
  }

  print_row("grad_on", grad_on, grad_on.p50);
  print_row("no_grad", no_grad, grad_on.p50);
  print_row("no_grad_pool", no_grad_pool, grad_on.p50);
  print_row("predict", predict, grad_on.p50);
  print_row("batched_8", batched, grad_on.p50);
  if (have_baseline) {
    std::printf("%14s %10.2f %10.2f %10s %9s  (measured at %s)\n",
                "prev_predict", baseline_p50, baseline_p95, "-", "1.00x",
                baseline_rev.empty() ? "pre-refactor rev"
                                     : baseline_rev.c_str());
    std::printf("  speedup vs prev-revision baseline: predict %.2fx, "
                "no_grad_pool %.2fx, batched_8 %.2fx\n",
                baseline_p50 / std::max(predict.p50, 1e-9),
                baseline_p50 / std::max(no_grad_pool.p50, 1e-9),
                baseline_p50 / std::max(batched.p50, 1e-9));
  }

  std::printf("\n== Serve burst: batch_max 1 vs %lld (4 workers, %lld "
              "requests, best of 3 interleaved trials) ==\n",
              static_cast<long long>(batch),
              static_cast<long long>(serve_requests));
  // Four workers time-sharing this box swing single-trial throughput by
  // ±20%; interleaved trials with best-of-3 per configuration keep a
  // scheduler hiccup from landing on one side of the comparison.
  ServePoint serve1, serve8;
  for (int trial = 0; trial < 3; ++trial) {
    ServePoint b1 =
        run_serve_burst(model, vocab, dataset.train(), 1, serve_requests, 0);
    ServePoint b8 = run_serve_burst(model, vocab, dataset.train(), batch,
                                    serve_requests, 0);
    if (b1.throughput > serve1.throughput) serve1 = std::move(b1);
    if (b8.throughput > serve8.throughput) serve8 = std::move(b8);
  }
  // Third configuration: same burst with the backbone feature cache on,
  // for the hit ratio the repeat-heavy workload earns (the burst cycles
  // the dataset, so roughly every later repeat of an image can hit).
  const ServePoint serve8c = run_serve_burst(
      model, vocab, dataset.train(), batch, serve_requests, 32);
  std::printf(
      "  batch_max=1: %6.1f req/s  p50 %7.2f ms  p95 %7.2f ms\n"
      "  batch_max=%lld: %6.1f req/s  p50 %7.2f ms  p95 %7.2f ms  "
      "(%lld coalesced forwards, largest %lld)\n"
      "  throughput gain: %.2fx\n",
      serve1.throughput, serve1.p50, serve1.p95,
      static_cast<long long>(batch), serve8.throughput, serve8.p50,
      serve8.p95, static_cast<long long>(serve8.batches),
      static_cast<long long>(serve8.max_batch),
      serve8.throughput / std::max(serve1.throughput, 1e-9));
  std::printf("  batch_max=%lld + feature cache: %6.1f req/s  p50 %7.2f ms"
              "  (cache hit ratio %.1f%%)\n",
              static_cast<long long>(batch), serve8c.throughput, serve8c.p50,
              serve8c.cache_hit_ratio * 100.0);
  std::printf("  formation p50 by batch size (batch_max=%lld run):",
              static_cast<long long>(batch));
  for (const std::pair<int64_t, double>& f : serve8.formation_p50_ms) {
    std::printf("  b%lld %.3fms", static_cast<long long>(f.first), f.second);
  }
  std::printf("\n");
  if (have_baseline && baseline_rps > 0.0) {
    std::printf("  vs prev-revision service (%.1f req/s): %.2fx\n", baseline_rps,
                serve8.throughput / baseline_rps);
  }

  FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  const auto emit = [&](const char* name, const LatencyStats& stats,
                        const char* tail) {
    std::fprintf(json,
                 "    \"%s\": {\"p50_ms\": %.4f, \"p95_ms\": %.4f, "
                 "\"mean_ms\": %.4f}%s\n",
                 name, stats.p50, stats.p95, stats.mean, tail);
  };
  std::fprintf(json, "{\n  \"img_h\": %lld,\n  \"img_w\": %lld,\n"
               "  \"iters\": %lld,\n  \"single_image\": {\n",
               static_cast<long long>(cfg.img_h),
               static_cast<long long>(cfg.img_w),
               static_cast<long long>(iters));
  emit("grad_on", grad_on, ",");
  emit("no_grad", no_grad, ",");
  emit("no_grad_pool", no_grad_pool, ",");
  emit("predict", predict, ",");
  emit("batched_8_per_image", batched, "");
  std::fprintf(json,
               "  },\n  \"speedup_no_grad_pool_vs_grad_on\": %.3f,\n"
               "  \"speedup_batched_8_vs_grad_on\": %.3f,\n",
               grad_on.p50 / std::max(no_grad_pool.p50, 1e-9),
               grad_on.p50 / std::max(batched.p50, 1e-9));
  if (have_baseline) {
    std::fprintf(
        json,
        "  \"baseline_prev\": {\n"
        "    \"rev\": \"%s\",\n"
        "    \"predict_p50_ms\": %.4f,\n"
        "    \"predict_p95_ms\": %.4f,\n"
        "    \"serve_throughput_rps\": %.2f,\n"
        "    \"speedup_predict_vs_prev\": %.3f,\n"
        "    \"speedup_no_grad_pool_vs_prev\": %.3f,\n"
        "    \"speedup_batched_8_vs_prev\": %.3f\n  },\n",
        baseline_rev.c_str(), baseline_p50, baseline_p95, baseline_rps,
        baseline_p50 / std::max(predict.p50, 1e-9),
        baseline_p50 / std::max(no_grad_pool.p50, 1e-9),
        baseline_p50 / std::max(batched.p50, 1e-9));
  }
  const auto emit_serve = [&](const char* name, const ServePoint& point,
                              const char* tail) {
    std::fprintf(json,
                 "    \"%s\": {\"throughput_rps\": %.2f, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"answered\": %lld, "
                 "\"coalesced_forwards\": %lld, \"max_batch\": %lld, "
                 "\"cache_hit_ratio\": %.4f, \"formation_p50_ms\": {",
                 name, point.throughput, point.p50, point.p95,
                 static_cast<long long>(point.answered),
                 static_cast<long long>(point.batches),
                 static_cast<long long>(point.max_batch),
                 point.cache_hit_ratio);
    for (size_t i = 0; i < point.formation_p50_ms.size(); ++i) {
      std::fprintf(json, "%s\"b%lld\": %.4f", i == 0 ? "" : ", ",
                   static_cast<long long>(point.formation_p50_ms[i].first),
                   point.formation_p50_ms[i].second);
    }
    std::fprintf(json, "}}%s\n", tail);
  };
  std::fprintf(json, "  \"serve_burst\": {\n");
  emit_serve("batch_max_1", serve1, ",");
  emit_serve("batch_max_8", serve8, ",");
  emit_serve("batch_max_8_cached", serve8c, ",");
  std::fprintf(json, "    \"requests\": %lld,\n    \"workers\": 4,\n"
               "    \"throughput_gain_vs_batch_max_1\": %.3f",
               static_cast<long long>(serve_requests),
               serve8.throughput / std::max(serve1.throughput, 1e-9));
  if (have_baseline && baseline_rps > 0.0) {
    std::fprintf(json, ",\n    \"throughput_gain_vs_prev\": %.3f",
                 serve8.throughput / baseline_rps);
  }
  std::fprintf(json, "\n  }\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path);

  // Observability artefacts next to the latency JSON: a merged metrics
  // snapshot always (global registry = kernel/autograd counters, plus the
  // per-service registries from both serve bursts), and a chrome://tracing
  // file when YOLLO_OBS=1 turned the span hooks on.
  std::string out_dir(json_path);
  const size_t slash = out_dir.find_last_of('/');
  out_dir = slash == std::string::npos ? std::string()
                                       : out_dir.substr(0, slash + 1);
  obs::MetricsSnapshot metrics = obs::MetricsRegistry::global().snapshot();
  metrics.merge(serve1.metrics);
  metrics.merge(serve8.metrics);
  metrics.merge(serve8c.metrics);
  const std::string metrics_path = out_dir + "METRICS_infer.json";
  if (metrics.write_json(metrics_path)) {
    std::printf("wrote %s\n", metrics_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
  }
  if (obs::enabled()) {
    const std::string trace_path = out_dir + "TRACE_infer.json";
    if (obs::dump_trace(trace_path)) {
      std::printf("wrote %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
  }
  return 0;
}
