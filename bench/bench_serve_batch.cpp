// Continuous batching + feature cache acceptance bench (DESIGN.md §15).
//
// Part 1 — burst. The full request burst is offered up-front and drained
// through ONE worker at batch_max 1 vs 8. One worker, not four: this box
// may expose a single core, and multi-worker scheduling noise on a shared
// core swamps the batching signal we are pinning down (the serving suites
// measure multi-worker behaviour separately). The throughput clock starts
// only after the worker reports warmed — charging per-size plan
// compilation to the measured window is exactly the artefact that made
// the greedy coalescer read as 0.78x. Trials are interleaved (b1, b8, b1,
// b8, ...) and the best of each is reported, so a CPU-frequency or
// page-cache hiccup cannot land on one configuration only.
// Acceptance: batch_max 8 throughput >= 1.0x batch_max 1.
//
// Part 2 — smart gallery. One image asked many different queries, the
// workload the content-addressed backbone feature cache exists for. Cold
// = cache disabled (every request pays the backbone); warm = cache on and
// primed (every request hits and runs only the query-dependent half).
// Acceptance: warm p50 >= 2x faster than cold.
//
// The five-term accounting invariant (submitted == served + rejected +
// deadline_exceeded + failed + cancelled) is checked on every service this
// binary constructs; any violation makes the run exit non-zero.
//
// Usage: bench_serve_batch [json-path]   (default: BENCH_serve_batch.json)
// YOLLO_BENCH_SCALE=quick shrinks the request counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "data/renderer.h"
#include "obs/metrics.h"
#include "serve/service.h"

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

void wait_for_warm(serve::InferenceService& service, int64_t workers) {
  const Clock::time_point give_up =
      Clock::now() + std::chrono::seconds(120);
  while (service.counters().workers_warmed < workers &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool invariant_holds(const serve::ServiceCounters& c) {
  const bool ok = c.submitted == c.served + c.rejected +
                                     c.deadline_exceeded + c.failed +
                                     c.cancelled;
  if (!ok) {
    std::fprintf(stderr,
                 "FIVE-TERM INVARIANT BROKEN: submitted=%lld served=%lld "
                 "rejected=%lld deadline_exceeded=%lld failed=%lld "
                 "cancelled=%lld\n",
                 static_cast<long long>(c.submitted),
                 static_cast<long long>(c.served),
                 static_cast<long long>(c.rejected),
                 static_cast<long long>(c.deadline_exceeded),
                 static_cast<long long>(c.failed),
                 static_cast<long long>(c.cancelled));
  }
  return ok;
}

struct BurstPoint {
  double wall_sec = 0.0;
  double throughput = 0.0;  // answered per second
  double p50 = 0.0;
  double p95 = 0.0;
  int64_t answered = 0;
  int64_t batches = 0;
  int64_t max_batch = 0;
  serve::ServiceCounters counters;
  obs::MetricsSnapshot metrics;
};

BurstPoint run_burst(core::YolloModel& model, const data::Vocab& vocab,
                     const std::vector<Tensor>& images,
                     const std::vector<std::string>& queries,
                     int64_t batch_max, int64_t requests) {
  serve::ServeConfig sc;
  sc.num_workers = 1;
  sc.queue_capacity = requests;  // admission never rejects for capacity
  sc.batch_max = batch_max;
  sc.feature_cache_mb = 0;  // part 1 isolates batching from caching
  serve::InferenceService service(model, vocab, sc);
  wait_for_warm(service, sc.num_workers);

  const Clock::time_point start = Clock::now();
  std::vector<std::future<serve::GroundResponse>> futures;
  futures.reserve(static_cast<size_t>(requests));
  for (int64_t i = 0; i < requests; ++i) {
    serve::GroundRequest request;
    request.image = images[static_cast<size_t>(i) % images.size()];
    request.query = queries[static_cast<size_t>(i) % queries.size()];
    futures.push_back(service.submit(std::move(request)));
  }
  BurstPoint point;
  std::vector<double> latencies;
  latencies.reserve(futures.size());
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
  point.counters = serve::counters_from_snapshot(point.metrics);
  point.batches = point.counters.batches_coalesced;
  point.max_batch = point.counters.max_batch;
  point.throughput =
      static_cast<double>(point.answered) / std::max(point.wall_sec, 1e-9);
  std::sort(latencies.begin(), latencies.end());
  point.p50 = percentile(latencies, 0.50);
  point.p95 = percentile(latencies, 0.95);
  return point;
}

struct GalleryPoint {
  double p50 = 0.0;
  double p95 = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double hit_ratio = 0.0;
  serve::ServiceCounters counters;
};

// One image, `requests` distinct queries, sequential ground() calls so
// each latency sample is pure per-request cost with no queueing component.
GalleryPoint run_gallery(core::YolloModel& model, const data::Vocab& vocab,
                         const Tensor& image,
                         const std::vector<std::string>& queries,
                         int64_t requests, bool warm) {
  serve::ServeConfig sc;
  sc.num_workers = 1;
  sc.queue_capacity = 8;
  sc.batch_max = 1;
  sc.feature_cache_mb = warm ? 32 : 0;
  serve::InferenceService service(model, vocab, sc);
  wait_for_warm(service, sc.num_workers);

  if (warm) {
    // Prime: the first sighting of the image pays the backbone and fills
    // the cache; every measured request below is then a hit.
    serve::GroundRequest prime;
    prime.image = image;
    prime.query = queries.front();
    (void)service.ground(std::move(prime));
  }

  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(requests));
  for (int64_t i = 0; i < requests; ++i) {
    serve::GroundRequest request;
    request.image = image;
    request.query = queries[static_cast<size_t>(i) % queries.size()];
    const serve::GroundResponse response =
        service.ground(std::move(request));
    if (response.status.answered()) {
      latencies.push_back(response.latency_ms);
    }
  }
  service.stop();

  GalleryPoint point;
  point.counters = service.counters();
  point.cache_hits = point.counters.cache_hits;
  point.cache_misses = point.counters.cache_misses;
  const int64_t lookups = point.cache_hits + point.cache_misses;
  point.hit_ratio = lookups > 0 ? static_cast<double>(point.cache_hits) /
                                      static_cast<double>(lookups)
                                : 0.0;
  std::sort(latencies.begin(), latencies.end());
  point.p50 = percentile(latencies, 0.50);
  point.p95 = percentile(latencies, 0.95);
  return point;
}

void print_burst(const char* name, const BurstPoint& point) {
  std::printf("  %-12s %7.1f req/s  p50 %7.2f ms  p95 %7.2f ms  "
              "(%lld coalesced forwards, largest %lld)\n",
              name, point.throughput, point.p50, point.p95,
              static_cast<long long>(point.batches),
              static_cast<long long>(point.max_batch));
}

}  // namespace
}  // namespace yollo

int main(int argc, char** argv) {
  using namespace yollo;

  const char* json_path = argc > 1 ? argv[1] : "BENCH_serve_batch.json";
  const bench::BenchScale scale = bench::BenchScale::from_env();
  const int64_t burst_requests = scale.quick ? 64 : 256;
  const int64_t gallery_requests = scale.quick ? 32 : 96;
  const int trials = 3;
  const int64_t batch = 8;

  const data::Vocab vocab = data::Vocab::grounding_vocab();
  data::DatasetConfig dc = bench::bench_dataset_config(0, scale);
  dc.num_images = scale.quick ? 16 : 32;
  const data::GroundingDataset dataset(dc, vocab);

  // Latency does not depend on the weights, so the model is untrained.
  core::YolloConfig cfg;
  cfg.img_h = dc.img_h;
  cfg.img_w = dc.img_w;
  cfg.max_query_len = dataset.max_query_len();
  Rng rng(cfg.seed);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);

  // Pre-render outside every measured window: producing images on the
  // submitting thread would bill renderer time to the serve throughput.
  std::vector<Tensor> images;
  std::vector<std::string> queries;
  for (const data::GroundingSample& sample : dataset.train()) {
    images.push_back(data::render_scene(sample.scene));
    queries.push_back(sample.query_text);
  }

  bool invariants_ok = true;

  std::printf("== Serve burst: batch_max 1 vs %lld (1 worker, %lld "
              "requests, best of %d interleaved trials) ==\n",
              static_cast<long long>(batch),
              static_cast<long long>(burst_requests), trials);
  BurstPoint best1, best8;
  for (int trial = 0; trial < trials; ++trial) {
    BurstPoint b1 =
        run_burst(model, vocab, images, queries, 1, burst_requests);
    BurstPoint b8 =
        run_burst(model, vocab, images, queries, batch, burst_requests);
    invariants_ok = invariant_holds(b1.counters) && invariants_ok;
    invariants_ok = invariant_holds(b8.counters) && invariants_ok;
    std::printf("  trial %d: b1 %.1f req/s, b%lld %.1f req/s (%.2fx)\n",
                trial + 1, b1.throughput, static_cast<long long>(batch),
                b8.throughput,
                b8.throughput / std::max(b1.throughput, 1e-9));
    if (b1.throughput > best1.throughput) best1 = std::move(b1);
    if (b8.throughput > best8.throughput) best8 = std::move(b8);
  }
  const double gain =
      best8.throughput / std::max(best1.throughput, 1e-9);
  print_burst("batch_max=1", best1);
  print_burst("batch_max=8", best8);
  std::printf("  throughput gain: %.2fx %s\n", gain,
              gain >= 1.0 ? "(>= 1.0x: batching no longer regresses)"
                          : "(WARNING: below 1.0x)");
  std::printf("  formation p50 by batch size:");
  std::vector<std::pair<int64_t, double>> formation;
  for (int64_t k = 1; k <= batch; ++k) {
    const obs::HistogramSnapshot* h = best8.metrics.histogram(
        "serve.formation_ms_b" + std::to_string(k));
    if (h != nullptr && h->count > 0) {
      formation.emplace_back(k, h->quantile(0.50));
      std::printf("  b%lld %.3fms", static_cast<long long>(k),
                  h->quantile(0.50));
    }
  }
  std::printf("\n");

  std::printf("\n== Smart gallery: one image, %lld queries ==\n",
              static_cast<long long>(gallery_requests));
  const GalleryPoint cold = run_gallery(model, vocab, images.front(),
                                        queries, gallery_requests, false);
  const GalleryPoint warm = run_gallery(model, vocab, images.front(),
                                        queries, gallery_requests, true);
  invariants_ok = invariant_holds(cold.counters) && invariants_ok;
  invariants_ok = invariant_holds(warm.counters) && invariants_ok;
  const double speedup = cold.p50 / std::max(warm.p50, 1e-9);
  std::printf(
      "  cold (no cache):  p50 %7.2f ms  p95 %7.2f ms\n"
      "  warm (cache hit): p50 %7.2f ms  p95 %7.2f ms  "
      "(hit ratio %.1f%%)\n"
      "  speedup warm vs cold: %.2fx %s\n",
      cold.p50, cold.p95, warm.p50, warm.p95, warm.hit_ratio * 100.0,
      speedup,
      speedup >= 2.0 ? "(>= 2x: cached requests skip the backbone)"
                     : "(WARNING: below 2x)");

  FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  const auto emit_burst = [&](const char* name, const BurstPoint& point,
                              const char* tail) {
    std::fprintf(json,
                 "    \"%s\": {\"throughput_rps\": %.2f, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"answered\": %lld, "
                 "\"coalesced_forwards\": %lld, \"max_batch\": %lld}%s\n",
                 name, point.throughput, point.p50, point.p95,
                 static_cast<long long>(point.answered),
                 static_cast<long long>(point.batches),
                 static_cast<long long>(point.max_batch), tail);
  };
  std::fprintf(json,
               "{\n  \"img_h\": %lld,\n  \"img_w\": %lld,\n"
               "  \"serve_burst\": {\n"
               "    \"workers\": 1,\n    \"requests\": %lld,\n"
               "    \"trials\": %d,\n",
               static_cast<long long>(cfg.img_h),
               static_cast<long long>(cfg.img_w),
               static_cast<long long>(burst_requests), trials);
  emit_burst("batch_max_1", best1, ",");
  emit_burst("batch_max_8", best8, ",");
  std::fprintf(json, "    \"throughput_gain_vs_batch_max_1\": %.3f,\n"
               "    \"formation_p50_ms\": {",
               gain);
  for (size_t i = 0; i < formation.size(); ++i) {
    std::fprintf(json, "%s\"b%lld\": %.4f", i == 0 ? "" : ", ",
                 static_cast<long long>(formation[i].first),
                 formation[i].second);
  }
  std::fprintf(json,
               "}\n  },\n  \"smart_gallery\": {\n"
               "    \"requests\": %lld,\n"
               "    \"cold_p50_ms\": %.3f,\n    \"cold_p95_ms\": %.3f,\n"
               "    \"warm_p50_ms\": %.3f,\n    \"warm_p95_ms\": %.3f,\n"
               "    \"speedup_warm_vs_cold\": %.3f,\n"
               "    \"cache_hits\": %lld,\n    \"cache_misses\": %lld,\n"
               "    \"cache_hit_ratio\": %.4f\n  },\n"
               "  \"invariant_ok\": %s\n}\n",
               static_cast<long long>(gallery_requests), cold.p50, cold.p95,
               warm.p50, warm.p95, speedup,
               static_cast<long long>(warm.cache_hits),
               static_cast<long long>(warm.cache_misses), warm.hit_ratio,
               invariants_ok ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path);

  if (!invariants_ok) {
    std::fprintf(stderr, "accounting invariant violated; failing the run\n");
    return 1;
  }
  return 0;
}
