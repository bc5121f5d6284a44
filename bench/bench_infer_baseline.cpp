// Baseline measurement for BENCH_infer.json: the previous revision's
// inference path.
//
// This file is NOT built as part of the current tree. scripts/run_benchmarks.sh
// extracts the baseline revision from git (YOLLO_BASELINE_REV, the
// preceding perf PR's merge commit), copies this harness in, builds it
// against that tree, and runs it. It therefore uses only APIs that every
// candidate baseline revision has: eval-mode predict() and the
// InferenceService. The workload (dataset, image size, query, iteration
// counts, serve burst) mirrors bench_infer_latency.cpp exactly so the two
// JSON files are directly comparable.
//
// Usage: bench_infer_baseline [json-path]   (YOLLO_BENCH_SCALE honoured)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

#include "common.h"
#include "data/renderer.h"
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

}  // namespace
}  // namespace yollo

int main(int argc, char** argv) {
  using namespace yollo;

  const char* json_path = argc > 1 ? argv[1] : "BENCH_baseline.json";
  const bench::BenchScale scale = bench::BenchScale::from_env();
  const int64_t iters = scale.quick ? 15 : 40;
  const int64_t serve_requests = scale.quick ? 64 : 256;

  const data::Vocab vocab = data::Vocab::grounding_vocab();
  data::DatasetConfig dc = bench::bench_dataset_config(0, scale);
  dc.num_images = scale.quick ? 40 : 120;
  const data::GroundingDataset dataset(dc, vocab);

  core::YolloConfig cfg;
  cfg.img_h = dc.img_h;
  cfg.img_w = dc.img_w;
  cfg.max_query_len = dataset.max_query_len();
  Rng rng(cfg.seed);
  core::YolloModel model(cfg, vocab.size(), rng);
  model.set_training(false);  // predict() requires caller-set eval mode here

  const data::GroundingSample& sample = dataset.train().front();
  const Tensor image = data::render_scene(sample.scene)
                           .reshape({1, 3, cfg.img_h, cfg.img_w});
  const std::vector<int64_t> tokens =
      data::pad_to(sample.tokens, cfg.max_query_len);

  // Single-image predict: grad-on forward + decode, fresh allocations.
  for (int i = 0; i < 3; ++i) model.predict(image, tokens);  // warmup
  std::vector<double> per_image;
  per_image.reserve(static_cast<size_t>(iters));
  double total = 0.0;
  for (int64_t i = 0; i < iters; ++i) {
    const Clock::time_point start = Clock::now();
    model.predict(image, tokens);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    per_image.push_back(ms);
    total += ms;
  }
  std::sort(per_image.begin(), per_image.end());
  const double p50 = percentile(per_image, 0.50);
  const double p95 = percentile(per_image, 0.95);
  const double mean = total / static_cast<double>(iters);

  // Serve burst: same offered load as bench_infer_latency (4 workers, whole
  // burst admitted); this service runs one image per forward.
  serve::ServeConfig sc;
  sc.num_workers = 4;
  sc.queue_capacity = serve_requests;
  serve::InferenceService service(model, vocab, sc);
  const Clock::time_point start = Clock::now();
  std::vector<std::future<serve::GroundResponse>> futures;
  futures.reserve(static_cast<size_t>(serve_requests));
  for (int64_t i = 0; i < serve_requests; ++i) {
    const data::GroundingSample& s =
        dataset.train()[static_cast<size_t>(i) % dataset.train().size()];
    serve::GroundRequest request;
    request.image = data::render_scene(s.scene);
    request.query = s.query_text;
    futures.push_back(service.submit(std::move(request)));
  }
  int64_t answered = 0;
  for (auto& future : futures) {
    if (future.get().status.answered()) ++answered;
  }
  const double wall_sec =
      std::chrono::duration<double>(Clock::now() - start).count();
  service.stop();
  const double throughput =
      static_cast<double>(answered) / std::max(wall_sec, 1e-9);

  std::printf("baseline predict: p50 %.2f ms  p95 %.2f ms  mean %.2f ms\n",
              p50, p95, mean);
  std::printf("baseline serve:   %.1f req/s (%lld/%lld answered)\n",
              throughput, static_cast<long long>(answered),
              static_cast<long long>(serve_requests));

  FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"predict_p50_ms\": %.4f,\n  \"predict_p95_ms\": %.4f,\n"
               "  \"predict_mean_ms\": %.4f,\n  \"serve_throughput_rps\": "
               "%.2f,\n  \"serve_answered\": %lld,\n  \"serve_requests\": "
               "%lld\n}\n",
               p50, p95, mean, throughput, static_cast<long long>(answered),
               static_cast<long long>(serve_requests));
  std::fclose(json);
  std::printf("wrote %s\n", json_path);
  return 0;
}
