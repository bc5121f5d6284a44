// Serving-layer throughput — latency percentiles and rejection rate vs
// offered load.
//
// Drives yollo::serve::InferenceService with paced open-loop traffic at
// increasing offered rates (plus one unpaced burst) and reports, per rate:
// answered/rejected counts, the rejection rate the bounded admission queue
// produced, p50/p95/p99 latency of answered requests, and the queue
// high-water mark. Inference cost does not depend on the weights, so the
// model is untrained (weights from init); queries and scenes come from the
// bench dataset generator.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"
#include "data/renderer.h"
#include "serve/service.h"

namespace yollo {
namespace {

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct LoadPoint {
  int64_t offered_per_sec = 0;  // 0 = unpaced burst
  int64_t submitted = 0;
  int64_t answered = 0;
  int64_t rejected = 0;
  int64_t deadline = 0;
  int64_t failed = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  int64_t queue_hwm = 0;
  double wall_sec = 0.0;
};

LoadPoint run_load(core::YolloModel& model, const data::Vocab& vocab,
                   const std::vector<data::GroundingSample>& samples,
                   int64_t offered_per_sec, int64_t num_requests) {
  serve::ServeConfig sc;
  sc.num_workers = 4;
  sc.queue_capacity = 64;
  sc.max_retries = 1;
  serve::InferenceService service(model, vocab, sc);

  const auto pace = offered_per_sec > 0
                        ? std::chrono::microseconds(1000000 / offered_per_sec)
                        : std::chrono::microseconds(0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<serve::GroundResponse>> futures;
  futures.reserve(static_cast<size_t>(num_requests));
  for (int64_t i = 0; i < num_requests; ++i) {
    const data::GroundingSample& sample =
        samples[static_cast<size_t>(i) % samples.size()];
    serve::GroundRequest request;
    request.image = data::render_scene(sample.scene);
    request.query = sample.query_text;
    futures.push_back(service.submit(std::move(request)));
    if (pace.count() > 0) std::this_thread::sleep_for(pace);
  }

  LoadPoint point;
  point.offered_per_sec = offered_per_sec;
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (auto& future : futures) {
    const serve::GroundResponse response = future.get();
    if (response.status.answered()) {
      latencies.push_back(response.latency_ms);
    }
  }
  point.wall_sec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  service.stop();

  const serve::ServiceCounters counters = service.counters();
  point.submitted = counters.submitted;
  point.answered = counters.served;
  point.rejected = counters.rejected;
  point.deadline = counters.deadline_exceeded;
  point.failed = counters.failed;
  point.queue_hwm = counters.queue_high_water;
  std::sort(latencies.begin(), latencies.end());
  point.p50 = percentile(latencies, 0.50);
  point.p95 = percentile(latencies, 0.95);
  point.p99 = percentile(latencies, 0.99);
  return point;
}

}  // namespace
}  // namespace yollo

int main() {
  using namespace yollo;

  const bench::BenchScale scale = bench::BenchScale::from_env();
  const int64_t num_requests = scale.quick ? 120 : 400;

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
  model.set_training(false);

  std::printf(
      "== Serving throughput vs offered load "
      "(4 workers, queue 64, %lld requests/point) ==\n",
      static_cast<long long>(num_requests));
  std::printf(
      "%10s %9s %8s %8s %6s %9s %9s %9s %6s %9s\n", "offered/s", "submitted",
      "answered", "rejected", "rej%", "p50(ms)", "p95(ms)", "p99(ms)", "qhwm",
      "ach/s");

  std::vector<int64_t> rates = scale.quick
                                   ? std::vector<int64_t>{100, 800, 0}
                                   : std::vector<int64_t>{50, 200, 800, 3200, 0};
  for (const int64_t rate : rates) {
    const LoadPoint point =
        run_load(model, vocab, dataset.train(), rate, num_requests);
    const double rej_pct =
        100.0 * static_cast<double>(point.rejected) /
        static_cast<double>(std::max<int64_t>(1, point.submitted));
    const double achieved =
        static_cast<double>(point.answered) / std::max(point.wall_sec, 1e-9);
    char offered[24];
    if (rate > 0) {
      std::snprintf(offered, sizeof(offered), "%lld",
                    static_cast<long long>(rate));
    } else {
      std::snprintf(offered, sizeof(offered), "burst");
    }
    std::printf("%10s %9lld %8lld %8lld %5.1f%% %9.2f %9.2f %9.2f %6lld %9.1f\n",
                offered, static_cast<long long>(point.submitted),
                static_cast<long long>(point.answered),
                static_cast<long long>(point.rejected), rej_pct, point.p50,
                point.p95, point.p99,
                static_cast<long long>(point.queue_hwm), achieved);
  }
  std::printf(
      "\n(bounded queue rejects instead of buffering: past saturation the\n"
      " rejection rate absorbs the excess load and answered latency stays\n"
      " bounded by the queue capacity instead of growing without limit)\n");
  return 0;
}
