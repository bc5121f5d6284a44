// Static forward-plan benchmark (DESIGN.md §14): what compiling the
// grad-free forward into an arena-backed plan buys over the dynamic path.
//
// Measures, on one model at the bench canvas geometry:
//   predict  planned vs dynamic p50/p95 per image, batch 1 and batch 4
//   infer    the serve-style forward (long-lived worker PoolScope) planned
//            vs dynamic, batch 1
//   execute  the bare executor: the batch-1 Program of a once-compiled
//            set run in a caller-owned arena sized for the whole set
// and reports the memory trade: the model's arena against the dynamic
// path's pool outstanding bytes for the same workload, and one shared
// set's worker arena against the sum of its Programs' arenas (what one
// arena per Program would hold).
//
// The acceptance line (ISSUE 8) is planned predict p50 >= 1.15x faster than
// the dynamic path in the same binary; "speedup_predict_p50" in the JSON is
// that ratio.
//
// Usage: bench_plan [json-path]   (default ./BENCH_plan.json)
// YOLLO_BENCH_SCALE=quick shrinks the iteration counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/yollo.h"
#include "plan/plan.h"
#include "tensor/arena.h"
#include "tensor/pool.h"

namespace yollo {
namespace {

using Clock = std::chrono::steady_clock;

double percentile(const std::vector<double>& sorted, double p) {
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
};

LatencyStats time_runs(int64_t iters, int64_t images_per_run,
                       const std::function<void()>& fn) {
  for (int i = 0; i < 3; ++i) fn();  // warmup: plan compile, pool, scratch
  std::vector<double> per_image;
  per_image.reserve(static_cast<size_t>(iters));
  for (int64_t i = 0; i < iters; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    per_image.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count() /
        static_cast<double>(images_per_run));
  }
  std::sort(per_image.begin(), per_image.end());
  return LatencyStats{percentile(per_image, 0.50),
                      percentile(per_image, 0.95)};
}

int run(const char* json_path) {
  const bool quick = [] {
    const char* s = std::getenv("YOLLO_BENCH_SCALE");
    return s != nullptr && std::string(s) == "quick";
  }();
  const int64_t iters = quick ? 30 : 200;

  // Bench canvas geometry (the SynthRef datasets render 48x72).
  core::YolloConfig cfg;
  cfg.img_h = 48;
  cfg.img_w = 72;
  cfg.max_query_len = 8;
  Rng rng(20260809);
  core::YolloModel model(cfg, 200, rng);
  model.set_training(false);

  const int64_t batches[] = {1, 4};
  struct Mode {
    LatencyStats planned, dynamic;
  };
  Mode predict_stats[2];

  Rng irng(7);
  for (int bi = 0; bi < 2; ++bi) {
    const int64_t b = batches[bi];
    const Tensor images = Tensor::rand({b, 3, cfg.img_h, cfg.img_w}, irng);
    std::vector<int64_t> tokens;
    for (int64_t i = 0; i < b * cfg.max_query_len; ++i) {
      tokens.push_back(3 + (i % 40));
    }
    plan::set_enabled(true);
    model.warm_plan(b);
    predict_stats[bi].planned =
        time_runs(iters, b, [&] { model.predict(images, tokens); });
    plan::set_enabled(false);
    predict_stats[bi].dynamic =
        time_runs(iters, b, [&] { model.predict(images, tokens); });
    plan::set_enabled(true);
  }

  // Serve-style forward: infer() under a long-lived worker pool, batch 1.
  const Tensor simg = Tensor::rand({1, 3, cfg.img_h, cfg.img_w}, irng);
  const std::vector<int64_t> stok(static_cast<size_t>(cfg.max_query_len), 3);
  LatencyStats infer_planned, infer_dynamic;
  int64_t arena_bytes = 0;
  int64_t pool_bytes = 0;
  {
    PoolScope worker_pool;
    plan::set_enabled(true);
    model.warm_plan(1);
    infer_planned = time_runs(iters, 1, [&] { model.infer(simg, stok); });
    arena_bytes = model.plan_cache_stats().arena_bytes;
    plan::set_enabled(false);
    infer_dynamic = time_runs(iters, 1, [&] { model.infer(simg, stok); });
    pool_bytes = worker_pool.outstanding_bytes();
    plan::set_enabled(true);
  }

  // Serve-worker layout: one Program set compiled once, executed in one
  // arena sized to its largest Program.
  const plan::ProgramSet programs = model.compile_programs(batches[1]);
  int64_t worker_arena_floats = 0;
  int64_t arena_sum_bytes = 0;
  for (const auto& p : programs) {
    if (p == nullptr) continue;
    worker_arena_floats = std::max(worker_arena_floats, p->arena_floats());
    arena_sum_bytes += p->arena_bytes();
  }
  LatencyStats execute_b1;
  int64_t worker_arena_bytes = 0;
  if (!programs.empty() && programs.front() != nullptr) {
    plan::Arena arena(worker_arena_floats);
    worker_arena_bytes = arena.bytes();
    const plan::Program& b1 = *programs.front();
    execute_b1 = time_runs(iters, 1, [&] { b1.execute(arena, simg, stok); });
  }

  const double speedup_p50 =
      predict_stats[0].planned.p50 > 0.0
          ? predict_stats[0].dynamic.p50 / predict_stats[0].planned.p50
          : 0.0;

  FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"img_h\": %lld,\n  \"img_w\": %lld,\n"
               "  \"iters\": %lld,\n",
               static_cast<long long>(cfg.img_h),
               static_cast<long long>(cfg.img_w),
               static_cast<long long>(iters));
  for (int bi = 0; bi < 2; ++bi) {
    std::fprintf(
        json,
        "  \"predict_batch%lld\": {\n"
        "    \"planned_p50_ms\": %.4f,\n    \"planned_p95_ms\": %.4f,\n"
        "    \"dynamic_p50_ms\": %.4f,\n    \"dynamic_p95_ms\": %.4f,\n"
        "    \"speedup_p50\": %.3f\n  },\n",
        static_cast<long long>(batches[bi]), predict_stats[bi].planned.p50,
        predict_stats[bi].planned.p95, predict_stats[bi].dynamic.p50,
        predict_stats[bi].dynamic.p95,
        predict_stats[bi].planned.p50 > 0.0
            ? predict_stats[bi].dynamic.p50 / predict_stats[bi].planned.p50
            : 0.0);
  }
  std::fprintf(
      json,
      "  \"infer_pooled\": {\n"
      "    \"planned_p50_ms\": %.4f,\n    \"planned_p95_ms\": %.4f,\n"
      "    \"dynamic_p50_ms\": %.4f,\n    \"dynamic_p95_ms\": %.4f\n  },\n"
      "  \"execute_batch1\": {\n"
      "    \"p50_ms\": %.4f,\n    \"p95_ms\": %.4f\n  },\n"
      "  \"arena_bytes\": %lld,\n  \"pool_outstanding_bytes\": %lld,\n"
      "  \"worker_arena_bytes\": %lld,\n  \"program_arena_sum_bytes\": %lld,\n"
      "  \"speedup_predict_p50\": %.3f\n}\n",
      infer_planned.p50, infer_planned.p95, infer_dynamic.p50,
      infer_dynamic.p95, execute_b1.p50, execute_b1.p95,
      static_cast<long long>(arena_bytes), static_cast<long long>(pool_bytes),
      static_cast<long long>(worker_arena_bytes),
      static_cast<long long>(arena_sum_bytes), speedup_p50);
  std::fclose(json);

  std::printf(
      "bench_plan: predict b1 planned p50 %.4f ms vs dynamic %.4f ms "
      "(%.2fx); b4 planned %.4f vs dynamic %.4f; execute b1 %.4f ms; "
      "arena %lld B, pool %lld B; worker arena %lld B vs %lld B summed over "
      "the set\n",
      predict_stats[0].planned.p50, predict_stats[0].dynamic.p50, speedup_p50,
      predict_stats[1].planned.p50, predict_stats[1].dynamic.p50,
      execute_b1.p50, static_cast<long long>(arena_bytes),
      static_cast<long long>(pool_bytes),
      static_cast<long long>(worker_arena_bytes),
      static_cast<long long>(arena_sum_bytes));
  return 0;
}

}  // namespace
}  // namespace yollo

int main(int argc, char** argv) {
  return yollo::run(argc > 1 ? argv[1] : "BENCH_plan.json");
}
