// Static forward-plan tests (DESIGN.md §14): bitwise plan-vs-dynamic
// equivalence, arena liveness non-overlap, plan-cache behaviour, typed
// cancellation through the planned path, the zero-allocation steady-state
// contract, concurrent workers sharing one model's arena, and threads
// sharing one Program set in per-thread arenas (the TSan leg).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/yollo.h"
#include "plan/plan.h"
#include "tensor/arena.h"
#include "tensor/exec.h"
#include "tensor/pool.h"

// --- global allocation probe -------------------------------------------------
// The zero-allocation acceptance test replaces global operator new/delete
// with counting malloc shims. Compiled out under ASan/TSan, whose own
// new/delete interceptors this would displace.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define YOLLO_ALLOC_PROBE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define YOLLO_ALLOC_PROBE 0
#else
#define YOLLO_ALLOC_PROBE 1
#endif
#else
#define YOLLO_ALLOC_PROBE 1
#endif

#if YOLLO_ALLOC_PROBE
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_alloc_count{0};
inline void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t sz) {
  note_alloc();
  void* p = std::malloc(sz ? sz : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  note_alloc();
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (sz + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // YOLLO_ALLOC_PROBE

namespace yollo {
namespace {

core::YolloConfig small_config() {
  core::YolloConfig cfg;
  cfg.img_h = 32;
  cfg.img_w = 48;
  cfg.max_query_len = 6;
  cfg.num_rel2att = 1;
  return cfg;
}

// Restores the plan switch on scope exit so a failing test cannot leak a
// disabled planner into the rest of the binary.
struct PlanSwitch {
  explicit PlanSwitch(bool on) : saved(plan::enabled()) {
    plan::set_enabled(on);
  }
  ~PlanSwitch() { plan::set_enabled(saved); }
  bool saved;
};

Tensor test_images(int64_t batch, const core::YolloConfig& cfg,
                   uint64_t seed) {
  Rng rng(seed);
  return Tensor::rand({batch, 3, cfg.img_h, cfg.img_w}, rng);
}

std::vector<int64_t> test_tokens(int64_t batch, const core::YolloConfig& cfg) {
  std::vector<int64_t> tokens;
  for (int64_t i = 0; i < batch * cfg.max_query_len; ++i) {
    tokens.push_back(3 + (i % 20));
  }
  return tokens;
}

// --- bitwise equivalence -----------------------------------------------------

TEST(PlanTest, BitwiseIdenticalToDynamicAcrossBatchSizes) {
  const core::YolloConfig cfg = small_config();
  Rng rng(4321);
  core::YolloModel model(cfg, 40, rng);

  // Odd / prime / block-straddling batch sizes: anything that could expose a
  // collapsed-loop or chunk-boundary difference between the two executors.
  for (int64_t batch : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{5},
                        int64_t{7}}) {
    const Tensor images = test_images(batch, cfg, 1000 + batch);
    const std::vector<int64_t> tokens = test_tokens(batch, cfg);

    core::YolloModel::RawForward planned, dynamic;
    {
      PlanSwitch on(true);
      planned = model.raw_forward(images, tokens);
    }
    {
      PlanSwitch off(false);
      dynamic = model.raw_forward(images, tokens);
    }
    ASSERT_TRUE(planned.planned) << "batch " << batch;
    ASSERT_FALSE(dynamic.planned) << "batch " << batch;
    ASSERT_EQ(planned.scores.shape(), dynamic.scores.shape());
    ASSERT_EQ(planned.deltas.shape(), dynamic.deltas.shape());
    EXPECT_EQ(std::memcmp(planned.scores.data(), dynamic.scores.data(),
                          sizeof(float) *
                              static_cast<size_t>(planned.scores.numel())),
              0)
        << "scores differ at batch " << batch;
    EXPECT_EQ(std::memcmp(planned.deltas.data(), dynamic.deltas.data(),
                          sizeof(float) *
                              static_cast<size_t>(planned.deltas.numel())),
              0)
        << "deltas differ at batch " << batch;
  }
}

TEST(PlanTest, PredictBitwiseIdenticalWithPlanDisabled) {
  // End-to-end YOLLO_PLAN=0 fallback: the boxes out of predict() must be
  // exactly the boxes the planned path produces.
  const core::YolloConfig cfg = small_config();
  Rng rng(99);
  core::YolloModel model(cfg, 40, rng);
  const Tensor images = test_images(2, cfg, 7);
  const std::vector<int64_t> tokens = test_tokens(2, cfg);

  std::vector<vision::Box> with_plan, without_plan;
  {
    PlanSwitch on(true);
    with_plan = model.predict(images, tokens);
    EXPECT_TRUE(model.planned(2));
  }
  {
    PlanSwitch off(false);
    without_plan = model.predict(images, tokens);
  }
  ASSERT_EQ(with_plan.size(), without_plan.size());
  for (size_t i = 0; i < with_plan.size(); ++i) {
    EXPECT_EQ(with_plan[i].x, without_plan[i].x);
    EXPECT_EQ(with_plan[i].y, without_plan[i].y);
    EXPECT_EQ(with_plan[i].w, without_plan[i].w);
    EXPECT_EQ(with_plan[i].h, without_plan[i].h);
  }
}

// --- arena liveness ----------------------------------------------------------

TEST(PlanTest, ArenaSlotsWithOverlappingLivenessAreDisjoint) {
  const core::YolloConfig cfg = small_config();
  Rng rng(4321);
  core::YolloModel model(cfg, 40, rng);
  PlanSwitch on(true);
  model.warm_plan(3);
  std::shared_ptr<const plan::Program> p = model.cached_program(3);
  ASSERT_NE(p, nullptr);

  const std::vector<plan::Program::SlotExtent> layout = p->arena_layout();
  ASSERT_FALSE(layout.empty());
  const int64_t arena_floats = p->arena_floats();
  for (const auto& s : layout) {
    EXPECT_GE(s.offset, 0);
    EXPECT_LE(s.offset + s.numel, arena_floats);
  }
  // Inclusive live intervals [def, last_use]: any two slots whose intervals
  // intersect must occupy disjoint arena ranges; a shared byte would let one
  // op's output silently corrupt another live value.
  for (size_t i = 0; i < layout.size(); ++i) {
    for (size_t j = i + 1; j < layout.size(); ++j) {
      const auto& a = layout[i];
      const auto& b = layout[j];
      const bool live_overlap = a.def <= b.last_use && b.def <= a.last_use;
      if (!live_overlap) continue;
      const bool mem_overlap =
          a.offset < b.offset + b.numel && b.offset < a.offset + a.numel;
      EXPECT_FALSE(mem_overlap)
          << "slots " << i << " and " << j << " are live together at ["
          << a.offset << "," << a.offset + a.numel << ") vs [" << b.offset
          << "," << b.offset + b.numel << ")";
    }
  }
}

// --- plan cache --------------------------------------------------------------

TEST(PlanTest, CacheMissCompileHitAndInvalidate) {
  const core::YolloConfig cfg = small_config();
  Rng rng(4321);
  core::YolloModel model(cfg, 40, rng);
  PlanSwitch on(true);

  const Tensor b1 = test_images(1, cfg, 1);
  const std::vector<int64_t> t1 = test_tokens(1, cfg);
  EXPECT_FALSE(model.planned(1));

  model.predict(b1, t1);  // miss -> record+compile
  core::YolloModel::PlanCacheStats s = model.plan_cache_stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.compiles, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_GT(s.arena_bytes, 0);
  EXPECT_TRUE(model.planned(1));

  model.predict(b1, t1);  // hit
  s = model.plan_cache_stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.compiles, 1);

  // A different batch size is a different plan: miss + compile, not a hit.
  const Tensor b2 = test_images(2, cfg, 2);
  model.predict(b2, test_tokens(2, cfg));
  s = model.plan_cache_stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.compiles, 2);
  EXPECT_EQ(s.entries, 2);

  model.invalidate_plans();
  EXPECT_FALSE(model.planned(1));
  EXPECT_FALSE(model.planned(2));
  EXPECT_EQ(model.plan_cache_stats().entries, 0);
  EXPECT_EQ(model.plan_cache_stats().arena_bytes, 0);

  model.predict(b1, t1);  // recompiles after invalidation
  s = model.plan_cache_stats();
  EXPECT_EQ(s.compiles, 3);
  EXPECT_TRUE(model.planned(1));
}

// --- cancellation ------------------------------------------------------------

TEST(PlanTest, CancelledContextYieldsTypedKCancelledOnPlannedPath) {
  const core::YolloConfig cfg = small_config();
  Rng rng(4321);
  core::YolloModel model(cfg, 40, rng);
  PlanSwitch on(true);
  model.warm_plan(1);
  ASSERT_TRUE(model.planned(1));

  const Tensor images = test_images(1, cfg, 5);
  const std::vector<int64_t> tokens = test_tokens(1, cfg);

  ExecContext ctx;
  ctx.arm();
  ctx.cancel(CancelCause::kCancelled);
  ExecContext::Scope scope(&ctx);
  const core::YolloModel::InferOutcome outcome = model.infer(images, tokens);
  EXPECT_EQ(outcome.error, core::YolloModel::InferError::kCancelled);

  // Re-armed context: the same cached plan serves the retry.
  ctx.arm();
  const core::YolloModel::InferOutcome retry = model.infer(images, tokens);
  EXPECT_TRUE(retry.ok());
}

// --- zero-allocation steady state -------------------------------------------

TEST(PlanTest, SteadyStatePlannedForwardAllocatesNothing) {
#if YOLLO_ALLOC_PROBE
  const core::YolloConfig cfg = small_config();
  Rng rng(4321);
  core::YolloModel model(cfg, 40, rng);
  PlanSwitch on(true);
  const Tensor images = test_images(2, cfg, 11);
  const std::vector<int64_t> tokens = test_tokens(2, cfg);

  // Warm up: compile the plan, spin up the thread pool, size the GEMM pack
  // scratch. Two runs so every lazily-grown buffer has reached steady state.
  model.warm_plan(2);
  ASSERT_TRUE(model.run_planned(images, tokens));
  ASSERT_TRUE(model.run_planned(images, tokens));

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  const bool ran = model.run_planned(images, tokens);
  g_count_allocs.store(false, std::memory_order_relaxed);

  ASSERT_TRUE(ran);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "steady-state planned forward must not touch the heap";
#else
  GTEST_SKIP() << "allocation probe disabled under sanitizers";
#endif
}

// --- concurrency (the TSan leg) ----------------------------------------------

TEST(PlanTest, ConcurrentWorkersSharingOnePlanStayCorrect) {
  const core::YolloConfig cfg = small_config();
  Rng rng(4321);
  core::YolloModel model(cfg, 40, rng);
  // Pin eval mode: the per-call EvalModeGuard save/restore is not designed
  // for concurrent callers on one model (serve gives each worker a replica);
  // with the flag already false the guards are value-neutral.
  model.set_training(false);
  PlanSwitch on(true);
  model.warm_plan(1);
  ASSERT_TRUE(model.planned(1));

  const Tensor images = test_images(1, cfg, 21);
  const std::vector<int64_t> tokens = test_tokens(1, cfg);
  const std::vector<vision::Box> expect = model.predict(images, tokens);
  ASSERT_EQ(expect.size(), 1u);

  // Four workers hammer the same cached plan. The plan's execution lock
  // admits one at a time; losers take the dynamic path — either way every
  // result must be bitwise the single-threaded answer.
  constexpr int kWorkers = 4;
  constexpr int kIters = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        const core::YolloModel::InferOutcome o = model.infer(images, tokens);
        if (!o.ok() || o.boxes.size() != 1 || o.boxes[0].x != expect[0].x ||
            o.boxes[0].y != expect[0].y || o.boxes[0].w != expect[0].w ||
            o.boxes[0].h != expect[0].h) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- one Program set, many arenas --------------------------------------------

TEST(PlanTest, ProgramSetSharedAcrossThreadsWithPerThreadArenas) {
  const core::YolloConfig cfg = small_config();
  Rng rng(4321);
  core::YolloModel model(cfg, 40, rng);
  model.set_training(false);
  constexpr int64_t kBatchMax = 8;

  // Dynamic references for every batch size, primes 5 and 7 included.
  std::vector<Tensor> images;
  std::vector<std::vector<int64_t>> tokens;
  std::vector<core::YolloModel::RawForward> expect;
  {
    PlanSwitch off(false);
    for (int64_t b = 1; b <= kBatchMax; ++b) {
      images.push_back(test_images(b, cfg, 300 + static_cast<uint64_t>(b)));
      tokens.push_back(test_tokens(b, cfg));
      expect.push_back(model.raw_forward(images.back(), tokens.back()));
      ASSERT_FALSE(expect.back().planned);
    }
  }

  PlanSwitch on(true);
  const plan::ProgramSet programs = model.compile_programs(kBatchMax);
  ASSERT_EQ(programs.size(), static_cast<size_t>(kBatchMax));
  int64_t max_floats = 0;
  for (const auto& p : programs) {
    ASSERT_NE(p, nullptr);
    max_floats = std::max(max_floats, p->arena_floats());
  }

  // An arena one float short of a Program's layout is refused, typed.
  {
    const plan::Program& p = *programs.back();
    plan::Arena small(p.arena_floats() - 1);
    EXPECT_THROW(p.execute(small, images.back(), tokens.back()),
                 plan::ArenaTooSmall);
  }

  // Four threads run the same immutable Programs, each in its own
  // batch_max-sized arena: every output must be bitwise the dynamic one.
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      plan::Arena arena(max_floats);
      for (int64_t i = 0; i < kBatchMax; ++i) {
        // Stagger the order so threads overlap on different sizes.
        const size_t b = static_cast<size_t>((i + t) % kBatchMax);
        const plan::Program& p = *programs[b];
        const plan::Program::Outputs out =
            p.execute(arena, images[b], tokens[b]);
        const Tensor& s = expect[b].scores;
        const Tensor& d = expect[b].deltas;
        if (numel(p.scores_shape()) != s.numel() ||
            numel(p.deltas_shape()) != d.numel() ||
            std::memcmp(out.scores, s.data(),
                        sizeof(float) * static_cast<size_t>(s.numel())) != 0 ||
            std::memcmp(out.deltas, d.data(),
                        sizeof(float) * static_cast<size_t>(d.numel())) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace yollo
