#include "tensor/pool.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "tensor/parallel.h"

namespace yollo {

PoolBudgetExceeded::PoolBudgetExceeded(int64_t requested, int64_t outstanding,
                                       int64_t budget)
    : std::runtime_error("storage pool budget exceeded: " +
                         std::to_string(requested) + " bytes requested, " +
                         std::to_string(outstanding) + " outstanding, " +
                         std::to_string(budget) + " budget"),
      requested_bytes(requested),
      outstanding_bytes(outstanding),
      budget_bytes(budget) {}
namespace detail {
namespace {

// Buffers cached per distinct element count. Bounds worst-case retention to
// kMaxPerSize * (number of distinct shapes) — a model forward has a small,
// fixed shape vocabulary, so in practice the pool converges after one pass.
constexpr size_t kMaxPerSize = 64;

}  // namespace

struct PoolState {
  // Exact-size free lists. unique_ptr entries: buffers parked here are
  // destroyed with the state, not routed back through the pool deleter.
  std::unordered_map<int64_t,
                     std::vector<std::unique_ptr<std::vector<float>>>>
      free_lists;
  const std::thread::id owner = std::this_thread::get_id();
  PoolStats stats;
  // Byte budget (0 = unlimited), written only by the owner thread.
  int64_t budget_bytes = 0;
  // Bytes handed out and not yet truly freed. Atomic because the deleter
  // may run on a foreign thread.
  std::atomic<int64_t> outstanding_bytes{0};
};

namespace {

thread_local std::shared_ptr<PoolState> t_active_pool;

// Custom deleter tagging a pooled buffer with its origin pool. When the
// last reference drops on the owning thread while that pool is still the
// thread's active one, the buffer is parked for reuse; in every other case
// (foreign thread, scope already gone, free list full) it is freed
// normally. Owner-thread-only mutation keeps the pool lock-free and
// race-free.
struct PoolDeleter {
  std::weak_ptr<PoolState> pool;

  void operator()(std::vector<float>* buffer) const {
    if (std::shared_ptr<PoolState> state = pool.lock()) {
      // `owner` is immutable after construction, safe to read anywhere;
      // everything else is touched only when we *are* the owner thread
      // (outstanding_bytes excepted — it is atomic for exactly this
      // foreign-thread free path).
      if (state->owner == std::this_thread::get_id() &&
          t_active_pool == state) {
        auto& list = state->free_lists[static_cast<int64_t>(buffer->size())];
        if (list.size() < kMaxPerSize) {
          list.emplace_back(buffer);
          ++state->stats.recycled;
          return;  // parked buffers stay counted against the budget
        }
        ++state->stats.dropped;
      }
      state->outstanding_bytes.fetch_sub(
          static_cast<int64_t>(buffer->size() * sizeof(float)),
          std::memory_order_relaxed);
    }
    delete buffer;
  }
};

}  // namespace

std::shared_ptr<std::vector<float>> acquire_storage(int64_t n, bool zeroed) {
  const size_t count = static_cast<size_t>(n);
  const std::shared_ptr<PoolState>& state = t_active_pool;
  if (!state) {
    return std::make_shared<std::vector<float>>(count, 0.0f);
  }
  auto it = state->free_lists.find(n);
  if (it != state->free_lists.end() && !it->second.empty()) {
    std::unique_ptr<std::vector<float>> buffer = std::move(it->second.back());
    it->second.pop_back();
    ++state->stats.hits;
    // Keep the Tensor(Shape) zero-fill contract: recycled memory must be
    // indistinguishable from a fresh allocation. Kernels that overwrite
    // every element (Tensor::uninitialized) skip this pass.
    if (zeroed) std::fill(buffer->begin(), buffer->end(), 0.0f);
    return std::shared_ptr<std::vector<float>>(buffer.release(),
                                               PoolDeleter{state});
  }
  const int64_t bytes = n * static_cast<int64_t>(sizeof(float));
  // Budget check only on the miss path (free-list hits are already
  // counted) and never inside a parallel_for body: those must not throw,
  // and their scratch is transient anyway. acquire_storage with an active
  // pool only runs on the owner thread, so stats stay lock-free.
  if (state->budget_bytes > 0 && !in_parallel_region()) {
    const int64_t outstanding =
        state->outstanding_bytes.load(std::memory_order_relaxed);
    if (outstanding + bytes > state->budget_bytes) {
      ++state->stats.budget_rejected;
      throw PoolBudgetExceeded(bytes, outstanding, state->budget_bytes);
    }
  }
  ++state->stats.misses;
  state->outstanding_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return std::shared_ptr<std::vector<float>>(
      new std::vector<float>(count, 0.0f), PoolDeleter{state});
}

namespace {

// Keepalive handed to charge_external_bytes callers: releases the byte
// charge when the external allocation (the plan arena) dies. weak_ptr so an
// arena outliving its pool scope releases against nothing.
struct ExternalCharge {
  std::weak_ptr<PoolState> pool;
  int64_t bytes = 0;
  ~ExternalCharge() {
    if (std::shared_ptr<PoolState> state = pool.lock()) {
      state->outstanding_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    }
  }
};

}  // namespace

std::shared_ptr<void> charge_external_bytes(int64_t bytes) {
  const std::shared_ptr<PoolState>& state = t_active_pool;
  if (!state || bytes <= 0) return nullptr;
  // Same enforcement rules as the allocation miss path: budget checks are
  // owner-thread, dispatch-level only.
  if (state->budget_bytes > 0 && !in_parallel_region()) {
    const int64_t outstanding =
        state->outstanding_bytes.load(std::memory_order_relaxed);
    if (outstanding + bytes > state->budget_bytes) {
      ++state->stats.budget_rejected;
      throw PoolBudgetExceeded(bytes, outstanding, state->budget_bytes);
    }
  }
  state->outstanding_bytes.fetch_add(bytes, std::memory_order_relaxed);
  auto charge = std::make_shared<ExternalCharge>();
  charge->pool = state;
  charge->bytes = bytes;
  return charge;
}

}  // namespace detail

PoolScope::PoolScope() {
  if (!detail::t_active_pool) {
    state_ = std::make_shared<detail::PoolState>();
    detail::t_active_pool = state_;
  }
  // else: passthrough — join the already-active scope on this thread.
}

PoolScope::~PoolScope() {
  if (state_) detail::t_active_pool.reset();
}

PoolSuspend::PoolSuspend() : saved_(std::move(detail::t_active_pool)) {
  detail::t_active_pool.reset();
}

PoolSuspend::~PoolSuspend() { detail::t_active_pool = std::move(saved_); }

bool PoolScope::active() { return detail::t_active_pool != nullptr; }

PoolStats PoolScope::stats() const {
  const std::shared_ptr<detail::PoolState>& state =
      state_ ? state_ : detail::t_active_pool;
  return state ? state->stats : PoolStats{};
}

void PoolScope::trim() {
  const std::shared_ptr<detail::PoolState>& state =
      state_ ? state_ : detail::t_active_pool;
  if (!state) return;
  // Parked buffers die via their unique_ptr (not the pool deleter), so
  // their bytes must be released from the budget accounting here.
  int64_t freed = 0;
  for (const auto& entry : state->free_lists) {
    freed += entry.first * static_cast<int64_t>(sizeof(float)) *
             static_cast<int64_t>(entry.second.size());
  }
  state->free_lists.clear();
  state->outstanding_bytes.fetch_sub(freed, std::memory_order_relaxed);
}

void PoolScope::set_budget_bytes(int64_t budget) {
  const std::shared_ptr<detail::PoolState>& state =
      state_ ? state_ : detail::t_active_pool;
  if (state) state->budget_bytes = budget > 0 ? budget : 0;
}

int64_t PoolScope::budget_bytes() const {
  const std::shared_ptr<detail::PoolState>& state =
      state_ ? state_ : detail::t_active_pool;
  return state ? state->budget_bytes : 0;
}

int64_t PoolScope::outstanding_bytes() const {
  const std::shared_ptr<detail::PoolState>& state =
      state_ ? state_ : detail::t_active_pool;
  return state ? state->outstanding_bytes.load(std::memory_order_relaxed) : 0;
}

}  // namespace yollo
