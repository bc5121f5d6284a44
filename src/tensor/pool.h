// StoragePool: a thread-local free-list that recycles same-size tensor
// storage buffers behind the Tensor factories.
//
// Repeated inference forwards allocate and free the same set of temporary
// shapes on every call (every transpose/permute/slice/elementwise kernel
// materialises a fresh buffer). With a PoolScope active on the thread,
// those buffers are returned to a per-size free list when their last
// reference drops and handed back on the next same-size allocation, so the
// hot path stops hitting the allocator entirely after the first forward.
//
// Rules (DESIGN.md §9):
//  - Opt-in: pooling only happens inside an active PoolScope; without one,
//    Tensor allocation behaviour is byte-for-byte the pre-pool behaviour.
//  - Indistinguishable: a pooled buffer is re-zeroed on reuse, so callers
//    cannot tell pooled and unpooled tensors apart (Tensor(Shape) stays
//    zero-filled). Tensors may safely outlive the scope: their storage
//    simply falls back to a plain free once the scope is gone.
//  - Thread-local: the pool is owned by the thread that opened the scope.
//    A buffer released on another thread (or after the scope died) is freed
//    normally — never pushed onto a foreign free list — so the pool needs
//    no locks and is ThreadSanitizer-clean by construction.
//  - Nesting joins: opening a PoolScope while one is already active on the
//    thread is a no-op passthrough, so an outer long-lived scope (e.g. a
//    serve worker) keeps recycling across the inner scopes that
//    YolloModel::predict/infer install internally. One-off work that must
//    not park its buffers in such a scope (plan recording) runs under a
//    PoolSuspend instead.
//  - Budgeted: a scope may set a byte budget. A fresh allocation that
//    would push the pool's outstanding bytes (live + parked) past it
//    throws PoolBudgetExceeded instead of growing — the serving layer
//    converts that into kResourceExhausted and degrades, rather than
//    letting the process OOM. Enforcement is skipped inside parallel_for
//    bodies (they must not throw); pool-worker allocations bypass the
//    thread-local pool entirely and are never affected.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace yollo {

// Thrown by the Tensor storage factory when an allocation would exceed the
// active PoolScope's byte budget. Raised only at op-dispatch level (never
// from inside a parallel_for body); YolloModel::infer reports it as a
// typed kResourceExhausted outcome.
class PoolBudgetExceeded : public std::runtime_error {
 public:
  PoolBudgetExceeded(int64_t requested, int64_t outstanding, int64_t budget);
  int64_t requested_bytes;
  int64_t outstanding_bytes;
  int64_t budget_bytes;
};

namespace detail {
struct PoolState;

// Storage factory used by the Tensor constructors: pooled when a PoolScope
// is active on this thread, a plain allocation otherwise. Returns a buffer
// of `n` floats, zero-filled unless `zeroed` is false (then a recycled
// buffer keeps its stale contents — only for callers that overwrite every
// element before the tensor escapes; fresh allocations are zeroed either
// way).
std::shared_ptr<std::vector<float>> acquire_storage(int64_t n,
                                                    bool zeroed = true);

// Charge `bytes` of externally-owned memory (the plan arena,
// tensor/arena.h) against the calling thread's active pool budget, exactly
// once: the returned handle releases the charge when destroyed, so a plan
// rebuild that drops the old arena before allocating the new one never
// double-counts. Returns a null handle when no PoolScope is active (nothing
// to charge against). Throws PoolBudgetExceeded when the charge would push
// outstanding bytes past the budget.
std::shared_ptr<void> charge_external_bytes(int64_t bytes);
}  // namespace detail

struct PoolStats {
  int64_t hits = 0;      // acquisitions served from the free list
  int64_t misses = 0;    // acquisitions that went to the allocator
  int64_t recycled = 0;  // buffers returned to the free list
  int64_t dropped = 0;   // buffers freed instead (full list / foreign thread)
  int64_t budget_rejected = 0;  // allocations refused by the byte budget
};

class PoolScope {
 public:
  PoolScope();
  ~PoolScope();
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

  // True when any PoolScope is active on the calling thread.
  static bool active();

  // Counters of the scope this object manages (the joined outer scope's
  // counters when this scope was a passthrough). Call from the owning
  // thread only.
  PoolStats stats() const;

  // Drop every cached buffer of the active pool back to the allocator
  // (and release their bytes from the budget accounting).
  void trim();

  // Cap the pool's outstanding bytes (live tensors + parked buffers
  // attributed to this pool). 0 disables enforcement (the default). Call
  // from the owning thread; applies to the joined scope when this one was
  // a passthrough.
  void set_budget_bytes(int64_t budget);
  int64_t budget_bytes() const;

  // Bytes currently attributed to the pool: allocations handed out minus
  // buffers actually freed (parked buffers stay counted until trimmed).
  int64_t outstanding_bytes() const;

 private:
  std::shared_ptr<detail::PoolState> state_;  // null when passthrough
};

// Detaches the calling thread's active PoolScope (if any) for this object's
// lifetime and reattaches it on destruction. Storage allocated meanwhile
// comes from, and returns to, the allocator: it is neither parked in nor
// charged to the suspended pool. Plan recording runs under one, so its
// one-off temporaries never settle in a long-lived pool.
class PoolSuspend {
 public:
  PoolSuspend();
  ~PoolSuspend();
  PoolSuspend(const PoolSuspend&) = delete;
  PoolSuspend& operator=(const PoolSuspend&) = delete;

 private:
  std::shared_ptr<detail::PoolState> saved_;
};

}  // namespace yollo
