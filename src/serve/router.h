// Sharded serving front-end: N InferenceService shards behind one
// consistent-hash router that never loses a request when shards misbehave.
//
// The paper's pitch is a pipeline cheap enough to serve interactively; the
// ROADMAP's is serving it to millions of users. One InferenceService cannot
// survive that: a poisoned replica set or one slow worker pool takes the
// whole endpoint down. The Router scales out and — more importantly —
// contains failures (DESIGN.md §12):
//
//   submit ── hash(image id) ──> owner shard ──> answer
//                                    │
//                                    └─ retryable failure (kOverloaded /
//                                       kInternalError / kResourceExhausted)
//                                       └──> next untried shard on the ring
//
// A request has at most one attempt in flight at a time; it fails over only
// after that attempt returns a retryable failure. Answers arrive by
// continuation, not by polling: each attempt is submitted with a completion
// that the shard runs when it settles the request — on the shard worker or
// watchdog that answers it, or on the submitting thread when the shard
// refuses at admission. That completion fails the request over or resolves
// the router future. The router starts no thread of its own, and it never
// reads a shard's health(): it judges each shard only from the attempts it
// dispatches and the answers it settles.
//
//   load: attempts dispatched to a shard and not yet settled. An owner past
//   half its queue capacity hands the request to a less loaded successor.
//   drain: a streak of kInternalError answers (an open shard breaker
//   answers nothing else), a failed probe, or kill_shard() takes the shard
//   out of rotation; queued work is still answered.
//   probe: once a drained shard has cooled down and settled everything,
//   the next request that walks past it reopens it half-open — one real
//   request at a time; a kOk answer restores it, a failure re-drains it.
//
// Consistent hashing by image id preserves backbone-feature locality per
// shard (one image, many queries lands on one shard's future feature
// cache); adding or removing a shard remaps only ~1/N of the key space.
//
// Accounting: the router owns its own obs::MetricsRegistry ("router.*").
// Every submitted request terminates in exactly one router-level outcome
// (the answer, or the most truthful failure across its attempts), so the
// service-level invariant extends to the router:
//
//   served + rejected + deadline_exceeded + failed == submitted
//
// and holds in every concurrent snapshot (terminal accounting happens under
// the router mutex, exactly like InferenceService).
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/fault.h"
#include "serve/service.h"

namespace yollo::serve {

// Consistent-hash ring with virtual nodes. Deterministic (no RNG): vnode
// positions are splitmix64 of (node, replica). Not thread-safe by itself;
// the Router mutates it only under its own mutex (and tests use it
// standalone).
class HashRing {
 public:
  explicit HashRing(int64_t vnodes_per_node = 64);

  void add_node(int64_t node);
  void remove_node(int64_t node);
  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }

  // Owner of `key_hash`: the first vnode at or clockwise after it. -1 when
  // the ring is empty.
  int64_t node_for(uint64_t key_hash) const;
  // Every distinct node in ring order starting at the owner — the failover
  // preference order for this key.
  std::vector<int64_t> walk(uint64_t key_hash) const;

  static uint64_t hash_key(const std::string& key);
  static uint64_t hash_bytes(const void* data, size_t len,
                             uint64_t seed = 0x9e3779b97f4a7c15ull);

 private:
  int64_t vnodes_;
  std::map<uint64_t, int64_t> ring_;  // vnode position -> node
  std::map<int64_t, int64_t> nodes_;  // node -> vnode count
};

struct RouterConfig {
  int64_t num_shards = 3;
  // Template for every shard's service; seed is offset per shard so replica
  // construction differs, and every shard gets its own FaultInjector.
  ServeConfig shard;
  int64_t vnodes = 64;
  // Router-level default deadline for requests that do not carry their own
  // (same semantics as ServeConfig::default_deadline_ms).
  int64_t default_deadline_ms = 0;

  // Shard drain and half-open probing.
  int64_t shard_failure_threshold = 3;  // consecutive router-visible
                                        // failures that trip a shard out
  int64_t drain_cooldown_ms = 20;   // min drained time before probing
  int64_t probe_interval_ms = 10;   // half-open: one probe per interval
};

struct RouteRequest {
  Tensor image;       // [3, img_h, img_w] matching the model's config
  std::string query;  // free text
  // Consistent-hash key. Empty derives a content hash from the image bytes
  // (same image -> same shard, the feature-cache locality the ROADMAP
  // wants); non-empty lets callers pin e.g. a gallery id.
  std::string image_id;
  int64_t deadline_ms = -1;  // < 0 router default, 0 none, > 0 from submit()
  std::chrono::steady_clock::time_point deadline_at{};  // overrides _ms
};

struct RouteResponse {
  Status status;
  vision::Box box;  // valid when status.ok()
  std::string normalised_query;
  double latency_ms = 0.0;  // router submit() to router completion
  int64_t shard = -1;       // shard that produced the answer
  // Re-routes this request consumed: a retryable shard answer (kOverloaded
  // / kInternalError / kResourceExhausted) moves the request to the next
  // untried shard on the ring while the deadline allows, each shard once.
  int64_t failovers = 0;
  int64_t retries = 0;      // answering shard's model-tier retries
};

// Flat view of the router registry ("router.*" names), derived from one
// coherent snapshot. Invariant once all submitted futures have resolved:
//   served + rejected + deadline_exceeded + failed == submitted.
struct RouterCounters {
  int64_t submitted = 0;
  int64_t served = 0;    // kOk answers
  int64_t rejected = 0;  // kInvalidInput + kOverloaded + kResourceExhausted
  int64_t deadline_exceeded = 0;
  int64_t failed = 0;
  int64_t hedges_launched = 0;  // always 0; last reader: bench_suite
  int64_t hedges_won = 0;       // always 0; last reader: bench_suite
  int64_t hedge_cancelled = 0;  // always 0; last reader: bench_suite
  int64_t failovers = 0;
  int64_t probes_sent = 0;
  int64_t probes_failed = 0;
  int64_t shards_drained = 0;   // rotations out (drain events)
  int64_t shards_restored = 0;  // successful probes back to active
};

enum class ShardState { kActive, kDraining, kProbing };
const char* shard_state_name(ShardState state);

struct ShardHealth {
  int64_t id = -1;
  ShardState state = ShardState::kActive;
  int64_t outstanding = 0;  // attempts dispatched and not yet settled
  int64_t consecutive_failures = 0;
};

struct RouterHealth {
  bool accepting = false;
  int64_t in_rotation = 0;  // shards currently kActive
  std::vector<ShardHealth> shards;
  RouterCounters counters;
};

class Router {
 public:
  // `model` is copied into every shard's replica set. `vocab` must outlive
  // the router.
  Router(core::YolloModel& model, const data::Vocab& vocab,
         const RouterConfig& config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Route, then fail over. The returned future always resolves with a
  // typed RouteResponse — never an exception, never a hang, including
  // during shutdown and shard failure.
  std::future<RouteResponse> submit(RouteRequest request);

  // submit() + wait.
  RouteResponse route(RouteRequest request);

  // Stop admission, resolve every in-flight request, stop the shards.
  // Idempotent; also called by the destructor.
  void stop();

  // --- introspection / chaos hooks ----------------------------------------
  int64_t num_shards() const;
  InferenceService& shard(int64_t i);
  // The shard's own scoped injector (the process-wide one never reaches
  // shard workers).
  runtime::FaultInjector* shard_injector(int64_t i);
  // Chaos: take the shard out of rotation, then stop() its service. Its
  // keys go to the ring successors; in-flight requests on the shard are
  // still answered (stop drains) or failed over. A stopped shard refuses
  // every probe, so it never comes back.
  void kill_shard(int64_t i);

  // The hash key submit() would use for this request, and the shard the
  // ring currently owns it to (ignores health; tests pin placement).
  static uint64_t key_for(const RouteRequest& request);
  int64_t ring_owner(uint64_t key_hash) const;

  // Coherent accounting reads (same contract as InferenceService: the
  // taxonomy is only ever updated under the router mutex the snapshot
  // takes).
  RouterCounters counters() const;
  RouterHealth health() const;
  // The router's own metrics plus the fleet's memory gauges
  // (serve.arena_bytes, serve.pool_bytes: each shard's, summed).
  obs::MetricsSnapshot metrics_snapshot() const;

  const RouterConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  // One request across all its attempts. Shared by the completion of its
  // one attempt in flight, which either finishes it or fails it over.
  struct Job {
    uint64_t key_hash = 0;
    Tensor image;
    std::string query;
    Clock::time_point submitted_at;
    Clock::time_point deadline;  // Clock::time_point::max() == none
    std::vector<int64_t> tried;
    std::promise<RouteResponse> promise;
    int64_t failovers = 0;
    GroundResponse last_failure;  // best terminal answer if all routes fail
  };

  struct ShardEntry {
    std::unique_ptr<runtime::FaultInjector> injector;
    std::unique_ptr<InferenceService> service;
    ShardState state = ShardState::kActive;
    int64_t outstanding = 0;  // attempts dispatched, not yet settled
    int64_t consecutive_failures = 0;
    Clock::time_point drained_at{};
    Clock::time_point next_probe_at{};
  };

  // Routing decision for one request/failover: shard id (-1 = none) and
  // whether the pick is a half-open probe. Caller holds mutex_; a drained
  // shard the walk passes may be reopened (router -> shard lock order).
  struct Pick {
    int64_t shard = -1;
    bool probe = false;
  };
  Pick pick_shard(uint64_t key_hash, const std::vector<int64_t>& tried,
                  Clock::time_point now);

  // Submits the job to `pick.shard` as its one attempt (image storage is
  // shared, not copied); the shard's completion runs advance_job. Called
  // WITHOUT mutex_ held: shard admission validates O(pixels) and takes the
  // shard lock, and a refusal runs the completion on this thread.
  void dispatch(const std::shared_ptr<Job>& job, Pick pick);

  // The completion of `job`'s attempt on `pick.shard`: shard feedback, then
  // finish the job or fail it over to the next untried shard.
  void advance_job(const std::shared_ptr<Job>& job, Pick pick,
                   GroundResponse response);
  // Terminal accounting + promise resolution. Takes mutex_.
  void finish_job(Job& job, GroundResponse response, int64_t shard);
  // Shard outcome feedback (mutex_ held): failure streaks trip the shard
  // out of rotation; probe results close or re-open the half-open state.
  void note_shard_result(int64_t shard, bool retryable_failure, bool probe,
                         bool probe_ok);
  // Out of rotation (mutex_ held): DRAINING, admission paused, counted.
  void drain_locked(ShardEntry& entry, Clock::time_point now);

  static Clock::time_point resolve_deadline(const RouteRequest& request,
                                            int64_t default_ms,
                                            Clock::time_point now);

  RouterConfig config_;
  const data::Vocab* vocab_;
  std::vector<ShardEntry> shards_;

  mutable std::mutex mutex_;  // ring, shard states, counters
  HashRing ring_;
  bool accepting_ = true;

  // Router registry; taxonomy counters only updated under mutex_ (coherent
  // snapshots).
  obs::MetricsRegistry metrics_;
  obs::Counter& c_submitted_;
  obs::Counter& c_served_;
  obs::Counter& c_rejected_;
  obs::Counter& c_deadline_exceeded_;
  obs::Counter& c_failed_;
  obs::Counter& c_failovers_;
  obs::Counter& c_probes_sent_;
  obs::Counter& c_probes_failed_;
  obs::Counter& c_shards_drained_;
  obs::Counter& c_shards_restored_;
  obs::Histogram& h_latency_ms_;
};

// Flatten a router metrics snapshot ("router.*" names) into the flat
// counter struct; the invariant holds for the struct whenever it held for
// the snapshot.
RouterCounters router_counters_from_snapshot(
    const obs::MetricsSnapshot& snapshot);

}  // namespace yollo::serve
