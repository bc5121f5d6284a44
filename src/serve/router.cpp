#include "serve/router.h"

#include <algorithm>
#include <cstring>

#include "obs/trace.h"

namespace yollo::serve {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Failure precedence when every route has failed: the most truthful code
// wins. An invalid input can never be served anywhere; a deadline miss is
// more informative than which shard happened to be overloaded.
int failure_precedence(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidInput:
      return 6;
    case StatusCode::kDeadlineExceeded:
      return 5;
    case StatusCode::kCancelled:
      return 4;
    case StatusCode::kInternalError:
      return 3;
    case StatusCode::kResourceExhausted:
      return 2;
    case StatusCode::kOverloaded:
      return 1;
    default:
      return 0;
  }
}

// An ACTIVE shard keeps its own keys while it scores at least this: its
// load score 1 - 0.5 * min(1, outstanding / queue_capacity) stays here up
// to half a queue of unsettled attempts. Below it, a less loaded successor
// takes the request.
constexpr double kSoftScore = 0.75;

bool retryable(StatusCode code) {
  // kResourceExhausted is shard-local memory pressure: another shard's
  // worker pools may well have the headroom. kCancelled is not retried —
  // a cancel is a supervision verdict on this request, not shard
  // happenstance.
  return code == StatusCode::kOverloaded ||
         code == StatusCode::kInternalError ||
         code == StatusCode::kResourceExhausted;
}

}  // namespace

// --- HashRing ----------------------------------------------------------------

HashRing::HashRing(int64_t vnodes_per_node)
    : vnodes_(std::max<int64_t>(1, vnodes_per_node)) {}

void HashRing::add_node(int64_t node) {
  if (nodes_.count(node) != 0) return;
  int64_t placed = 0;
  for (int64_t v = 0; placed < vnodes_; ++v) {
    const uint64_t pos =
        splitmix64(splitmix64(static_cast<uint64_t>(node) ^
                              0xdeadbeefcafef00dull) ^
                   static_cast<uint64_t>(v));
    // A position collision would silently evict another node's vnode;
    // perturbing v (the loop) finds a free slot instead.
    if (ring_.emplace(pos, node).second) ++placed;
  }
  nodes_[node] = vnodes_;
}

void HashRing::remove_node(int64_t node) {
  if (nodes_.erase(node) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == node ? ring_.erase(it) : std::next(it);
  }
}

int64_t HashRing::node_for(uint64_t key_hash) const {
  if (ring_.empty()) return -1;
  auto it = ring_.lower_bound(key_hash);
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::vector<int64_t> HashRing::walk(uint64_t key_hash) const {
  std::vector<int64_t> order;
  if (ring_.empty()) return order;
  order.reserve(nodes_.size());
  auto it = ring_.lower_bound(key_hash);
  for (size_t steps = 0; steps < ring_.size() &&
                         order.size() < nodes_.size();
       ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(order.begin(), order.end(), it->second) == order.end()) {
      order.push_back(it->second);
    }
    ++it;
  }
  return order;
}

uint64_t HashRing::hash_key(const std::string& key) {
  return hash_bytes(key.data(), key.size());
}

uint64_t HashRing::hash_bytes(const void* data, size_t len, uint64_t seed) {
  // FNV-1a over the bytes, finalised through splitmix64 for avalanche.
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<uint64_t>(p[i]);
    h *= 0x100000001b3ull;
  }
  return splitmix64(h);
}

// --- Router ------------------------------------------------------------------

const char* shard_state_name(ShardState state) {
  switch (state) {
    case ShardState::kActive:
      return "ACTIVE";
    case ShardState::kDraining:
      return "DRAINING";
    case ShardState::kProbing:
      return "PROBING";
  }
  return "?";
}

Router::Router(core::YolloModel& model, const data::Vocab& vocab,
               const RouterConfig& config)
    : config_(config),
      vocab_(&vocab),
      ring_(std::max<int64_t>(1, config.vnodes)),
      c_submitted_(metrics_.counter("router.submitted")),
      c_served_(metrics_.counter("router.served")),
      c_rejected_(metrics_.counter("router.rejected")),
      c_deadline_exceeded_(metrics_.counter("router.deadline_exceeded")),
      c_failed_(metrics_.counter("router.failed")),
      c_failovers_(metrics_.counter("router.failovers")),
      c_probes_sent_(metrics_.counter("router.probes_sent")),
      c_probes_failed_(metrics_.counter("router.probes_failed")),
      c_shards_drained_(metrics_.counter("router.shards_drained")),
      c_shards_restored_(metrics_.counter("router.shards_restored")),
      h_latency_ms_(
          metrics_.histogram("router.latency_ms", obs::latency_ms_bounds())) {
  config_.num_shards = std::max<int64_t>(1, config_.num_shards);
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  // One Program set for the whole fleet, compiled here before any shard
  // starts: every shard's workers execute the same instances.
  const plan::ProgramSet programs =
      InferenceService::compile_programs(model, vocab, config_.shard);
  for (int64_t i = 0; i < config_.num_shards; ++i) {
    ShardEntry entry;
    ServeConfig sc = config_.shard;
    // Distinct replica-construction seeds per shard; identical weights are
    // copied in from `model` regardless.
    sc.seed = config_.shard.seed + static_cast<uint64_t>(i) * 7919u;
    entry.injector = std::make_unique<runtime::FaultInjector>();
    sc.fault_injector = entry.injector.get();
    entry.service =
        std::make_unique<InferenceService>(model, vocab, sc, programs);
    shards_.push_back(std::move(entry));
    ring_.add_node(i);
  }
}

Router::~Router() { stop(); }

Router::Clock::time_point Router::resolve_deadline(const RouteRequest& request,
                                                   int64_t default_ms,
                                                   Clock::time_point now) {
  if (request.deadline_at != Clock::time_point{}) return request.deadline_at;
  const int64_t ms =
      request.deadline_ms >= 0 ? request.deadline_ms : default_ms;
  if (ms <= 0) return Clock::time_point::max();
  return now + std::chrono::milliseconds(ms);
}

uint64_t Router::key_for(const RouteRequest& request) {
  if (!request.image_id.empty()) return HashRing::hash_key(request.image_id);
  if (!request.image.defined()) return 0;
  // Content hash: same image -> same shard (feature locality). A bounded
  // prefix keeps admission O(1)-ish; the pixel count disambiguates shapes.
  const size_t bytes = static_cast<size_t>(
      std::min<int64_t>(request.image.numel(), 4096) *
      static_cast<int64_t>(sizeof(float)));
  return HashRing::hash_bytes(request.image.data(), bytes,
                              static_cast<uint64_t>(request.image.numel()));
}

int64_t Router::ring_owner(uint64_t key_hash) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.node_for(key_hash);
}

Router::Pick Router::pick_shard(uint64_t key_hash,
                                const std::vector<int64_t>& tried,
                                Clock::time_point now) {
  // Ring order from the key's owner, so locality is preserved whenever the
  // owner is healthy. Weighted routing: an ACTIVE shard below kSoftScore
  // (more than half a queue of unsettled attempts) only keeps the request
  // if no later candidate scores higher. A PROBING shard owns its half-open
  // trickle: one request per probe interval, only for keys it would own.
  Pick soft;
  double soft_best = -1.0;
  for (const int64_t id : ring_.walk(key_hash)) {
    if (std::find(tried.begin(), tried.end(), id) != tried.end()) continue;
    ShardEntry& entry = shards_[static_cast<size_t>(id)];
    if (entry.state == ShardState::kDraining && entry.outstanding == 0 &&
        now - entry.drained_at >=
            std::chrono::milliseconds(config_.drain_cooldown_ms)) {
      // Cooled and settled: reopen it half-open. A stop()ped shard refuses,
      // and is asked again only after another cooldown.
      if (entry.service->resume_admission()) {
        entry.state = ShardState::kProbing;
        entry.next_probe_at = now;
      } else {
        entry.drained_at = now;
      }
    }
    if (entry.state == ShardState::kActive) {
      // The service clamps queue_capacity to at least 1.
      const double capacity =
          static_cast<double>(entry.service->config().queue_capacity);
      const double score =
          1.0 - 0.5 * std::min(1.0, static_cast<double>(entry.outstanding) /
                                        capacity);
      if (score >= kSoftScore) return Pick{id, false};
      if (score > soft_best) {
        soft_best = score;
        soft = Pick{id, false};
      }
    } else if (entry.state == ShardState::kProbing &&
               now >= entry.next_probe_at) {
      entry.next_probe_at =
          now + std::chrono::milliseconds(config_.probe_interval_ms);
      return Pick{id, true};
    }
  }
  return soft;
}

void Router::dispatch(const std::shared_ptr<Job>& job, Pick pick) {
  GroundRequest request;
  request.image = job->image;  // storage is shared, not copied
  request.query = job->query;
  if (job->deadline == Clock::time_point::max()) {
    request.deadline_ms = 0;  // explicitly none (ignore the shard default)
  } else {
    request.deadline_at = job->deadline;
  }
  // Recorded before the submit: a refusal runs the completion, and with it
  // any further failover, before submit() returns. From here on the job
  // belongs to the completion, which may already be running elsewhere.
  job->tried.push_back(pick.shard);
  shards_[static_cast<size_t>(pick.shard)].service->submit(
      std::move(request), [this, job, pick](GroundResponse response) {
        advance_job(job, pick, std::move(response));
      });
}

std::future<RouteResponse> Router::submit(RouteRequest request) {
  OBS_SPAN("router.submit");
  const Clock::time_point now = Clock::now();
  const uint64_t key = key_for(request);

  auto job = std::make_shared<Job>();
  job->key_hash = key;
  job->image = std::move(request.image);
  job->query = std::move(request.query);
  job->submitted_at = now;
  job->deadline = resolve_deadline(request, config_.default_deadline_ms, now);
  // Taken before the first dispatch, which may settle the job.
  std::future<RouteResponse> future = job->promise.get_future();

  Pick pick;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    c_submitted_.inc();

    const auto reject_now = [&](Status status) {
      RouteResponse response;
      response.status = std::move(status);
      response.latency_ms = ms_since(now);
      switch (response.status.code) {
        case StatusCode::kDeadlineExceeded:
          c_deadline_exceeded_.inc();
          break;
        default:
          c_rejected_.inc();
          break;
      }
      job->promise.set_value(std::move(response));
      return std::move(future);
    };

    if (!accepting_) {
      return reject_now(Status::overloaded("router is stopped"));
    }
    if (job->deadline <= now) {
      return reject_now(
          Status::deadline_exceeded("deadline had already expired at routing"));
    }
    pick = pick_shard(key, job->tried, now);
    if (pick.shard < 0) {
      return reject_now(Status::overloaded("no shard in rotation"));
    }
    ++shards_[static_cast<size_t>(pick.shard)].outstanding;
    if (pick.probe) c_probes_sent_.inc();
  }

  // Shard admission (O(pixels) validation, shard lock) happens outside the
  // router mutex so concurrent submitters do not serialise on it.
  dispatch(job, pick);
  return future;
}

RouteResponse Router::route(RouteRequest request) {
  return submit(std::move(request)).get();
}

void Router::drain_locked(ShardEntry& entry, Clock::time_point now) {
  entry.state = ShardState::kDraining;
  entry.drained_at = now;
  c_shards_drained_.inc();
  entry.service->pause_admission();
}

void Router::note_shard_result(int64_t shard, bool retryable_failure,
                               bool probe, bool probe_ok) {
  ShardEntry& entry = shards_[static_cast<size_t>(shard)];
  const Clock::time_point now = Clock::now();
  if (probe) {
    if (probe_ok) {
      if (entry.state == ShardState::kProbing) {
        entry.state = ShardState::kActive;
        c_shards_restored_.inc();
      }
      entry.consecutive_failures = 0;
    } else {
      c_probes_failed_.inc();
      // Half-open contract: one failed probe re-drains immediately.
      if (entry.state == ShardState::kProbing) drain_locked(entry, now);
    }
    return;
  }
  if (retryable_failure) {
    ++entry.consecutive_failures;
    if (entry.state == ShardState::kActive &&
        entry.consecutive_failures >= config_.shard_failure_threshold) {
      drain_locked(entry, now);
    }
  } else {
    entry.consecutive_failures = 0;
  }
}

void Router::finish_job(Job& job, GroundResponse response, int64_t shard) {
  RouteResponse out;
  out.status = std::move(response.status);
  out.box = response.box;
  out.normalised_query = std::move(response.normalised_query);
  out.retries = response.retries;
  out.shard = shard;
  out.failovers = job.failovers;
  out.latency_ms = ms_since(job.submitted_at);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    h_latency_ms_.observe(out.latency_ms);
    switch (out.status.code) {
      case StatusCode::kOk:
        c_served_.inc();
        break;
      case StatusCode::kInvalidInput:
      case StatusCode::kOverloaded:
        c_rejected_.inc();
        break;
      case StatusCode::kResourceExhausted:
        // Shed under memory pressure on every tried shard: a rejection,
        // keeping the four-term router invariant intact.
        c_rejected_.inc();
        break;
      case StatusCode::kDeadlineExceeded:
        c_deadline_exceeded_.inc();
        break;
      case StatusCode::kInternalError:
      case StatusCode::kCancelled:
        // A terminal shard-level cancel the router did not ask for (e.g. a
        // watchdog kick): the request died inside the serving stack.
        c_failed_.inc();
        break;
    }
  }
  job.promise.set_value(std::move(out));
}

void Router::advance_job(const std::shared_ptr<Job>& job, Pick pick,
                         GroundResponse response) {
  const StatusCode code = response.status.code;
  if (code == StatusCode::kInvalidInput) {
    // The request itself is malformed; no shard can do better.
    finish_job(*job, std::move(response), pick.shard);
    return;
  }
  const bool ok = response.status.ok();
  if (!ok && failure_precedence(code) >
                 failure_precedence(job->last_failure.status.code)) {
    job->last_failure = std::move(response);
  }

  const Clock::time_point now = Clock::now();
  Pick next;
  {
    // A probe closes the half-open state only on a kOk answer. Only
    // kInternalError feeds the shard's failure streak: kOverloaded is
    // backpressure, not sickness — evicting a busy shard during a load
    // spike shrinks capacity exactly when it is scarcest (the load score
    // already steers requests away from a shard with a deep backlog).
    std::lock_guard<std::mutex> lock(mutex_);
    --shards_[static_cast<size_t>(pick.shard)].outstanding;
    note_shard_result(pick.shard, code == StatusCode::kInternalError,
                      pick.probe, ok);
    // Fail over while the deadline and the ring allow — each shard is
    // tried at most once, so a request fails over at most num_shards - 1
    // times; otherwise answer with the most truthful failure seen.
    if (!ok && now < job->deadline &&
        retryable(job->last_failure.status.code)) {
      next = pick_shard(job->key_hash, job->tried, now);
      if (next.shard >= 0) {
        ++shards_[static_cast<size_t>(next.shard)].outstanding;
        c_failovers_.inc();
        if (next.probe) c_probes_sent_.inc();
      }
    }
  }
  if (ok) {
    finish_job(*job, std::move(response), pick.shard);
    return;
  }
  if (next.shard >= 0) {
    ++job->failovers;
    dispatch(job, next);
    return;
  }
  GroundResponse final = std::move(job->last_failure);
  if (now >= job->deadline &&
      final.status.code != StatusCode::kDeadlineExceeded) {
    final.status =
        Status::deadline_exceeded("deadline expired during failover");
  }
  finish_job(*job, std::move(final), -1);
}

void Router::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
  }
  // A shard's stop() drains its queue and runs every completion before it
  // returns. A failover out of a draining shard lands in a shard not yet
  // stopped, which drains it in turn, or is refused at once by one already
  // stopped; so once the last shard has stopped, every job has settled.
  for (ShardEntry& entry : shards_) {
    if (entry.service) entry.service->stop();
  }
}

int64_t Router::num_shards() const {
  return static_cast<int64_t>(shards_.size());
}

InferenceService& Router::shard(int64_t i) {
  return *shards_[static_cast<size_t>(i)].service;
}

runtime::FaultInjector* Router::shard_injector(int64_t i) {
  return shards_[static_cast<size_t>(i)].injector.get();
}

void Router::kill_shard(int64_t i) {
  ShardEntry& entry = shards_[static_cast<size_t>(i)];
  const auto drain = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entry.state == ShardState::kDraining) return;
    drain_locked(entry, Clock::now());
  };
  // Out of rotation first, so no new attempt is routed to a dying shard.
  // stop() runs with no router lock held: it joins workers whose
  // completions take mutex_. Its drain still answers every queued request,
  // and attempts it refuses fail over.
  drain();
  entry.service->stop();
  // A probe that reopened the shard between the two steps may have been
  // answered by the drain and restored it; a stopped shard stays out.
  drain();
}

obs::MetricsSnapshot Router::metrics_snapshot() const {
  obs::MetricsSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = metrics_.snapshot();
  }
  // Fleet memory: the shards' per-service memory gauges, summed.
  double arena = 0.0;
  double pool = 0.0;
  for (const ShardEntry& entry : shards_) {
    if (!entry.service) continue;
    const obs::MetricsSnapshot shard = entry.service->metrics_snapshot();
    arena += shard.gauge("serve.arena_bytes");
    pool += shard.gauge("serve.pool_bytes");
  }
  snapshot.gauges["serve.arena_bytes"] = arena;
  snapshot.gauges["serve.pool_bytes"] = pool;
  return snapshot;
}

RouterCounters Router::counters() const {
  return router_counters_from_snapshot(metrics_snapshot());
}

RouterHealth Router::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RouterHealth health;
  health.accepting = accepting_;
  health.counters = router_counters_from_snapshot(metrics_.snapshot());
  health.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardEntry& entry = shards_[i];
    ShardHealth info;
    info.id = static_cast<int64_t>(i);
    info.state = entry.state;
    info.outstanding = entry.outstanding;
    info.consecutive_failures = entry.consecutive_failures;
    if (entry.state == ShardState::kActive) ++health.in_rotation;
    health.shards.push_back(info);
  }
  return health;
}

RouterCounters router_counters_from_snapshot(
    const obs::MetricsSnapshot& snapshot) {
  RouterCounters c;
  c.submitted = snapshot.counter("router.submitted");
  c.served = snapshot.counter("router.served");
  c.rejected = snapshot.counter("router.rejected");
  c.deadline_exceeded = snapshot.counter("router.deadline_exceeded");
  c.failed = snapshot.counter("router.failed");
  c.failovers = snapshot.counter("router.failovers");
  c.probes_sent = snapshot.counter("router.probes_sent");
  c.probes_failed = snapshot.counter("router.probes_failed");
  c.shards_drained = snapshot.counter("router.shards_drained");
  c.shards_restored = snapshot.counter("router.shards_restored");
  return c;
}

}  // namespace yollo::serve
