#include "core/yollo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "autograd/trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "runtime/fault.h"
#include "tensor/arena.h"
#include "tensor/exec.h"
#include "tensor/kernels.h"
#include "tensor/pool.h"

namespace yollo::core {

namespace {

// The backbone consumes RGB + 2 CoordConv channels (see forward()).
vision::BackboneConfig with_coord_channels(vision::BackboneConfig cfg) {
  cfg.in_channels = 5;
  return cfg;
}

}  // namespace

YolloModel::YolloModel(const YolloConfig& config, int64_t vocab_size, Rng& rng)
    : config_(config),
      backbone_(with_coord_channels(config.backbone), rng),
      word_emb_(vocab_size, config.word_dim, rng),
      text_norm_(config.word_dim),
      // +1: the softmaxed attention map rides along as an explicit channel
      // (Fig. 3: the head "simply assigns a larger confidence score to the
      // anchor with larger grid values").
      head_(config_, config.backbone.out_channels() + 1, rng) {
  register_module("backbone", backbone_);
  register_module("word_emb", word_emb_);
  register_module("text_norm", text_norm_);
  pos_emb_ = ag::Variable::param(nn::embedding_init(
      {config.max_query_len, config.word_dim}, rng, 0.05f));
  register_parameter("pos_emb", pos_emb_);
  for (int64_t i = 0; i < config.num_rel2att; ++i) {
    rel2att_.push_back(std::make_unique<Rel2Att>(
        config_, config.backbone.out_channels(), config.word_dim, rng));
    register_module("rel2att" + std::to_string(i), *rel2att_.back());
  }
  register_module("head", head_);
}

void YolloModel::init_word_embeddings(const Tensor& embeddings) {
  if (embeddings.shape() != word_emb_.weight.shape()) {
    throw std::invalid_argument(
        "init_word_embeddings: shape mismatch, expected " +
        shape_to_string(word_emb_.weight.shape()) + " got " +
        shape_to_string(embeddings.shape()));
  }
  word_emb_.weight.value().copy_from(embeddings);
  weights_generation_.fetch_add(1, std::memory_order_acq_rel);
}

YolloModel::Output YolloModel::forward(const Tensor& images,
                                       const std::vector<int64_t>& tokens) {
  const int64_t b = images.size(0);
  const int64_t n = config_.max_query_len;
  if (static_cast<int64_t>(tokens.size()) != b * n) {
    throw std::invalid_argument("YolloModel::forward: token count " +
                                std::to_string(tokens.size()) + " != B*n = " +
                                std::to_string(b * n));
  }
  return fuse_features(encode_images(images), tokens);
}

ag::Variable YolloModel::encode_images(const Tensor& images) {
  const int64_t b = images.size(0);

  // §3.1 feature encoder — image side: dense grid features. Two normalised
  // coordinate channels ride along with the RGB input (CoordConv): location
  // words ("left", "top") are frequent in the queries, and a shallow
  // scratch-trained backbone otherwise carries almost no absolute-position
  // signal (the paper's deep pretrained C4 features get it from context).
  const int64_t ih = images.size(2);
  const int64_t iw = images.size(3);
  Tensor with_coords = Tensor::uninitialized({b, 5, ih, iw});
  kernels::fill_coord_channels(images.data(), with_coords.data(), b, ih, iw);
  // The plan prologue refills this slot per execution with the same kernel.
  ag::trace::note_input("with_coords", with_coords);
  return backbone_.forward(ag::Variable::constant(with_coords));
}

YolloModel::Output YolloModel::fuse_features(
    const ag::Variable& feat, const std::vector<int64_t>& tokens) {
  const int64_t b = feat.size(0);
  const int64_t n = config_.max_query_len;
  const int64_t m = config_.num_regions();
  const int64_t c = config_.backbone.out_channels();
  ag::Variable v = ag::transpose(ag::reshape(feat, {b, c, m}), 1, 2);

  // §3.1 feature encoder — text side: word + absolute position embeddings.
  ag::Variable words = word_emb_.forward(tokens);               // [B*n, d]
  words = ag::reshape(words, {b, n, config_.word_dim});
  ag::Variable t =
      text_norm_.forward(ag::add(words, pos_emb_));  // pos broadcasts over batch

  // PAD-validity mask shared by the whole Rel2Att stack (0 == Vocab::kPad).
  Tensor pair_mask = Tensor::uninitialized({b, m + n, m + n});
  kernels::fill_pair_mask(tokens.data(), b, m, n, pair_mask.data());
  ag::trace::note_input("pair_mask", pair_mask);

  // §3.2: stacked Rel2Att modules.
  Output out;
  for (size_t i = 0; i < rel2att_.size(); ++i) {
    Rel2Att::Output r = rel2att_[i]->forward(v, t, pair_mask);
    v = r.v;
    t = r.t;
    out.att_v = r.att_v;  // the last module's image attention
    out.att_v_all.push_back(r.att_v);
  }

  // Reconstruct the attended feature map M~, append the softmaxed attention
  // as one extra channel, and run the detection network.
  ag::Variable m_tilde =
      ag::reshape(ag::transpose(v, 1, 2), {b, c, config_.grid_h(),
                                           config_.grid_w()});
  ag::Variable att_plane = ag::reshape(
      ag::mul_scalar(ag::softmax(out.att_v, 1), static_cast<float>(m)),
      {b, 1, config_.grid_h(), config_.grid_w()});
  m_tilde = ag::concat({m_tilde, att_plane}, 1);
  DetectionHead::Output head_out = head_.forward(m_tilde);
  out.scores = head_out.scores;
  out.deltas = head_out.deltas;
  out.feat = feat;
  return out;
}

YolloModel::Losses YolloModel::compute_loss(
    const Output& out, const std::vector<vision::Box>& targets, Rng& rng) {
  const int64_t b = out.scores.size(0);
  const int64_t m = config_.num_regions();

  // Eq. (6): attention-mask loss against the scaled ground-truth box.
  Tensor gt_masks({b, m});
  for (int64_t bi = 0; bi < b; ++bi) {
    const Tensor row =
        make_gt_mask(targets[static_cast<size_t>(bi)], config_.grid_h(),
                     config_.grid_w(), config_.backbone.stride());
    std::copy(row.data(), row.data() + m, gt_masks.data() + bi * m);
  }

  // Eq. (6) applied to every stacked module's attention (deep supervision).
  Losses losses;
  losses.att = attention_loss(out.att_v_all[0], gt_masks);
  for (size_t i = 1; i < out.att_v_all.size(); ++i) {
    losses.att = ag::add(losses.att, attention_loss(out.att_v_all[i], gt_masks));
  }
  losses.att = ag::mul_scalar(
      losses.att, 1.0f / static_cast<float>(out.att_v_all.size()));

  // Eqs. (7)-(8): detection losses over sampled anchors.
  DetectionHead::Output head_out{out.scores, out.deltas};
  const DetectionLoss det =
      detection_loss(head_out, head_.anchors(), targets, config_, rng);
  losses.cls = det.cls;
  losses.reg = det.reg;

  // Eq. (9): L = L_att + L_cls + lambda * L_reg.
  losses.total = ag::add(
      losses.att,
      ag::add(losses.cls, ag::mul_scalar(losses.reg, config_.lambda_reg)));
  return losses;
}

YolloModel::ForwardDecode YolloModel::forward_and_decode(
    const Tensor& images, const std::vector<int64_t>& tokens,
    bool apply_fault_hooks, bool capture_features) {
  if (yollo::plan::enabled()) {
    if (std::shared_ptr<const yollo::plan::Program> p =
            planned_for(images, tokens)) {
      PlannedRun run = run_program(*p, images, tokens);
      if (run) {
        // Arena-backed views of the outputs. Decode happens while the run
        // holds the arena — another thread executing would overwrite it.
        Output out;
        out.scores = ag::Variable::constant(Tensor::from_external(
            p->scores_shape(), const_cast<float*>(run.scores), run.arena));
        out.deltas = ag::Variable::constant(Tensor::from_external(
            p->deltas_shape(), const_cast<float*>(run.deltas), run.arena));
        ForwardDecode fd = decode_and_scan(out, images.size(3), images.size(2),
                                           apply_fault_hooks);
        if (capture_features && run.features != nullptr) {
          // Clone while the arena is held, for the same reason.
          fd.features =
              Tensor::from_external(p->features_shape(),
                                    const_cast<float*>(run.features),
                                    run.arena)
                  .clone();
        }
        return fd;
      }
      if (run.busy) {
        {
          std::lock_guard<std::mutex> lk(plan_mu_);
          ++plan_stats_.fallbacks;
        }
        static obs::Counter& fallbacks =
            obs::MetricsRegistry::global().counter("plan.fallbacks");
        fallbacks.inc();
      }
    }
  }
  Output out = forward(images, tokens);
  ForwardDecode fd =
      decode_and_scan(out, images.size(3), images.size(2), apply_fault_hooks);
  if (capture_features) fd.features = out.feat.value().clone();
  return fd;
}

YolloModel::ForwardDecode YolloModel::decode_and_scan(Output& out,
                                                      int64_t img_w,
                                                      int64_t img_h,
                                                      bool apply_fault_hooks) {
  ForwardDecode fd;
  if (apply_fault_hooks &&
      runtime::FaultInjector::active().take_poison_forward()) {
    // Stand-in for silently corrupted activations: the finiteness scan
    // below must catch this, never the caller. Only the last batch element
    // is poisoned — real corruption hits activations, not whole batches —
    // which also exercises the per-element isolation contract. For a batch
    // of one (the single-image path) this poisons the entire output.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const int64_t last = out.scores.size(0) - 1;
    Tensor& scores = out.scores.value();
    Tensor& deltas = out.deltas.value();
    const int64_t srow = scores.numel() / scores.size(0);
    const int64_t drow = deltas.numel() / deltas.size(0);
    std::fill(scores.data() + last * srow, scores.data() + (last + 1) * srow,
              nan);
    std::fill(deltas.data() + last * drow, deltas.data() + (last + 1) * drow,
              nan);
  }

  const int64_t b = out.scores.size(0);
  const int64_t a = out.scores.size(1);
  DetectionHead::Output head_out{out.scores, out.deltas};
  std::vector<vision::Box> decoded =
      decode_top1(head_out, head_.anchors(), config_);

  // Per-element verdicts: one element's non-finite activations or box must
  // never fail its batch mates (micro-batching relies on this isolation).
  fd.element_errors.assign(static_cast<size_t>(b), InferError::kNone);
  fd.boxes.assign(static_cast<size_t>(b), vision::Box{});
  const float* scores = out.scores.value().data();
  int64_t bad = 0;
  for (int64_t e = 0; e < b; ++e) {
    bool finite = true;
    for (int64_t i = 0; i < a && finite; ++i) {
      finite = std::isfinite(scores[e * a + i]);
    }
    const vision::Box& box = decoded[static_cast<size_t>(e)];
    finite = finite && std::isfinite(box.x) && std::isfinite(box.y) &&
             std::isfinite(box.w) && std::isfinite(box.h);
    if (!finite) {
      fd.element_errors[static_cast<size_t>(e)] = InferError::kNonFinite;
      ++bad;
      continue;
    }
    // decode_top1 clips against the config; re-clip against the actual
    // image so the invariant is local and survives refactors upstream.
    fd.boxes[static_cast<size_t>(e)] = vision::clip_box(
        box, static_cast<float>(img_w), static_cast<float>(img_h));
  }
  if (bad > 0) {
    fd.error = InferError::kNonFinite;
    fd.message = "non-finite activations or boxes in " + std::to_string(bad) +
                 " of " + std::to_string(b) + " batch elements";
  }
  return fd;
}

std::shared_ptr<const yollo::plan::Program> YolloModel::record_program(
    const Tensor& images, const std::vector<int64_t>& tokens,
    std::string* why) {
  OBS_SPAN("plan.record");
  // A recording keeps every intermediate alive until it compiles. Parked in
  // the caller's pool (a serve worker's lives as long as the worker) those
  // one-off buffers would stay resident for good; outside it they return
  // to the allocator.
  PoolSuspend no_pool;
  yollo::plan::Recorder rec;
  rec.set_tokens(tokens);
  Output out;
  {
    // Record one ordinary grad-free forward; the hooks in autograd see
    // every op. Callers have NoGradGuard + EvalModeGuard installed.
    ag::trace::Scope scope(&rec);
    out = forward(images, tokens);
  }
  // Features ride along as a third output so serving can populate the
  // feature cache straight from the arena — no second forward, no dynamic
  // fallback just to capture them.
  return rec.compile(out.scores.value(), out.deltas.value(), why,
                     &out.feat.value());
}

std::shared_ptr<const yollo::plan::Program> YolloModel::planned_for(
    const Tensor& images, const std::vector<int64_t>& tokens) {
  constexpr size_t kMaxPlanEntries = 16;
  static obs::Counter& hits =
      obs::MetricsRegistry::global().counter("plan.cache_hits");
  static obs::Counter& misses =
      obs::MetricsRegistry::global().counter("plan.cache_misses");

  const int64_t b = images.size(0);
  std::unique_lock<std::mutex> lk(plan_mu_);
  auto it = plan_cache_.find(b);
  if (it == plan_cache_.end()) {
    if (plan_cache_.size() >= kMaxPlanEntries) {
      // Bound the cache: evict the first idle entry. Entries mid-build are
      // never erased (the builder holds a reference across the unlock).
      auto victim = plan_cache_.end();
      for (auto c = plan_cache_.begin(); c != plan_cache_.end(); ++c) {
        if (!c->second.building) {
          victim = c;
          break;
        }
      }
      if (victim == plan_cache_.end()) return nullptr;
      plan_cache_.erase(victim);
    }
    it = plan_cache_.emplace(b, PlanEntry{}).first;
  }
  PlanEntry& e = it->second;
  if (e.program) {
    ++plan_stats_.hits;
    hits.inc();
    return e.program;
  }
  // Concurrent miss: dynamic, non-blocking. Unplannable traces stay failed.
  if (e.building || e.failed) return nullptr;
  ++plan_stats_.misses;
  misses.inc();
  e.building = true;
  lk.unlock();

  std::shared_ptr<const yollo::plan::Program> built;
  try {
    std::string why;
    built = record_program(images, tokens, &why);
  } catch (...) {
    // Cancellation or a fault mid-recording: leave the entry clean so the
    // next request retries the build.
    lk.lock();
    e.building = false;
    throw;
  }
  lk.lock();
  e.building = false;
  if (!built) {
    e.failed = true;
    return nullptr;
  }
  e.program = std::move(built);
  ++plan_stats_.compiles;
  if (e.program->arena_floats() > max_program_floats_.load()) {
    max_program_floats_.store(e.program->arena_floats());
  }
  return e.program;
}

YolloModel::PlannedRun YolloModel::run_program(
    const yollo::plan::Program& program, const Tensor& images,
    const std::vector<int64_t>& tokens) {
  constexpr int64_t kArenaRetryPeriod = 64;
  PlannedRun run;
  run.lock = std::unique_lock<std::mutex>(arena_mu_, std::try_to_lock);
  if (!run.lock.owns_lock()) {
    run.busy = true;
    return run;
  }
  if (!program.accepts(images, tokens)) return run;
  const int64_t need =
      std::max(program.arena_floats(), max_program_floats_.load());
  if (!arena_ || arena_->floats() < need) {
    if (arena_retry_in_ > 0) {
      --arena_retry_in_;
      return run;
    }
    // Release the old arena BEFORE allocating: one budget charge at a time.
    arena_.reset();
    arena_bytes_.store(0, std::memory_order_relaxed);
    try {
      // Charges the caller's active pool budget exactly once.
      arena_ = std::make_shared<Arena>(need);
    } catch (const PoolBudgetExceeded&) {
      // Degrade to the dynamic path, which runs inside the budgeted pool.
      arena_retry_in_ = kArenaRetryPeriod;
      return run;
    }
    arena_bytes_.store(arena_->bytes(), std::memory_order_relaxed);
  }
  const yollo::plan::Program::Outputs out =
      program.execute(*arena_, images, tokens);
  run.arena = arena_;
  run.ran = true;
  run.scores = out.scores;
  run.deltas = out.deltas;
  run.features = out.features;
  return run;
}

void YolloModel::warm_plan(int64_t batch) {
  if (!yollo::plan::enabled() || batch < 1) return;
  ag::NoGradGuard no_grad;
  nn::EvalModeGuard eval_mode(*this);
  // Deliberately no PoolScope: the arena's byte charge must land on the
  // caller's active budget scope (the serve worker's), not a transient one.
  Tensor images({batch, 3, config_.img_h, config_.img_w});
  std::vector<int64_t> tokens(
      static_cast<size_t>(batch * config_.max_query_len), 0);
  if (std::shared_ptr<const yollo::plan::Program> p =
          planned_for(images, tokens)) {
    // One throwaway execution sizes the arena and warms the GEMM pack
    // scratch and obs rings so the first real request runs at steady state.
    run_program(*p, images, tokens);
  }
}

plan::ProgramSet YolloModel::compile_programs(int64_t batch_max) {
  plan::ProgramSet set;
  if (!yollo::plan::enabled()) return set;
  ag::NoGradGuard no_grad;
  nn::EvalModeGuard eval_mode(*this);
  for (int64_t b = 1; b <= batch_max; ++b) {
    const Tensor images({b, 3, config_.img_h, config_.img_w});
    const std::vector<int64_t> tokens(
        static_cast<size_t>(b * config_.max_query_len), 0);
    set.push_back(planned_for(images, tokens));
  }
  return set;
}

void YolloModel::adopt_programs(const plan::ProgramSet& programs) {
  std::lock_guard<std::mutex> lk(plan_mu_);
  for (size_t i = 0; i < programs.size(); ++i) {
    PlanEntry& e = plan_cache_[static_cast<int64_t>(i) + 1];
    e.program = programs[i];
    e.failed = programs[i] == nullptr;
    if (e.program && e.program->arena_floats() > max_program_floats_.load()) {
      max_program_floats_.store(e.program->arena_floats());
    }
  }
}

bool YolloModel::planned(int64_t batch) {
  std::lock_guard<std::mutex> lk(plan_mu_);
  auto it = plan_cache_.find(batch);
  return it != plan_cache_.end() && it->second.program != nullptr;
}

void YolloModel::invalidate_plans() {
  // Model-reload signal: parameter storage may have been rebound, so any
  // cached backbone features derived from the old weights are stale too.
  weights_generation_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lk(plan_mu_);
    // Reset in place instead of erasing: a concurrent build holds
    // references to its entry across the cache unlock.
    for (auto& [key, e] : plan_cache_) {
      e.program.reset();
      e.failed = false;
    }
    max_program_floats_.store(0);
  }
  // Blocks behind an in-flight execution; a caller still holding a view
  // keeps the old arena alive through its own reference.
  std::lock_guard<std::mutex> lk(arena_mu_);
  arena_.reset();
  arena_bytes_.store(0, std::memory_order_relaxed);
  arena_retry_in_ = 0;
}

YolloModel::PlanCacheStats YolloModel::plan_cache_stats() {
  std::lock_guard<std::mutex> lk(plan_mu_);
  PlanCacheStats s = plan_stats_;
  s.entries = 0;
  for (const auto& [key, e] : plan_cache_) {
    if (e.program) ++s.entries;
  }
  s.arena_bytes = arena_bytes_.load(std::memory_order_relaxed);
  return s;
}

YolloModel::RawForward YolloModel::raw_forward(
    const Tensor& images, const std::vector<int64_t>& tokens) {
  ag::NoGradGuard no_grad;
  nn::EvalModeGuard eval_mode(*this);
  PoolScope pool;
  RawForward rf;
  if (yollo::plan::enabled()) {
    if (std::shared_ptr<const yollo::plan::Program> p =
            planned_for(images, tokens)) {
      PlannedRun run = run_program(*p, images, tokens);
      if (run) {
        // Clone out of the arena while it is held.
        rf.scores = Tensor::from_external(p->scores_shape(),
                                          const_cast<float*>(run.scores),
                                          run.arena)
                        .clone();
        rf.deltas = Tensor::from_external(p->deltas_shape(),
                                          const_cast<float*>(run.deltas),
                                          run.arena)
                        .clone();
        rf.planned = true;
        return rf;
      }
    }
  }
  Output out = forward(images, tokens);
  rf.scores = out.scores.value().clone();
  rf.deltas = out.deltas.value().clone();
  return rf;
}

bool YolloModel::run_planned(const Tensor& images,
                             const std::vector<int64_t>& tokens) {
  const std::shared_ptr<const yollo::plan::Program> p =
      cached_program(images.size(0));
  return p != nullptr && static_cast<bool>(run_program(*p, images, tokens));
}

std::shared_ptr<const yollo::plan::Program> YolloModel::cached_program(
    int64_t batch) {
  std::lock_guard<std::mutex> lk(plan_mu_);
  auto it = plan_cache_.find(batch);
  return it != plan_cache_.end() ? it->second.program : nullptr;
}

std::vector<vision::Box> YolloModel::predict(
    const Tensor& images, const std::vector<int64_t>& tokens) {
  // Self-contained inference: no graph, deterministic eval-mode batch norm
  // regardless of the caller's train/eval state, recycled storage.
  ag::NoGradGuard no_grad;
  nn::EvalModeGuard eval_mode(*this);
  PoolScope pool;
  ForwardDecode fd =
      forward_and_decode(images, tokens, /*apply_fault_hooks=*/false);
  if (!fd.all_ok()) {
    throw std::runtime_error("YolloModel::predict: " + fd.message);
  }
  return std::move(fd.boxes);
}

YolloModel::InferOutcome YolloModel::infer(
    const Tensor& images, const std::vector<int64_t>& tokens,
    bool capture_features) noexcept {
  InferOutcome outcome;
  const auto fail = [&outcome](InferError error, std::string message) {
    outcome.error = error;
    outcome.message = std::move(message);
    outcome.boxes.clear();
    return outcome;
  };

  try {
    // Shape contract first: forward() would throw (or worse, mis-reshape)
    // on anything else.
    if (!images.defined() || images.ndim() != 4 || images.size(0) < 1 ||
        images.size(1) != 3 || images.size(2) != config_.img_h ||
        images.size(3) != config_.img_w) {
      return fail(InferError::kInvalidInput,
                  "expected images [B,3," + std::to_string(config_.img_h) +
                      "," + std::to_string(config_.img_w) + "], got " +
                      (images.defined() ? shape_to_string(images.shape())
                                        : std::string("<undefined>")));
    }
    const int64_t b = images.size(0);
    if (static_cast<int64_t>(tokens.size()) != b * config_.max_query_len) {
      return fail(InferError::kInvalidInput,
                  "token count " + std::to_string(tokens.size()) +
                      " != B*max_query_len = " +
                      std::to_string(b * config_.max_query_len));
    }
    const int64_t vocab = word_emb_.weight.size(0);
    for (const int64_t token : tokens) {
      if (token < 0 || token >= vocab) {
        return fail(InferError::kInvalidInput,
                    "token id " + std::to_string(token) +
                        " outside vocabulary [0, " + std::to_string(vocab) +
                        ")");
      }
    }
    const float* pixels = images.data();
    for (int64_t i = 0; i < images.numel(); ++i) {
      if (!std::isfinite(pixels[i])) {
        return fail(InferError::kInvalidInput,
                    "non-finite pixel at flat index " + std::to_string(i));
      }
    }

    // Same guard stack as predict(): the entry point owns its execution
    // mode instead of trusting the caller's.
    ag::NoGradGuard no_grad;
    nn::EvalModeGuard eval_mode(*this);
    PoolScope pool;

    // Fault hooks: a slow-forward fault sleeps here, a transient forward
    // failure throws here (caught below as kFault). active() resolves to a
    // thread-bound scoped injector when one is installed (per-shard chaos),
    // else the env-driven process-wide instance.
    runtime::FaultInjector::active().check_forward();

    ForwardDecode fd = forward_and_decode(
        images, tokens, /*apply_fault_hooks=*/true, capture_features);
    // A context cancelled on the *last* kernel has no later dispatch
    // checkpoint to throw from, and the abandoned kernel's partial output
    // can look finite — so the cancelled flag always wins over whatever
    // forward_and_decode scanned out of the data.
    if (ExecContext* ctx = ExecContext::current();
        ctx != nullptr && ctx->cancelled()) {
      return fail(InferError::kCancelled,
                  std::string("forward cancelled: ") +
                      cancel_cause_name(ctx->cause()));
    }
    outcome.element_errors = std::move(fd.element_errors);
    outcome.element_boxes = std::move(fd.boxes);
    outcome.features = std::move(fd.features);
    if (!fd.all_ok()) {
      outcome.error = fd.error;
      outcome.message = std::move(fd.message);
      outcome.boxes.clear();  // all-or-nothing view; per-element data stays
      return outcome;
    }
    outcome.boxes = outcome.element_boxes;
    return outcome;
  } catch (const ExecCancelled& e) {
    return fail(InferError::kCancelled, e.what());
  } catch (const PoolBudgetExceeded& e) {
    return fail(InferError::kResourceExhausted, e.what());
  } catch (const std::exception& e) {
    return fail(InferError::kFault, e.what());
  } catch (...) {
    return fail(InferError::kFault, "unknown exception during forward");
  }
}

YolloModel::InferOutcome YolloModel::infer_from_features(
    const Tensor& features, const std::vector<int64_t>& tokens) noexcept {
  InferOutcome outcome;
  const auto fail = [&outcome](InferError error, std::string message) {
    outcome.error = error;
    outcome.message = std::move(message);
    outcome.boxes.clear();
    return outcome;
  };

  try {
    const int64_t c = config_.backbone.out_channels();
    if (!features.defined() || features.ndim() != 4 || features.size(0) < 1 ||
        features.size(1) != c || features.size(2) != config_.grid_h() ||
        features.size(3) != config_.grid_w()) {
      return fail(InferError::kInvalidInput,
                  "expected features [B," + std::to_string(c) + "," +
                      std::to_string(config_.grid_h()) + "," +
                      std::to_string(config_.grid_w()) + "], got " +
                      (features.defined() ? shape_to_string(features.shape())
                                          : std::string("<undefined>")));
    }
    const int64_t b = features.size(0);
    if (static_cast<int64_t>(tokens.size()) != b * config_.max_query_len) {
      return fail(InferError::kInvalidInput,
                  "token count " + std::to_string(tokens.size()) +
                      " != B*max_query_len = " +
                      std::to_string(b * config_.max_query_len));
    }
    const int64_t vocab = word_emb_.weight.size(0);
    for (const int64_t token : tokens) {
      if (token < 0 || token >= vocab) {
        return fail(InferError::kInvalidInput,
                    "token id " + std::to_string(token) +
                        " outside vocabulary [0, " + std::to_string(vocab) +
                        ")");
      }
    }
    const float* values = features.data();
    for (int64_t i = 0; i < features.numel(); ++i) {
      if (!std::isfinite(values[i])) {
        return fail(InferError::kInvalidInput,
                    "non-finite feature at flat index " + std::to_string(i));
      }
    }

    ag::NoGradGuard no_grad;
    nn::EvalModeGuard eval_mode(*this);
    PoolScope pool;

    // Same per-forward fault hook as infer(): a cached-path forward is one
    // attempt exactly like an uncached one, so retry/chaos accounting (and
    // the slow/fail/wedge shot counters) cannot drift between the paths.
    runtime::FaultInjector::active().check_forward();

    // The cached path runs the fusion half dynamically: per-batch-size
    // static plans span the full forward (backbone included), and a second
    // plan family per batch size is not worth the arena memory for a stage
    // that is already a fraction of the full pass (DESIGN.md §15).
    Output out = fuse_features(ag::Variable::constant(features), tokens);
    ForwardDecode fd = decode_and_scan(out, config_.img_w, config_.img_h,
                                       /*apply_fault_hooks=*/true);
    if (ExecContext* ctx = ExecContext::current();
        ctx != nullptr && ctx->cancelled()) {
      return fail(InferError::kCancelled,
                  std::string("forward cancelled: ") +
                      cancel_cause_name(ctx->cause()));
    }
    outcome.element_errors = std::move(fd.element_errors);
    outcome.element_boxes = std::move(fd.boxes);
    if (!fd.all_ok()) {
      outcome.error = fd.error;
      outcome.message = std::move(fd.message);
      outcome.boxes.clear();
      return outcome;
    }
    outcome.boxes = outcome.element_boxes;
    return outcome;
  } catch (const ExecCancelled& e) {
    return fail(InferError::kCancelled, e.what());
  } catch (const PoolBudgetExceeded& e) {
    return fail(InferError::kResourceExhausted, e.what());
  } catch (const std::exception& e) {
    return fail(InferError::kFault, e.what());
  } catch (...) {
    return fail(InferError::kFault, "unknown exception during forward");
  }
}

Tensor YolloModel::attention_map(const Output& out,
                                 int64_t batch_index) const {
  const int64_t m = config_.num_regions();
  const Tensor att =
      out.att_v.value().narrow(0, batch_index, 1).reshape({m});
  return softmax(att, 0).reshape({config_.grid_h(), config_.grid_w()});
}

Tensor YolloModel::attention_map(const Tensor& images,
                                 const std::vector<int64_t>& tokens,
                                 int64_t batch_index) {
  ag::NoGradGuard no_grad;
  nn::EvalModeGuard eval_mode(*this);
  PoolScope pool;
  const Output out = forward(images, tokens);
  return attention_map(out, batch_index);
}

}  // namespace yollo::core
