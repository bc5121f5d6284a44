// YOLLO — "You Only Look & Listen Once": the paper's one-stage visual
// grounding model (§3, Fig. 2a).
//
// Pipeline: feature encoder (backbone grid features + word embeddings with
// learned absolute positional embeddings, §3.1) -> stacked Rel2Att modules
// (§3.2) -> RPN-like target detection network over the attended feature map
// (§3.3). Trained end-to-end with L = L_att + L_cls + lambda * L_reg
// (eq. 9); inference takes the single top-scored anchor's refined box.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/detection_head.h"
#include "core/rel2att.h"
#include "nn/layers.h"
#include "vision/backbone.h"

namespace yollo {
class Arena;
}
namespace yollo::plan {
class Program;
using ProgramSet = std::vector<std::shared_ptr<const Program>>;
}  // namespace yollo::plan

namespace yollo::core {

class YolloModel : public nn::Module {
 public:
  YolloModel(const YolloConfig& config, int64_t vocab_size, Rng& rng);

  const YolloConfig& config() const { return config_; }

  // Copy pre-trained Word2Vec vectors into the embedding table (the paper
  // initialises from Word2Vec and fine-tunes end-to-end, §4.2).
  void init_word_embeddings(const Tensor& embeddings);

  struct Output {
    ag::Variable scores;  // [B, A]
    ag::Variable deltas;  // [B, A, 4]
    ag::Variable att_v;   // [B, m] raw image attention from the last Rel2Att
    // att_v from every module in the stack; the attention loss supervises
    // all of them (deep supervision — each stacked module is pushed toward
    // the target region, which speeds up convergence markedly).
    std::vector<ag::Variable> att_v_all;
    // Backbone grid features [B, C, grid_h, grid_w] as produced by
    // encode_images() — everything query-independent. The serve-layer
    // feature cache stores these per image so repeat queries against the
    // same pixels skip the backbone entirely (fuse_features alone).
    ag::Variable feat;
  };

  // images: [B, 3, img_h, img_w]; tokens: row-major [B * max_query_len].
  // forward() == fuse_features(encode_images(images), tokens): the split
  // exists because encode_images depends only on the pixels (cacheable per
  // image) while fuse_features carries all the query-dependent work.
  Output forward(const Tensor& images, const std::vector<int64_t>& tokens);

  // CoordConv fill + backbone: the query-independent half of forward().
  ag::Variable encode_images(const Tensor& images);

  // Rel2Att stack + detection head over precomputed backbone features
  // ([B, C, grid_h, grid_w]): the query-dependent half of forward().
  Output fuse_features(const ag::Variable& feat,
                       const std::vector<int64_t>& tokens);

  struct Losses {
    ag::Variable total;
    ag::Variable att;
    ag::Variable cls;
    ag::Variable reg;
  };
  Losses compute_loss(const Output& out,
                      const std::vector<vision::Box>& targets, Rng& rng);

  // Top-1 box per batch element. Self-contained: installs an
  // ag::NoGradGuard (no autograd graph), an nn::EvalModeGuard
  // (deterministic batch-norm, restored on return), and a PoolScope
  // (storage recycling) internally — callers no longer manage train/eval
  // state around it. Throws on shape mismatch or a non-finite forward; use
  // infer() for the typed, never-throwing variant.
  std::vector<vision::Box> predict(const Tensor& images,
                                   const std::vector<int64_t>& tokens);

  // --- exception-free inference entry point (used by yollo::serve) ---------
  enum class InferError {
    kNone = 0,       // boxes are valid
    kInvalidInput,   // image/token shapes do not match the config
    kNonFinite,      // forward produced non-finite activations or boxes
    kFault,          // forward threw (includes runtime::InjectedFault)
    kCancelled,      // the caller's ExecContext was cancelled (explicit
                     // cancel or deadline expiry) mid-forward; distinguish
                     // via ExecContext::cause()
    kResourceExhausted,  // the active PoolScope's byte budget refused an
                         // allocation (PoolBudgetExceeded)
  };
  struct InferOutcome {
    InferError error = InferError::kNone;
    std::string message;
    std::vector<vision::Box> boxes;  // one per batch element when ok
    // Backbone features [B, C, grid_h, grid_w], cloned out of the forward
    // when infer() was asked to capture them (undefined otherwise, and on
    // batch-level failures). Valid even for elements whose head outputs
    // were poisoned — the features are produced upstream of the fault
    // hooks, so the cache may keep them.
    Tensor features;
    // Per-element verdicts for batched forwards: sized B once the forward
    // ran (empty on batch-level failures — invalid input or a thrown
    // fault). A non-finite element poisons only its own slot:
    // element_boxes[i] stays valid (clipped) wherever element_errors[i] is
    // kNone, so a micro-batching caller can serve the healthy elements and
    // degrade the poisoned ones individually.
    std::vector<InferError> element_errors;
    std::vector<vision::Box> element_boxes;
    bool ok() const { return error == InferError::kNone; }
    bool element_ok(int64_t i) const {
      return i >= 0 && i < static_cast<int64_t>(element_errors.size()) &&
             element_errors[static_cast<size_t>(i)] == InferError::kNone;
    }
  };
  // Hardened predict(): validates input shapes against the config, runs the
  // forward pass (honouring runtime::FaultInjector's inference-path faults),
  // scans the activations and decoded boxes for non-finite values, and clips
  // every box to the input image bounds so a degenerate or out-of-frame box
  // can never escape. Never throws; all failures surface as a typed
  // InferError with a message. Like predict(), installs NoGradGuard +
  // EvalModeGuard + PoolScope internally. `capture_features` additionally
  // clones the backbone feature map into InferOutcome::features (from the
  // plan arena on the planned path) so the caller can populate a feature
  // cache without a second forward.
  InferOutcome infer(const Tensor& images, const std::vector<int64_t>& tokens,
                     bool capture_features = false) noexcept;

  // infer() for precomputed backbone features ([B, C, grid_h, grid_w], as
  // captured by a previous infer(..., true)): skips the backbone and runs
  // only the Rel2Att stack + head on the dynamic path. Same guard stack,
  // fault hooks, per-element verdicts, and cancellation semantics as
  // infer() — one FaultInjector::check_forward() per call, so retry and
  // chaos accounting cannot drift between the cached and uncached paths.
  InferOutcome infer_from_features(const Tensor& features,
                                   const std::vector<int64_t>& tokens) noexcept;

  // Monotonic generation of the parameter state, bumped whenever weights
  // may have been replaced wholesale (init_word_embeddings) or plan-visible
  // storage was rebound (invalidate_plans — the model-reload signal). The
  // serve feature cache keys entries by it so stale features can never be
  // served across a reload.
  uint64_t weights_generation() const {
    return weights_generation_.load(std::memory_order_acquire);
  }

  // Softmax image-attention map of one batch element as [grid_h, grid_w]
  // (the masks visualised in the paper's Figure 5).
  Tensor attention_map(const Output& out, int64_t batch_index) const;

  // Self-contained variant: runs a grad-free eval-mode forward internally
  // (same guards as predict) — no caller-managed train/eval state, no
  // Output to thread through.
  Tensor attention_map(const Tensor& images,
                       const std::vector<int64_t>& tokens,
                       int64_t batch_index);

  const std::vector<vision::Box>& anchors() const { return head_.anchors(); }

  // --- static forward plans (DESIGN.md §14) --------------------------------
  // predict()/infer() route through a per-batch-size compiled Program when
  // yollo::plan::enabled() (YOLLO_PLAN=0 disables), executed in this
  // model's one Arena. Programs are recorded lazily on first use (outside
  // any storage pool) unless adopt_programs() installed them; the arena is
  // sized to the largest cached Program and charged to the caller's active
  // pool budget when it is (re)allocated — on PoolBudgetExceeded the
  // forward degrades to the dynamic path. warm_plan() compiles (if needed)
  // and runs one Program eagerly so serving workers take no compile or
  // arena hit on their first real request.
  void warm_plan(int64_t batch);

  // True when a Program for this batch size is cached and ready.
  bool planned(int64_t batch);

  // Drop every cached Program and the arena (releasing its budget charge).
  // Needed when parameter *storage* is replaced (pointer-level rebinding);
  // plain in-place updates flow into cached Programs automatically.
  void invalidate_plans();

  struct PlanCacheStats {
    int64_t entries = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t compiles = 0;
    int64_t fallbacks = 0;  // Program existed but the arena was busy
    int64_t arena_bytes = 0;  // the one arena every Program runs in
  };
  PlanCacheStats plan_cache_stats();

  // Record and compile one Program per batch size 1..batch_max on the
  // calling thread (through this model's cache, so sizes already cached
  // are reused). Recording runs outside any storage pool: its temporaries
  // go back to the allocator. Null entries were unplannable. The Programs
  // bind this model's parameter storage and keep it alive.
  plan::ProgramSet compile_programs(int64_t batch_max);

  // Serve from Programs compiled on another model with the same config and
  // weights: each non-null entry becomes this model's cached Program for
  // its batch size, and a null entry marks that size unplannable. Compiles
  // nothing and allocates no arena.
  void adopt_programs(const plan::ProgramSet& programs);

  // Test hooks. raw_forward runs the same guarded forward predict() runs
  // and returns the raw score/delta tensors (cloned out of the arena on the
  // planned path) plus which path executed — the bitwise plan-vs-dynamic
  // tests diff these. run_planned executes an already-cached Program with
  // no decode and no output wrapping (the zero-allocation probe); returns
  // false when no Program is cached or the arena was busy.
  struct RawForward {
    Tensor scores;
    Tensor deltas;
    bool planned = false;
  };
  RawForward raw_forward(const Tensor& images,
                         const std::vector<int64_t>& tokens);
  bool run_planned(const Tensor& images, const std::vector<int64_t>& tokens);

  // The cached Program for a batch size (nullptr when none): arena-layout
  // introspection for tests and diagnostics.
  std::shared_ptr<const plan::Program> cached_program(int64_t batch);

 private:
  // Shared forward-and-decode core for predict() and infer(): one place
  // owns the finiteness scan and the bounds clipping, so the two entry
  // points can never drift. Assumes the caller installed the inference
  // guards; may propagate exceptions from forward().
  struct ForwardDecode {
    InferError error = InferError::kNone;  // kNone iff every element is ok
    std::string message;
    std::vector<InferError> element_errors;  // [B]
    std::vector<vision::Box> boxes;          // [B]; valid where element ok
    Tensor features;  // cloned backbone features when capture was requested
    bool all_ok() const { return error == InferError::kNone; }
  };
  ForwardDecode forward_and_decode(const Tensor& images,
                                   const std::vector<int64_t>& tokens,
                                   bool apply_fault_hooks,
                                   bool capture_features = false);

  // Finiteness scan + top-1 decode + clipping over a forward's outputs.
  // Boxes are clipped to [img_w, img_h] (the config geometry for every
  // admitted input). On the planned path the Output wraps arena-backed
  // views, so the caller must hold the plan's ExecGuard across this call.
  ForwardDecode decode_and_scan(Output& out, int64_t img_w, int64_t img_h,
                                bool apply_fault_hooks);

  // Plan cache (keyed by batch size; image dims and query length are fixed
  // by the config). `building` makes concurrent misses fall back to the
  // dynamic path instead of blocking behind the recording thread; `failed`
  // entries (unplannable traces) stay on the dynamic path until
  // invalidate_plans().
  struct PlanEntry {
    std::shared_ptr<const plan::Program> program;
    bool failed = false;
    bool building = false;
  };
  std::shared_ptr<const plan::Program> planned_for(
      const Tensor& images, const std::vector<int64_t>& tokens);
  std::shared_ptr<const plan::Program> record_program(
      const Tensor& images, const std::vector<int64_t>& tokens,
      std::string* why);

  // One planned execution, holding the arena until the caller has read the
  // outputs (another thread executing would overwrite them). Falsy when the
  // arena was busy (`busy`), the inputs did not match, or the budget refused
  // the arena.
  struct PlannedRun {
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Arena> arena;  // keepalive for arena-backed views
    const float* scores = nullptr;
    const float* deltas = nullptr;
    const float* features = nullptr;
    bool ran = false;
    bool busy = false;
    explicit operator bool() const { return ran; }
  };
  PlannedRun run_program(const plan::Program& program, const Tensor& images,
                         const std::vector<int64_t>& tokens);

  std::mutex plan_mu_;
  std::map<int64_t, PlanEntry> plan_cache_;
  PlanCacheStats plan_stats_;  // guarded by plan_mu_ (entries/arena_bytes
                               // recomputed on read)

  // The execution arena (guarded by arena_mu_, taken with try_lock so a
  // concurrent caller runs dynamically instead of waiting). After a budget
  // refusal the next `arena_retry_in_` planned forwards run dynamically
  // before the allocation is tried again.
  std::mutex arena_mu_;
  std::shared_ptr<Arena> arena_;
  int64_t arena_retry_in_ = 0;
  std::atomic<int64_t> arena_bytes_{0};
  // Largest arena_floats() of any cached Program (written under plan_mu_):
  // the arena is sized to it, so one allocation runs every cached size.
  std::atomic<int64_t> max_program_floats_{0};

  std::atomic<uint64_t> weights_generation_{0};

  YolloConfig config_;
  vision::Backbone backbone_;
  nn::Embedding word_emb_;
  ag::Variable pos_emb_;  // [max_query_len, word_dim]
  // Normalises text features to the same O(1) scale as the batch-normalised
  // backbone features; without it the text pathway is gradient-starved and
  // the model degenerates to query-independent grounding.
  nn::LayerNorm text_norm_;
  std::vector<std::unique_ptr<Rel2Att>> rel2att_;
  DetectionHead head_;
};

}  // namespace yollo::core
