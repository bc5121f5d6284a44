// yollo::plan — static forward-plan compiler with arena memory planning
// (DESIGN.md §14).
//
// A Program is the grad-free forward of one (model, batch-size) pair recorded
// once and frozen: a flat, topologically ordered op list with pre-resolved
// shapes, pre-bound parameter storage, pre-resolved kernel geometry (GEMM
// dispatch, fused linear epilogues, collapsed broadcast loops) and every
// intermediate assigned a fixed *offset* by liveness analysis. A Program is
// immutable once compiled, so one instance is shared by every thread that
// runs it. The mutable half is an Arena (tensor/arena.h): one contiguous
// allocation the caller owns and hands to Program::execute. An arena at least
// as large as a Program's arena_floats() runs it; one arena sized to the
// largest Program of a set runs every Program of that set. Steady-state
// executions therefore perform zero heap allocations and zero shape/dispatch
// work: the executor is one loop over raw-pointer kernel calls.
//
// Correctness contract: planned execution is bitwise identical to the
// dynamic eager path at the same inputs and thread count. This is enforced
// structurally — the executor calls the same raw kernels
// (yollo::kernels::*, yollo::gemm/batched_gemm, conv2d_forward_into) the
// eager wrappers call, and elementwise chains are fused per element in the
// recorded op order, which cannot change any individual float computation.
//
// Recording is fail-closed: any op the recorder has no structural record of
// (see autograd/trace.h) marks the trace unplannable and the caller keeps
// the dynamic path. Compilation allocates no arena; the arena's owner
// charges its pool budget when it constructs one (tensor/arena.h).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/arena.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"

#include "autograd/trace.h"

namespace yollo::plan {

// --- global switch -----------------------------------------------------------
// Planned execution is on by default; YOLLO_PLAN=0 in the environment is the
// escape hatch. set_enabled overrides both (tests flip it to compare paths).
bool enabled();
void set_enabled(bool enabled);

// The mutable half of planned execution: touched only by the thread
// executing into it.
using yollo::Arena;

// Thrown by Program::execute when handed an arena smaller than the
// program's layout.
class ArenaTooSmall : public std::runtime_error {
 public:
  ArenaTooSmall(int64_t required_bytes, int64_t arena_bytes);
  int64_t required_bytes;
  int64_t arena_bytes;
};

// --- plan IR -----------------------------------------------------------------

// One buffer the program knows about. External slots (bound parameters and
// recorded constants) keep a Tensor handle: the pointer is resolved once and
// the handle keeps the storage alive; in-place parameter loads and running-
// stat updates flow through automatically. Arena slots get a fixed offset.
struct Slot {
  Shape shape;          // shape at definition
  int64_t numel = 0;
  bool external = false;
  Tensor bound;         // keepalive + pointer for external slots
  int64_t offset = -1;  // arena offset (floats) for non-external slots
  int32_t def = -1;     // producing op index; -1 = live from the prologue
  int32_t last_use = -1;
  bool is_input = false;   // refilled by the prologue each execution
  bool is_output = false;  // live until the caller consumed it
};

// One fused-elementwise stage: acc is the op's output buffer, updated in
// recorded op order. Operand-consuming codes read args[operand].
struct EltStage {
  enum Code : uint8_t {
    kLoad,       // acc = x
    kAdd,        // acc += x
    kSub,        // acc -= x
    kRSub,       // acc = x - acc
    kMul,        // acc *= x
    kDiv,        // acc /= x
    kRDiv,       // acc = x / acc
    kAddScalar,  // acc += s
    kMulScalar,  // acc *= s
    kPowScalar,  // acc = pow(acc, s)
    kRelu,       // acc = acc > 0 ? acc : 0
    kSigmoid,    // acc = 1 / (1 + exp(-acc))
  };
  Code code = kLoad;
  int32_t operand = -1;
  float scalar = 0.0f;
};

enum class OpKind : uint8_t {
  kEltwise,
  kPermute,
  kCopyRows,  // narrow
  kConcat,
  kGather,    // embedding lookup; ids = the runtime token stream
  kGemm,      // single GEMM (2-D, collapsed 3-D×2-D, or fused linear)
  kBatchedGemm,
  kSumAxis,
  kSoftmax,
  kConv2d,
};

struct ConcatPart {
  int32_t arg = 0;      // index into Op::args
  int64_t dst_off = 0;  // element offset of this part's first row
  int64_t run = 0;      // elements copied per row (part extent · inner)
};

// Flat op record. One struct covers every kind; only the fields of the
// op's kind are meaningful. Geometry is frozen at compile time and operand
// locations are resolved to an external pointer or an arena offset, so the
// executor never touches a Slot.
struct Op {
  OpKind kind = OpKind::kEltwise;
  std::vector<int32_t> args;     // input slot ids
  std::vector<Shape> arg_shapes; // operand view shapes at the use site
  int32_t out = -1;
  Shape out_shape;

  // Parallel to args: the arena offset (floats) of each operand, or -1 for
  // an external one, whose pointer is in ext_ptr.
  std::vector<int64_t> arg_off;
  std::vector<const float*> ext_ptr;
  int64_t out_off = 0;

  // kEltwise
  std::vector<EltStage> stages;
  int64_t elt_run = 1;                  // collapsed contiguous suffix length
  int64_t elt_prefix = 1;               // product of remaining prefix dims
  std::vector<int64_t> elt_prefix_dims;
  std::vector<int64_t> elt_prefix_strides;  // per-arg × per-prefix-dim
  std::vector<uint8_t> elt_arg_bcast;       // per-arg: broadcast over the run

  // kPermute
  std::vector<int64_t> perm_out_shape;
  std::vector<int64_t> perm_strides;
  int64_t numel = 0;

  // kCopyRows (narrow)
  int64_t cp_src_off = 0, cp_src_stride = 0, cp_rows = 0, cp_run = 0;

  // kConcat: per-part contiguous-source rows into a strided destination
  std::vector<ConcatPart> parts;
  int64_t cat_rows = 0;        // outer
  int64_t cat_dst_stride = 0;  // total extent · inner

  // kGather
  int64_t g_extent = 0, g_inner = 0, g_count = 0;

  // kGemm / kBatchedGemm (bias/relu only for the fused linear form)
  bool trans_a = false, trans_b = false, relu = false;
  int64_t m = 0, n = 0, k = 0;
  int64_t batch = 1, a_stride = 0, b_stride = 0, c_stride = 0;
  int32_t bias_arg = -1;

  // kSumAxis / kSoftmax
  int64_t outer = 0, extent = 0, inner = 0;

  // kConv2d
  Conv2dSpec conv;
  int64_t cn = 0, ch = 0, cw = 0;
  int32_t cols_arg = -1;  // index into args of the im2col workspace slot
};

// --- the compiled program ----------------------------------------------------

class Program {
 public:
  // Arena-resident outputs of one execution: valid until the arena is
  // executed into again or destroyed. `features` is null when the program
  // was compiled without the backbone-feature output.
  struct Outputs {
    const float* scores = nullptr;
    const float* deltas = nullptr;
    const float* features = nullptr;
  };

  // True when `images`/`tokens` match the recorded batch geometry.
  bool accepts(const Tensor& images, const std::vector<int64_t>& tokens) const;

  // Runs the planned forward into `arena`. Throws ArenaTooSmall when the
  // arena cannot hold this program's layout, std::invalid_argument when the
  // inputs do not match the recorded geometry (see accepts()), and
  // ExecCancelled at op boundaries when the caller's ExecContext is
  // cancelled. Allocation-free after warmup. Concurrent executions of one
  // Program are safe as long as each runs in its own arena.
  Outputs execute(Arena& arena, const Tensor& images,
                  const std::vector<int64_t>& tokens) const;

  int64_t batch() const { return batch_; }
  int64_t arena_floats() const { return arena_floats_; }
  int64_t arena_bytes() const {
    return arena_floats_ * static_cast<int64_t>(sizeof(float));
  }
  int64_t num_ops() const { return static_cast<int64_t>(ops_.size()); }
  const Shape& scores_shape() const { return scores_shape_; }
  const Shape& deltas_shape() const { return deltas_shape_; }
  const Shape& features_shape() const { return feat_shape_; }

  // Layout introspection for tests: every non-external slot as
  // (offset, numel, def, last_use). Liveness-overlapping entries must be
  // spatially disjoint.
  struct SlotExtent {
    int64_t offset, numel;
    int32_t def, last_use;
  };
  std::vector<SlotExtent> arena_layout() const;

 private:
  friend class Recorder;
  Program() = default;

  std::vector<Op> ops_;
  std::vector<Slot> slots_;
  int64_t arena_floats_ = 0;

  int64_t batch_ = 0, img_h_ = 0, img_w_ = 0;
  int64_t mask_m_ = 0, mask_n_ = 0;  // pair-mask geometry
  int64_t tokens_count_ = 0;         // expected tokens.size() per execution
  int64_t coords_off_ = -1;          // CoordConv input slot (-1 = none)
  int64_t mask_off_ = -1;            // pair-mask input slot (-1 = none)
  int64_t scores_off_ = 0, deltas_off_ = 0;
  int64_t feat_off_ = -1;  // optional third output (backbone features)
  Shape scores_shape_, deltas_shape_;  // output view shapes (post-reshape)
  Shape feat_shape_;
};

// One Program per batch size: entry b-1 runs batch b (null where the trace
// was unplannable). Shared read-only by every executor of a model.
using ProgramSet = std::vector<std::shared_ptr<const Program>>;

// --- the recorder ------------------------------------------------------------

// Observes one grad-free eager forward through the autograd trace hooks and
// compiles the op stream into a Program. Keeps every recorded tensor alive for
// its own lifetime so storage pointers cannot be recycled (and therefore
// cannot collide) while recording.
class Recorder final : public ag::trace::Sink {
 public:
  Recorder();
  ~Recorder() override;

  // The runtime token stream of the recorded call; a gather whose indices
  // match it byte-for-byte replays from the caller's tokens, any other
  // gather is unplannable.
  void set_tokens(const std::vector<int64_t>& tokens);

  // Compiles the recorded trace. `scores`/`deltas` are the forward's output
  // tensors (their storage must be recorded op results). `features`, when
  // non-null, pins a third output (the backbone feature map) so executions
  // can serve the feature cache straight from the arena; it must also be a
  // recorded op result. Returns nullptr with `*why` filled when the trace
  // was unplannable.
  std::shared_ptr<const Program> compile(const Tensor& scores,
                                         const Tensor& deltas,
                                         std::string* why,
                                         const Tensor* features = nullptr);

  bool unplannable() const { return unplannable_; }
  const std::string& reason() const { return reason_; }

  // ag::trace::Sink
  void on_binary(const char* op, const Tensor& a, const Tensor& b,
                 const Tensor& out) override;
  void on_unary(const char* op, const Tensor& a, const Tensor& out) override;
  void on_unary_scalar(const char* op, const Tensor& a, float s,
                       const Tensor& out) override;
  void on_permute(const Tensor& a, const std::vector<int64_t>& order,
                  const Tensor& out) override;
  void on_narrow(const Tensor& a, int64_t axis, int64_t start, int64_t length,
                 const Tensor& out) override;
  void on_concat(const std::vector<Tensor>& parts, int64_t axis,
                 const Tensor& out) override;
  void on_gather_rows(const Tensor& table, const std::vector<int64_t>& ids,
                      const Tensor& out) override;
  void on_matmul(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
                 const Tensor& out) override;
  void on_linear(const Tensor& x, const Tensor& w, const Tensor& bias,
                 bool relu, const Tensor& out) override;
  void on_sum_axis(const Tensor& a, int64_t axis, bool keepdim,
                   const Tensor& out) override;
  void on_softmax(const Tensor& a, int64_t axis, const Tensor& out) override;
  void on_conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
                 const Conv2dSpec& spec, const Tensor& out) override;
  void on_input(const char* name, const Tensor& t) override;
  void on_result(const char* op_name, const Tensor& out) override;

 private:
  int32_t slot_of(const Tensor& t);         // intern operand (new → external)
  int32_t def_slot(const Tensor& out);      // intern a fresh op output
  Op& push(OpKind kind, const Tensor& out);
  void add_arg(Op& op, const Tensor& t);
  void set_unplannable(std::string reason);

  struct RecSlot {
    Tensor held;  // keepalive; pointer identity for the whole recording
    Shape shape;
    bool external = false;
    bool is_input = false;
    const char* input_name = nullptr;
  };

  std::vector<RecSlot> slots_;
  std::vector<Op> ops_;
  std::unordered_map<const float*, int32_t> by_ptr_;
  std::vector<int64_t> tokens_;
  bool have_tokens_ = false;
  bool unplannable_ = false;
  std::string reason_;
};

}  // namespace yollo::plan
