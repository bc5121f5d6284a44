// Program compilation (fusion, liveness, arena assignment, operand
// resolution) and the zero-allocation executor.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "tensor/conv.h"
#include "tensor/exec.h"
#include "tensor/gemm.h"
#include "tensor/kernels.h"
#include "tensor/parallel.h"
#include "tensor/shape.h"

namespace yollo::plan {

namespace {

std::atomic<int> g_enabled{-1};  // -1 = read YOLLO_PLAN on first query

constexpr int kMaxEltStages = 16;
constexpr int kMaxEltArgs = 16;
// Operands per op: the executor resolves them into a stack array.
constexpr size_t kMaxOpArgs = 16;
constexpr int64_t kAlignFloats = 16;  // 64-byte lines
constexpr int64_t kEltGrain = 32768;  // the eager elementwise grain

int64_t align_up(int64_t v) {
  return (v + kAlignFloats - 1) & ~(kAlignFloats - 1);
}

int64_t prod(const Shape& s, size_t lo, size_t hi) {
  int64_t p = 1;
  for (size_t d = lo; d < hi; ++d) p *= s[d];
  return p;
}

// Apply an op's stage program to output elements [lo, hi) of one prefix
// block. `in` are the op's resolved operands, `base` is the block's first
// output element; `offs` are per-arg element offsets for this block (null
// means all zero). Per element the stages run in recorded op order, so
// every float operation matches the eager path's op-at-a-time execution
// exactly.
void apply_stages(const Op& op, const float* const* in, const int64_t* offs,
                  float* base, int64_t lo, int64_t hi) {
  for (const EltStage& st : op.stages) {
    float* acc = base;
    switch (st.code) {
      case EltStage::kLoad:
      case EltStage::kAdd:
      case EltStage::kSub:
      case EltStage::kRSub:
      case EltStage::kMul:
      case EltStage::kDiv:
      case EltStage::kRDiv: {
        const size_t a = static_cast<size_t>(st.operand);
        const float* x = in[a] + (offs != nullptr ? offs[a] : 0);
        const bool bc = op.elt_arg_bcast[a] != 0;
        switch (st.code) {
          case EltStage::kLoad:
            if (bc) {
              const float v = x[0];
              for (int64_t i = lo; i < hi; ++i) acc[i] = v;
            } else {
              for (int64_t i = lo; i < hi; ++i) acc[i] = x[i];
            }
            break;
          case EltStage::kAdd:
            if (bc) {
              const float v = x[0];
              for (int64_t i = lo; i < hi; ++i) acc[i] += v;
            } else {
              for (int64_t i = lo; i < hi; ++i) acc[i] += x[i];
            }
            break;
          case EltStage::kSub:
            if (bc) {
              const float v = x[0];
              for (int64_t i = lo; i < hi; ++i) acc[i] -= v;
            } else {
              for (int64_t i = lo; i < hi; ++i) acc[i] -= x[i];
            }
            break;
          case EltStage::kRSub:
            if (bc) {
              const float v = x[0];
              for (int64_t i = lo; i < hi; ++i) acc[i] = v - acc[i];
            } else {
              for (int64_t i = lo; i < hi; ++i) acc[i] = x[i] - acc[i];
            }
            break;
          case EltStage::kMul:
            if (bc) {
              const float v = x[0];
              for (int64_t i = lo; i < hi; ++i) acc[i] *= v;
            } else {
              for (int64_t i = lo; i < hi; ++i) acc[i] *= x[i];
            }
            break;
          case EltStage::kDiv:
            if (bc) {
              const float v = x[0];
              for (int64_t i = lo; i < hi; ++i) acc[i] /= v;
            } else {
              for (int64_t i = lo; i < hi; ++i) acc[i] /= x[i];
            }
            break;
          case EltStage::kRDiv:
            if (bc) {
              const float v = x[0];
              for (int64_t i = lo; i < hi; ++i) acc[i] = v / acc[i];
            } else {
              for (int64_t i = lo; i < hi; ++i) acc[i] = x[i] / acc[i];
            }
            break;
          default:
            break;
        }
        break;
      }
      case EltStage::kAddScalar:
        for (int64_t i = lo; i < hi; ++i) acc[i] += st.scalar;
        break;
      case EltStage::kMulScalar:
        for (int64_t i = lo; i < hi; ++i) acc[i] *= st.scalar;
        break;
      case EltStage::kPowScalar:
        for (int64_t i = lo; i < hi; ++i) acc[i] = std::pow(acc[i], st.scalar);
        break;
      case EltStage::kRelu:
        for (int64_t i = lo; i < hi; ++i) acc[i] = acc[i] > 0.0f ? acc[i] : 0.0f;
        break;
      case EltStage::kSigmoid:
        for (int64_t i = lo; i < hi; ++i) {
          acc[i] = 1.0f / (1.0f + std::exp(-acc[i]));
        }
        break;
    }
  }
}

}  // namespace

bool enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* e = std::getenv("YOLLO_PLAN");
    v = (e != nullptr && e[0] == '0' && e[1] == '\0') ? 0 : 1;
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

// --- executor ----------------------------------------------------------------

namespace {

void run_eltwise(const Op& op, const float* const* in, float* out) {
  if (op.elt_prefix == 1) {
    // Fully collapsed: one contiguous run, chunked like the eager
    // elementwise kernels (chunking cannot change per-element results).
    parallel_for(0, op.elt_run, kEltGrain, [&](int64_t lo, int64_t hi) {
      apply_stages(op, in, nullptr, out, lo, hi);
    });
    return;
  }
  const size_t nd = op.elt_prefix_dims.size();
  const size_t nargs = op.args.size();
  parallel_for(0, op.elt_prefix, 1, [&](int64_t plo, int64_t phi) {
    int64_t offs[kMaxEltArgs];
    for (int64_t p = plo; p < phi; ++p) {
      // Decode the prefix index into per-arg base offsets (row-major).
      for (size_t a = 0; a < nargs; ++a) offs[a] = 0;
      int64_t rem = p;
      for (size_t d = nd; d-- > 0;) {
        const int64_t c = rem % op.elt_prefix_dims[d];
        rem /= op.elt_prefix_dims[d];
        for (size_t a = 0; a < nargs; ++a) {
          offs[a] += c * op.elt_prefix_strides[a * nd + d];
        }
      }
      apply_stages(op, in, offs, out + p * op.elt_run, 0, op.elt_run);
    }
  });
}

}  // namespace

ArenaTooSmall::ArenaTooSmall(int64_t required, int64_t have)
    : std::runtime_error("plan arena too small: program needs " +
                         std::to_string(required) + " bytes, arena has " +
                         std::to_string(have)),
      required_bytes(required),
      arena_bytes(have) {}

bool Program::accepts(const Tensor& images,
                      const std::vector<int64_t>& tokens) const {
  return images.ndim() == 4 && images.size(0) == batch_ &&
         images.size(2) == img_h_ && images.size(3) == img_w_ &&
         static_cast<int64_t>(tokens.size()) == tokens_count_;
}

Program::Outputs Program::execute(Arena& arena, const Tensor& images,
                                  const std::vector<int64_t>& tokens) const {
  if (arena.floats() < arena_floats_) {
    throw ArenaTooSmall(arena_bytes(), arena.bytes());
  }
  if (!accepts(images, tokens)) {
    throw std::invalid_argument(
        "plan: inputs do not match the recorded batch geometry");
  }
  OBS_SPAN("plan.execute");
  static obs::Counter& executions =
      obs::MetricsRegistry::global().counter("plan.executions");
  executions.inc();
  ExecContext* ctx = ExecContext::current();
  float* base = arena.base();
  // Prologue: refill the input slots. Identical fills to the dynamic
  // forward (the model calls the same kernels).
  if (coords_off_ >= 0) {
    kernels::fill_coord_channels(images.data(), base + coords_off_, batch_,
                                 img_h_, img_w_);
  }
  if (mask_off_ >= 0) {
    kernels::fill_pair_mask(tokens.data(), batch_, mask_m_, mask_n_,
                            base + mask_off_);
  }
  const float* in[kMaxOpArgs] = {};
  for (const Op& op : ops_) {
    if (ctx != nullptr) ctx->throw_if_cancelled();
    for (size_t a = 0; a < op.args.size(); ++a) {
      in[a] = op.arg_off[a] < 0 ? op.ext_ptr[a] : base + op.arg_off[a];
    }
    float* out = base + op.out_off;
    switch (op.kind) {
      case OpKind::kEltwise:
        run_eltwise(op, in, out);
        break;
      case OpKind::kPermute:
        kernels::permute_into(in[0], out,
                              static_cast<int64_t>(op.perm_out_shape.size()),
                              op.perm_out_shape.data(), op.perm_strides.data(),
                              op.numel);
        break;
      case OpKind::kCopyRows:
        kernels::copy_rows(in[0], op.cp_src_off, op.cp_src_stride, out, 0,
                           op.cp_run, op.cp_rows, op.cp_run);
        break;
      case OpKind::kConcat:
        for (const ConcatPart& p : op.parts) {
          kernels::copy_rows(in[p.arg], 0, p.run, out, p.dst_off,
                             op.cat_dst_stride, op.cat_rows, p.run);
        }
        break;
      case OpKind::kGather:
        kernels::gather_rows_into(in[0], op.g_extent, op.g_inner,
                                  tokens.data(), op.g_count, out);
        break;
      case OpKind::kGemm: {
        GemmEpilogue ep;
        ep.bias = op.bias_arg >= 0 ? in[op.bias_arg] : nullptr;
        ep.relu = op.relu;
        gemm(op.trans_a, op.trans_b, op.m, op.n, op.k, in[0], in[1], out, ep);
        break;
      }
      case OpKind::kBatchedGemm:
        batched_gemm(op.trans_a, op.trans_b, op.batch, op.m, op.n, op.k,
                     in[0], op.a_stride, in[1], op.b_stride, out,
                     op.c_stride);
        break;
      case OpKind::kSumAxis:
        kernels::sum_axis_into(in[0], out, op.outer, op.extent, op.inner);
        break;
      case OpKind::kSoftmax:
        kernels::softmax_into(in[0], out, op.outer, op.extent, op.inner);
        break;
      case OpKind::kConv2d:
        // The cols workspace is an arena slot; operands are const-qualified
        // only because most of them are read-only.
        conv2d_forward_into(in[0], op.cn, op.ch, op.cw, in[1],
                            op.bias_arg >= 0 ? in[op.bias_arg] : nullptr,
                            op.conv, const_cast<float*>(in[op.cols_arg]),
                            out);
        break;
    }
  }
  return Outputs{base + scores_off_, base + deltas_off_,
                 feat_off_ >= 0 ? base + feat_off_ : nullptr};
}

std::vector<Program::SlotExtent> Program::arena_layout() const {
  std::vector<SlotExtent> out;
  for (const Slot& s : slots_) {
    if (s.external || s.offset < 0) continue;
    out.push_back(SlotExtent{s.offset, s.numel, s.def, s.last_use});
  }
  return out;
}

// --- compilation -------------------------------------------------------------

std::shared_ptr<const Program> Recorder::compile(const Tensor& scores,
                                                 const Tensor& deltas,
                                                 std::string* why,
                                                 const Tensor* features) {
  OBS_SPAN("plan.compile");
  auto fail = [&](const std::string& r) -> std::shared_ptr<const Program> {
    if (why != nullptr) *why = r;
    return nullptr;
  };
  if (unplannable_) return fail(reason_);
  if (ops_.empty()) return fail("empty trace");

  const auto si = by_ptr_.find(scores.data());
  const auto di = by_ptr_.find(deltas.data());
  if (si == by_ptr_.end() || di == by_ptr_.end()) {
    return fail("forward outputs were not recorded");
  }
  const int32_t scores_slot = si->second;
  const int32_t deltas_slot = di->second;
  if (slots_[static_cast<size_t>(scores_slot)].external ||
      slots_[static_cast<size_t>(deltas_slot)].external) {
    return fail("forward outputs are not op results");
  }
  int32_t feat_slot = -1;
  if (features != nullptr) {
    const auto fi = by_ptr_.find(features->data());
    if (fi == by_ptr_.end() ||
        slots_[static_cast<size_t>(fi->second)].external) {
      return fail("feature output was not recorded as an op result");
    }
    feat_slot = fi->second;
  }

  const size_t n_slots = slots_.size();
  std::vector<Op> ops = std::move(ops_);

  // --- elementwise fusion ----------------------------------------------------
  // Splice a producer's stage program into its single consumer when the
  // producer is elementwise, its output feeds nothing else, and every shape
  // involved is exactly equal (no broadcast or view reinterpretation across
  // the boundary — those would change the element mapping). The fused slot
  // is dead afterwards: no arena space, no pass over memory.
  std::vector<int32_t> producer(n_slots, -1);
  for (size_t i = 0; i < ops.size(); ++i) {
    producer[static_cast<size_t>(ops[i].out)] = static_cast<int32_t>(i);
  }
  std::vector<int32_t> uses(n_slots, 0);
  for (const Op& op : ops) {
    for (int32_t a : op.args) ++uses[static_cast<size_t>(a)];
  }
  ++uses[static_cast<size_t>(scores_slot)];
  ++uses[static_cast<size_t>(deltas_slot)];
  if (feat_slot >= 0) ++uses[static_cast<size_t>(feat_slot)];

  std::vector<char> dead(ops.size(), 0);

  auto fusible_into = [&](const Op& e, size_t arg_pos) -> int32_t {
    const int32_t slot = e.args[arg_pos];
    const RecSlot& rs = slots_[static_cast<size_t>(slot)];
    if (rs.is_input || uses[static_cast<size_t>(slot)] != 1) return -1;
    const int32_t p = producer[static_cast<size_t>(slot)];
    if (p < 0 || dead[static_cast<size_t>(p)]) return -1;
    const Op& po = ops[static_cast<size_t>(p)];
    if (po.kind != OpKind::kEltwise) return -1;
    // Exact shape equality at the boundary: producer's definition shape,
    // the consumer's view of it, and the consumer's output.
    if (po.out_shape != rs.shape || e.arg_shapes[arg_pos] != rs.shape ||
        e.out_shape != rs.shape) {
      return -1;
    }
    if (po.stages.size() + e.stages.size() - 1 >
            static_cast<size_t>(kMaxEltStages) ||
        po.args.size() + e.args.size() > static_cast<size_t>(kMaxEltArgs)) {
      return -1;
    }
    return p;
  };

  // Splice producer p in place of consumer stage `replaced` (which must be
  // the accumulator-producing stage): new program = producer stages, then
  // the consumer's remaining stages with `tail_op` applied for the swapped
  // commutative form when requested.
  auto splice = [&](Op& e, int32_t p, size_t arg_pos, bool commute_swap) {
    Op& po = ops[static_cast<size_t>(p)];
    std::vector<int32_t> nargs = po.args;
    std::vector<Shape> nshapes = po.arg_shapes;
    std::vector<EltStage> nst = po.stages;
    auto remap = [&](int32_t old_operand) -> int32_t {
      const int32_t idx = static_cast<int32_t>(nargs.size());
      nargs.push_back(e.args[static_cast<size_t>(old_operand)]);
      nshapes.push_back(e.arg_shapes[static_cast<size_t>(old_operand)]);
      return idx;
    };
    if (!commute_swap) {
      // e.stages[0] is the Load of the fused slot; keep the rest.
      for (size_t k = 1; k < e.stages.size(); ++k) {
        EltStage st = e.stages[k];
        if (st.operand >= 0) st.operand = remap(st.operand);
        nst.push_back(st);
      }
    } else {
      // e = {Load(other), Op(fused)} with Op commutative: run the producer
      // into the accumulator, then apply Op with the other operand.
      EltStage st = e.stages[1];
      st.operand = remap(e.stages[0].operand);
      nst.push_back(st);
    }
    --uses[static_cast<size_t>(e.args[arg_pos])];
    dead[static_cast<size_t>(p)] = 1;
    e.args = std::move(nargs);
    e.arg_shapes = std::move(nshapes);
    e.stages = std::move(nst);
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    Op& e = ops[i];
    if (e.kind != OpKind::kEltwise || dead[i]) continue;
    // Primary: fuse the producer of the Load operand.
    const size_t load_pos = static_cast<size_t>(e.stages[0].operand);
    int32_t p = fusible_into(e, load_pos);
    if (p >= 0) {
      splice(e, p, load_pos, /*commute_swap=*/false);
      continue;
    }
    // Secondary: two-stage commutative op whose *right* operand is fusible.
    if (e.stages.size() == 2 && e.stages[1].operand >= 0 &&
        (e.stages[1].code == EltStage::kAdd ||
         e.stages[1].code == EltStage::kMul)) {
      const size_t rhs_pos = static_cast<size_t>(e.stages[1].operand);
      p = fusible_into(e, rhs_pos);
      if (p >= 0) splice(e, p, rhs_pos, /*commute_swap=*/true);
    }
  }

  // Compact away fused producers.
  std::vector<Op> final_ops;
  final_ops.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!dead[i]) final_ops.push_back(std::move(ops[i]));
  }

  // --- dead-code elimination -------------------------------------------------
  // The forward also produces values predict/infer never read (the per-module
  // attention maps carried for training-time supervision). Walk backward from
  // scores/deltas and keep only contributing ops; anything else would occupy
  // an unplaced slot and execute for nothing.
  {
    std::vector<uint8_t> live(n_slots, 0);
    live[static_cast<size_t>(scores_slot)] = 1;
    live[static_cast<size_t>(deltas_slot)] = 1;
    if (feat_slot >= 0) live[static_cast<size_t>(feat_slot)] = 1;
    std::vector<Op> kept;
    kept.reserve(final_ops.size());
    for (size_t i = final_ops.size(); i-- > 0;) {
      Op& op = final_ops[i];
      if (!live[static_cast<size_t>(op.out)]) continue;
      for (int32_t a : op.args) live[static_cast<size_t>(a)] = 1;
      kept.push_back(std::move(op));
    }
    std::reverse(kept.begin(), kept.end());
    final_ops = std::move(kept);
  }
  for (const Op& op : final_ops) {
    if (op.args.size() > kMaxOpArgs) return fail("op has too many operands");
  }

  // --- assemble the program --------------------------------------------------
  std::shared_ptr<Program> prog(new Program());
  prog->ops_ = std::move(final_ops);
  prog->slots_.resize(n_slots);
  // Bind only the external storage a kept op reads: the program keeps its
  // bindings alive for as long as it is shared.
  std::vector<uint8_t> referenced(n_slots, 0);
  for (const Op& op : prog->ops_) {
    for (int32_t a : op.args) referenced[static_cast<size_t>(a)] = 1;
  }
  for (size_t s = 0; s < n_slots; ++s) {
    Slot& ps = prog->slots_[s];
    ps.shape = slots_[s].shape;
    ps.numel = yollo::numel(ps.shape);
    ps.external = slots_[s].external;
    ps.is_input = slots_[s].is_input;
    if (ps.external && referenced[s]) ps.bound = slots_[s].held;
  }
  prog->slots_[static_cast<size_t>(scores_slot)].is_output = true;
  prog->slots_[static_cast<size_t>(deltas_slot)].is_output = true;
  prog->scores_shape_ = scores.shape();
  prog->deltas_shape_ = deltas.shape();
  if (feat_slot >= 0) {
    prog->slots_[static_cast<size_t>(feat_slot)].is_output = true;
    prog->feat_shape_ = features->shape();
  }

  // --- liveness --------------------------------------------------------------
  const int32_t num_ops = static_cast<int32_t>(prog->ops_.size());
  std::vector<int32_t> first_use(n_slots, -1);
  for (int32_t i = 0; i < num_ops; ++i) {
    Op& op = prog->ops_[static_cast<size_t>(i)];
    prog->slots_[static_cast<size_t>(op.out)].def = i;
    for (int32_t a : op.args) {
      Slot& s = prog->slots_[static_cast<size_t>(a)];
      s.last_use = std::max(s.last_use, i);
      if (first_use[static_cast<size_t>(a)] < 0) {
        first_use[static_cast<size_t>(a)] = i;
      }
    }
  }
  for (size_t s = 0; s < n_slots; ++s) {
    Slot& ps = prog->slots_[s];
    if (!ps.external && !ps.is_input && ps.def < 0 && ps.last_use >= 0) {
      // A workspace slot (conv im2col): live only across its using op.
      ps.def = first_use[s];
    }
    if (ps.is_output) ps.last_use = num_ops;
  }

  // --- arena assignment (first-fit over sorted live intervals) ---------------
  std::vector<int32_t> order;
  for (size_t s = 0; s < n_slots; ++s) {
    const Slot& ps = prog->slots_[s];
    if (ps.external) continue;
    if (ps.last_use < 0 && !ps.is_output) continue;  // dead (fused away)
    order.push_back(static_cast<int32_t>(s));
  }
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    const Slot& sa = prog->slots_[static_cast<size_t>(a)];
    const Slot& sb = prog->slots_[static_cast<size_t>(b)];
    const int32_t da = sa.is_input ? -1 : sa.def;
    const int32_t db = sb.is_input ? -1 : sb.def;
    if (da != db) return da < db;
    if (sa.numel != sb.numel) return sa.numel > sb.numel;
    return a < b;
  });
  struct Placed {
    int64_t off, sz;
    int32_t lo, hi;
  };
  std::vector<Placed> placed;
  std::vector<Placed> overlap;
  int64_t total = 0;
  for (int32_t id : order) {
    Slot& s = prog->slots_[static_cast<size_t>(id)];
    const int32_t lo = s.is_input ? -1 : s.def;
    const int32_t hi = s.last_use;
    const int64_t sz = std::max<int64_t>(align_up(s.numel), kAlignFloats);
    overlap.clear();
    for (const Placed& p : placed) {
      if (p.lo <= hi && lo <= p.hi) overlap.push_back(p);
    }
    std::sort(overlap.begin(), overlap.end(),
              [](const Placed& a, const Placed& b) { return a.off < b.off; });
    int64_t off = 0;
    for (const Placed& p : overlap) {
      if (off + sz <= p.off) break;
      off = std::max(off, p.off + p.sz);
    }
    s.offset = off;
    placed.push_back(Placed{off, sz, lo, hi});
    total = std::max(total, off + sz);
  }

  // The arena itself belongs to whoever executes the program.
  prog->arena_floats_ = total;

  // --- operand resolution ----------------------------------------------------
  for (Op& op : prog->ops_) {
    op.arg_off.resize(op.args.size());
    op.ext_ptr.resize(op.args.size());
    for (size_t a = 0; a < op.args.size(); ++a) {
      const Slot& s = prog->slots_[static_cast<size_t>(op.args[a])];
      op.arg_off[a] = s.external ? -1 : s.offset;
      op.ext_ptr[a] = s.external ? s.bound.data() : nullptr;
    }
    op.out_off = prog->slots_[static_cast<size_t>(op.out)].offset;
  }
  prog->scores_off_ = prog->slots_[static_cast<size_t>(scores_slot)].offset;
  prog->deltas_off_ = prog->slots_[static_cast<size_t>(deltas_slot)].offset;
  if (feat_slot >= 0) {
    prog->feat_off_ = prog->slots_[static_cast<size_t>(feat_slot)].offset;
  }

  // --- elementwise geometry --------------------------------------------------
  for (Op& op : prog->ops_) {
    if (op.kind != OpKind::kEltwise) continue;
    const Shape& os = op.out_shape;
    const size_t rank = os.size();
    const Strides cs = contiguous_strides(os);
    const size_t nargs = op.args.size();
    std::vector<Strides> bstr(nargs);
    for (size_t a = 0; a < nargs; ++a) {
      bstr[a] = broadcast_strides(op.arg_shapes[a], os);
    }
    // Smallest d0 so that over [d0, rank) every arg is either uniformly
    // contiguous or uniformly broadcast (extent-1 dims are wildcards).
    size_t d0 = rank;
    std::vector<uint8_t> bcast(nargs, 0);
    for (size_t cand = rank; cand-- > 0;) {
      bool ok = true;
      std::vector<uint8_t> cb(nargs, 0);
      for (size_t a = 0; a < nargs && ok; ++a) {
        bool contig = true, bc = true;
        for (size_t d = cand; d < rank; ++d) {
          if (os[d] == 1) continue;
          if (bstr[a][d] != cs[d]) contig = false;
          if (bstr[a][d] != 0) bc = false;
        }
        if (!contig && !bc) {
          ok = false;
        } else {
          cb[a] = contig ? 0 : 1;  // fully-broadcast args re-read one value
        }
      }
      if (!ok) break;
      d0 = cand;
      bcast = cb;
    }
    op.elt_run = prod(os, d0, rank);
    op.elt_prefix = prod(os, 0, d0);
    op.elt_prefix_dims.assign(os.begin(),
                              os.begin() + static_cast<int64_t>(d0));
    op.elt_prefix_strides.assign(nargs * d0, 0);
    for (size_t a = 0; a < nargs; ++a) {
      for (size_t d = 0; d < d0; ++d) {
        op.elt_prefix_strides[a * d0 + d] = bstr[a][d];
      }
    }
    op.elt_arg_bcast = bcast;
  }

  // --- input bindings --------------------------------------------------------
  for (size_t s = 0; s < n_slots; ++s) {
    const Slot& ps = prog->slots_[s];
    if (!ps.is_input) continue;
    const char* name = slots_[s].input_name;
    if (name != nullptr && std::strcmp(name, "with_coords") == 0) {
      prog->coords_off_ = ps.offset;
      prog->batch_ = ps.shape[0];
      prog->img_h_ = ps.shape[2];
      prog->img_w_ = ps.shape[3];
    } else if (name != nullptr && std::strcmp(name, "pair_mask") == 0) {
      prog->mask_off_ = ps.offset;
    }
  }
  if (prog->coords_off_ < 0) {
    return fail("missing with_coords input binding");
  }
  if (!have_tokens_) return fail("no token stream recorded");
  prog->tokens_count_ = static_cast<int64_t>(tokens_.size());
  if (prog->mask_off_ >= 0) {
    // Mask geometry: [b, m+n, m+n] with n words per batch row.
    for (size_t s = 0; s < n_slots; ++s) {
      if (prog->slots_[s].is_input && slots_[s].input_name != nullptr &&
          std::strcmp(slots_[s].input_name, "pair_mask") == 0) {
        const int64_t kk = prog->slots_[s].shape[1];
        prog->mask_n_ = prog->tokens_count_ / prog->batch_;
        prog->mask_m_ = kk - prog->mask_n_;
        break;
      }
    }
  }

  static obs::Counter& compiles =
      obs::MetricsRegistry::global().counter("plan.compiles");
  compiles.inc();
  return prog;
}

}  // namespace yollo::plan
