#pragma once
// Compiled contraction plans: planning (pairwise order, axis pairing,
// permutations, workspace layout) is split from execution (the arithmetic).
//
// A plan is a pure function of the network's *topology* -- node shapes and
// edge structure; tensor contents never enter planning. Compiling once and
// replaying against fresh tensor contents is what makes Algorithm 1 cheap:
// every enumerated term's single-layer network shares one topology and
// differs only in the tensors at the chosen noise sites, so the l-level
// sweep costs O(plan + terms x replay) instead of O(terms x (plan + contract)).
//
// Execution is allocation-free in steady state: all intermediates live in a
// liveness-packed arena inside a caller-owned PlanWorkspace (one per
// thread), operand permutations are walks compiled at plan time
// (tsr::PermuteWalk: size-1 axes dropped, co-adjacent axes merged, the
// innermost run a strided loop) into reused scratch buffers, skipped
// entirely when the permutation is the identity, and every pairwise kernel
// -- in the plan, batched and environment executors alike, which share one
// traversal frame -- is the KernelTable::matmul entry of the shape rung
// compiled into the step (tsr::matmul_shape never runs per replay).
// Replaying a plan is bit-identical to contracting the network from scratch
// with the same options.
//
// An EnvSchedule derived from a plan adds one backward pass that yields
// the environment of chosen input slots, so every substitution at one of
// them costs a dot product instead of a replay (see EnvSchedule).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tensor/aligned.hpp"
#include "tensor/contract.hpp"
#include "tensor/kernels.hpp"
#include "tn/contractor.hpp"

namespace noisim::tn {

/// What one pairwise contraction executes. Slots 0..num_inputs-1 are the
/// network's nodes (in node-index order); slot num_inputs + s is the output
/// of step s.
struct ExecStep {
  std::size_t lhs = 0, rhs = 0;  // operand slots
  // Walks bringing lhs to [free..., contracted...] and rhs to
  // [contracted..., free...]. Unused when the permutation is the identity
  // (the operand is used in place, no copy).
  bool identity_a = true, identity_b = true;
  tsr::PermuteWalk a_walk, b_walk;
  std::size_t a_elems = 1, b_elems = 1;  // operand sizes (scratch sizing)
  std::size_t m = 1, k = 1, n = 1;       // matrix-shaped contraction dims
  tsr::MatmulShape shape = tsr::kMatmulGeneric;  // matmul_shape(m, k, n)
  std::size_t out_offset = 0;            // element offset into the arena
  std::size_t out_elems = 1;
};

/// One pairwise contraction of a compiled plan: the executed step plus the
/// permuted shape and source strides each walk was compiled from (the
/// fingerprint's record; empty for an identity permutation).
struct PlanStep : ExecStep {
  std::vector<std::size_t> a_perm_shape, a_src_stride;
  std::vector<std::size_t> b_perm_shape, b_src_stride;
};

/// Grow-only buffer of *uninitialized* complex elements. The batched arena
/// is written row by row (each kernel call writes its whole output row), so
/// value-initializing the whole allocation -- sized for the worst-case
/// batch, usually far beyond the rows a variant-compacted replay touches --
/// would fault and zero pages that are never read.
/// Storage is tsr::kKernelAlignment (64-byte) aligned like every other
/// executor buffer, so aligned vector loads are safe in any arena segment.
class ArenaBuffer {
 public:
  void ensure(std::size_t elems) {
    if (elems <= cap_) return;
    fault::poke("arena-alloc");
    raw_.reset(static_cast<double*>(
        ::operator new(2 * elems * sizeof(double), std::align_val_t{tsr::kKernelAlignment})));
    cap_ = elems;
  }
  cplx* data() { return reinterpret_cast<cplx*>(raw_.get()); }
  const cplx* data() const { return reinterpret_cast<const cplx*>(raw_.get()); }

 private:
  struct AlignedDelete {
    void operator()(double* p) const noexcept {
      ::operator delete(p, std::align_val_t{tsr::kKernelAlignment});
    }
  };
  std::unique_ptr<double[], AlignedDelete> raw_;
  std::size_t cap_ = 0;
};

/// Per-thread scratch a plan executes in: one arena per executor plus the
/// permutation scratch buffers -- buffers and per-execution settings, no
/// kernels (a step's kernel is the table's entry for its compiled rung).
/// Buffers only grow, so replaying a plan through the same workspace
/// allocates nothing in steady state. All kernel-visible buffers are
/// 64-byte aligned (tsr::aligned_vector / ArenaBuffer), so every tier's
/// vector loads see aligned arena segments.
struct PlanWorkspace {
  /// Executor seam: when set, plans replay their kernels through THIS
  /// table instead of the runtime-dispatched tsr::active_kernels() -- the
  /// indirection a GPU/remote executor slots in behind (any table must
  /// honor the bit-identity contract of tensor/kernels.hpp). Null selects
  /// the dispatched CPU tier. Either is resolved once per traversal.
  const tsr::KernelTable* kernels = nullptr;
  /// Cooperative run-time control (core/run_control.hpp), polled once per
  /// contraction step by ContractionPlan::execute, both BatchedPlan passes
  /// and both EnvSchedule passes, so a cancel or expired deadline stops a
  /// replay within one step. Lives on the workspace -- per-execution state -- rather than on
  /// the (cached, shared) plan or its compile options. Null disables.
  const core::RunControl* control = nullptr;
  tsr::aligned_vector<cplx> arena;
  ArenaBuffer batch_arena;  // batched replays only
  ArenaBuffer env_arena;    // environment passes only (EnvSchedule)
  std::vector<char> env_run;  // backward steps an environment pass runs
  tsr::aligned_vector<cplx> scratch_a, scratch_b;
  std::vector<const tsr::Tensor*> input_ptrs;  // for execute(const Network&)
  // Batched-replay scratch: variant keys of the varying inputs (in_vids),
  // every batched step's term -> unique-row map (vids), the per-step key /
  // unique-row buffers the variant compaction scan works on, and the
  // per-term boundary signatures / representatives of the sequential pass.
  std::vector<std::uint32_t> in_vids, vids, key_a, key_b, ukey_a, ukey_b, urep;
  std::vector<std::uint32_t> sig, term_rep, seq_last;
  std::vector<std::uint32_t> htab;  // first-occurrence probe table (dedup scans)
};

/// One pairwise step of a batched replay: the parent plan's executed step
/// (out_offset re-laid into the *batched* arena, out_elems per row) plus
/// the batch-dependent layout (varying flags, row bound) and the
/// materialized permutation gather tables. It inherits the step's shape
/// rung; the kernel table that rung indexes is resolved once per traversal
/// (never baked in at compile time), so plans cached across tier switches
/// -- PlanCache entries outlive NOISIM_KERNELS overrides in tests and
/// benchmarks -- always execute on the tier the caller selected.
struct BatchedStep : ExecStep {
  bool varying_a = false, varying_b = false, varying_out = false;
  // Gather tables (source offset per flat output position) when the
  // operand permutation is small enough to materialize; otherwise the
  // step's compiled walk runs per row.
  std::vector<std::uint32_t> a_gather, b_gather;
  /// Compile-time bound on distinct rows this step can hold: the variant
  /// structure of the varying slots in the step's dependency cone, capped
  /// at the batch capacity. Sizes the arena buffer for batched steps.
  std::size_t row_bound = 1;
  /// Root-region steps (row bound near the capacity: terms share almost
  /// nothing) replay per term through the small reused per-term arena
  /// segment instead of materializing a rows-wide batch buffer.
  bool sequential = false;
};

/// Batched replay of a ContractionPlan: K terms that share the plan's
/// topology and differ only in the tensors substituted at the declared
/// varying input slots execute in ONE traversal of the schedule.
///
///  * Intermediates downstream of a varying slot live as [K, ...] batched
///    buffers in a liveness-packed arena laid out at compile time (the
///    whole batched arena is checked against the workspace control's
///    memory ceiling before execute() commits it, so batch-induced MO
///    surfaces before any arithmetic);
///  * steps untouched by any varying slot run ONCE per batch, and every
///    row of their consumers reads that one value in place;
///  * rows are variant-compacted: terms whose operands are
///    known-identical (same substituted tensor pointers, recursively) map
///    to ONE stored row per step, so each distinct value is computed and
///    materialized exactly once -- Algorithm-1 batches are dominated by
///    the shared dominant factor, so most per-site cones collapse to a
///    handful of rows regardless of the batch size;
///  * each batched step is one loop over its distinct rows, calling the
///    KernelTable::matmul entry of the step's compiled shape rung;
///    permutation walks are materialized as gather tables, and an operand
///    is re-permuted only when its variant changes from one row to the
///    next;
///  * the merged-cone "root" region -- steps whose variant bound says every
///    term is distinct, so batching would only stream single-use rows
///    through memory -- replays per term through a small reused arena
///    segment that stays cache-hot, with whole per-term passes skipped
///    when a term's boundary signature matches an earlier term's. This
///    pass reuses a step's buffer when consecutive terms agree on its
///    operands, so callers should put the terms that share the most inputs
///    next to each other (e.g. all terms of one output bitstring together,
///    not all outputs of one term).
///
/// Every term reproduces the per-term replay bit for bit: uniform and
/// row-shared values are the same deterministic arithmetic computed once,
/// and every row runs the kernel per-term replay runs for the step's
/// shape rung (KernelTable::matmul; the gathered variant writes the same
/// bits).
/// Thread-safe like ContractionPlan: concurrent replays need distinct
/// workspaces.
class BatchedPlan {
 public:
  std::size_t capacity() const { return capacity_; }
  std::size_t num_varying() const { return varying_slots_.size(); }
  const std::vector<std::size_t>& varying_slots() const { return varying_slots_; }
  /// Batched arena high-water mark (elements) for a full-capacity replay.
  std::size_t workspace_elems() const { return arena_elems_; }
  /// Fraction of one term's schedule flops that fall in the SEQUENTIAL
  /// (per-term replayed) region. Near 1.0 the compile-time variant bounds
  /// say essentially every step is distinct across terms -- batching can
  /// save at most the remaining fraction, so callers holding a per-term
  /// fallback path (e.g. output-bitstring batching over a root-dominated
  /// plan) should prefer it.
  double sequential_flop_fraction() const {
    return term_flops_ > 0
               ? static_cast<double>(seq_flops_) / static_cast<double>(term_flops_)
               : 0.0;
  }

  /// Replay k <= capacity() terms. `shared[i]` supplies input slot i
  /// (ignored at varying slots); `varying[t * num_varying() + v]` supplies
  /// varying slot varying_slots()[v] for term t (term-major). Returns a
  /// tensor of shape [k, <plan output shape>...]; slice t is bit-identical
  /// to a per-term ContractionPlan::execute with term t's inputs.
  tsr::Tensor execute(std::span<const tsr::Tensor* const> shared,
                      std::span<const tsr::Tensor* const> varying, std::size_t k,
                      PlanWorkspace& ws, ContractStats* stats = nullptr) const;

 private:
  friend class ContractionPlan;
  BatchedPlan() = default;

  std::vector<BatchedStep> steps_;
  std::vector<std::size_t> input_elems_;
  std::vector<std::size_t> varying_slots_;
  std::vector<std::ptrdiff_t> varying_index_of_input_;  // -1 = shared slot
  std::vector<std::size_t> boundary_;  // varying batched slots read by the sequential pass
  bool has_seq_ = false;
  std::size_t capacity_ = 0;
  std::size_t arena_elems_ = 0;
  std::size_t term_flops_ = 0, seq_flops_ = 0;  // one term's schedule split
  std::size_t scratch_a_elems_ = 0, scratch_b_elems_ = 0;
  bool output_identity_ = true;
  std::vector<std::size_t> output_shape_;
  tsr::PermuteWalk output_walk_;
  std::vector<std::uint32_t> output_gather_;
  std::shared_ptr<std::atomic<std::size_t>> executions_;
};

/// One backward step of an EnvSchedule: the environment of one operand of
/// a forward step, computed from the environment of that step's output.
/// For the forward product out[m x n] = A'[m x k] . B'[k x n] (A', B' the
/// operands after the step's permutations), the lhs step computes
/// E_A' = E_out . B'^T and the rhs step E_B' = A'^T . E_out.
struct EnvStep {
  bool lhs = true;             // which operand's environment it writes
  std::size_t sibling = 0;     // the other operand's slot (forward value read)
  std::size_t parent = 0;      // backward step writing E_out; kNoParent at the root
  std::size_t m = 1, k = 1, n = 1;  // this kernel call's dims (not the forward step's)
  tsr::MatmulShape shape = tsr::kMatmulGeneric;  // matmul_shape(m, k, n)
  // Compiled walk reading the sibling's native buffer as B'^T [n x k]
  // (lhs) or A'^T [k x m] (rhs); empty when that walk is contiguous and the
  // sibling is read in place.
  std::optional<tsr::PermuteWalk> sib_walk;
  std::size_t sib_elems = 1;
  // The operand's permutation walk (PlanStep::a_walk / b_walk): the kernel
  // writes the environment in the permuted layout and tsr::scatter_walk
  // puts it back into the operand's native layout. Empty when the
  // permutation is the identity (the kernel writes in place).
  std::optional<tsr::PermuteWalk> scatter;
  std::size_t env_offset = 0;  // the operand's environment in the env arena
  std::size_t env_elems = 1;
  std::size_t out_env_offset = 0;  // environment of the step's output
  std::size_t bytes = 0;           // modeled traffic (see ContractStats::bytes_moved)

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
};

/// Environment (adjoint) schedule of a compiled ContractionPlan whose
/// result is a scalar: one forward pass, then one backward pass that yields
/// the environment E_t of every requested target input slot t -- the
/// tensor such that the network's value is sum_j E_t[j] * x[j] for any
/// tensor x substituted at t, all other inputs fixed (reverse-mode
/// contraction, Liao et al., arXiv:1903.09650). Algorithm 1's level-1
/// terms differ from the all-dominant network at one noise site only, so
/// one pass serves every one of them at roughly twice one forward's cost.
///
///  * Forward: the plan's own steps -- same (m, k, n), operand
///    permutations and kernel table -- so the returned value is
///    bit-identical to ContractionPlan::execute on the same inputs. Only
///    the arena offsets differ: forward values the backward reads stay live
///    until then.
///  * Backward: for each forward step on a root-to-target path, in reverse
///    order, the EnvSteps above. They are ordinary matmuls on the active
///    kernel tier; each environment is scattered back into its operand's
///    native layout through the step's permutation walk, so a target's
///    environment has the layout of the tensor it stands against.
///  * Which targets: execute() runs the backward only toward the targets a
///    caller asks for. Each environment value depends only on the inputs,
///    never on which other targets were requested.
///
/// Built in O(steps): each walk is the plan's compiled operand walk or one
/// compiled per backward step, with no per-element tables. Forward values,
/// environments and transposition/scatter scratch share one
/// liveness-packed arena (workspace_elems), checked against the workspace
/// control's memory ceiling before execute() commits it. Thread-safe like
/// ContractionPlan: concurrent passes need distinct workspaces.
class EnvSchedule {
 public:
  /// Target input slots, in the order targets were requested.
  const std::vector<std::size_t>& targets() const { return targets_; }
  const std::vector<EnvStep>& backward_steps() const { return bwd_; }
  /// Arena high-water mark (elements) of a pass toward every target.
  std::size_t workspace_elems() const { return arena_elems_; }
  /// Modeled MACs of the forward pass (the plan's total_flops()) and of a
  /// backward pass toward every target.
  std::size_t forward_flops() const { return fwd_flops_; }
  std::size_t backward_flops() const { return bwd_flops_; }

  /// Forward pass over `inputs` (inputs[i] stands in for node i), then the
  /// backward toward every target t with want[t] != 0 (want is aligned
  /// with targets()). Returns the network's value; env() then reads each
  /// wanted target's environment until the workspace runs another pass.
  /// `terms` is the number of logical single-layer evaluations the pass
  /// stands in for: stats count that many plan executions. Polls
  /// ws.control and pokes the exec-step fault sites once per forward and
  /// backward step.
  cplx execute(std::span<const tsr::Tensor* const> inputs, std::span<const char> want,
               PlanWorkspace& ws, ContractStats* stats = nullptr, std::size_t terms = 1) const;

  /// Environment of target t after an execute() that wanted it, in the
  /// native layout of input slot targets()[t].
  std::span<const cplx> env(std::size_t t, const PlanWorkspace& ws) const;

 private:
  friend class ContractionPlan;
  EnvSchedule() = default;

  std::vector<ExecStep> fwd_;  // the plan's steps, out_offset into the env arena
  std::vector<EnvStep> bwd_;
  std::vector<std::size_t> input_elems_;
  std::vector<std::size_t> targets_;
  std::vector<std::size_t> target_step_;  // backward step writing each target
  std::size_t root_env_offset_ = 0;
  std::size_t arena_elems_ = 0;
  std::size_t scratch_a_elems_ = 0, scratch_b_elems_ = 0;
  std::size_t peak_elems_ = 0;
  std::size_t fwd_flops_ = 0, fwd_bytes_ = 0, bwd_flops_ = 0;
  // The plan's replay counter: a pass counts as replays of its plan.
  std::shared_ptr<std::atomic<std::size_t>> executions_;
};

class ContractionPlan {
 public:
  /// Compile a plan for the network's topology. Ordering follows
  /// opts.strategy exactly as contract_network does (Auto = the fixed
  /// search of tn/contractor.hpp, keeping the min-total-flop order).
  /// Candidate orders are only scored, by shape-only walks of one reused
  /// compiler that is reset between candidates; the plan is materialized
  /// once, for the winning order. Within a strategy a walk stops once its
  /// running flops exceed that strategy's best so far, which cannot change
  /// the kept order (ties still go to the earlier candidate) or the flops
  /// ContractStats records per strategy. Throws MemoryOutError when every
  /// candidate has an intermediate above opts.max_tensor_elems, so MO
  /// surfaces at plan time, before any arithmetic runs; the whole arena
  /// (workspace_elems) meets the RunControl memory ceiling at execute().
  /// opts.control is polled per merge and per greedy candidate, so a
  /// cancel or expired deadline abandons the whole compile.
  static ContractionPlan compile(const Network& net, const ContractOptions& opts = {},
                                 ContractStats* stats = nullptr);

  /// Replay the plan against the tensors of `net` (topology must match the
  /// compiled one; sizes are checked).
  tsr::Tensor execute(const Network& net, PlanWorkspace& ws, ContractStats* stats = nullptr) const;

  /// Replay against substituted contents: inputs[i] stands in for node i.
  /// Thread-safe; concurrent replays need distinct workspaces.
  tsr::Tensor execute(std::span<const tsr::Tensor* const> inputs, PlanWorkspace& ws,
                      ContractStats* stats = nullptr) const;

  /// Compile a batched replay of this plan: up to `capacity` terms that
  /// differ only at the `varying_slots` input slots execute per traversal.
  /// `variant_counts` is required, one per varying slot: variant_counts[v]
  /// promises that at most that many *distinct* tensors will ever be
  /// substituted at varying_slots[v] across a batch -- e.g. the 4 SVD
  /// factors of an Algorithm-1 noise site, or a channel's unitary-mixture
  /// size. It sizes each step's arena buffer to the variant product of its
  /// dependency cone, capped at `capacity` rows (execute() checks it and
  /// fails loudly if violated).
  /// `max_varied_per_term` additionally promises that within any one term
  /// at most that many varying slots carry something other than their
  /// first (index-0) tensor -- Algorithm 1's approximation level: all but
  /// u <= l sites carry the dominant factor. It tightens the row bounds
  /// further and decides which steps replay per term (see BatchedPlan).
  /// `unconstrained[v]` (optional, aligned with varying_slots) exempts slot
  /// v from that per-term promise: the slot may carry ANY of its declared
  /// variants in every term (e.g. an output-basis cap, which flips freely
  /// across a batch of bitstrings), so its variant count enters each cone's
  /// row bound as a full multiplicative factor instead of a deviation.
  /// The batched arena (workspace_elems, larger than the per-term plan's)
  /// meets the RunControl memory ceiling when execute() commits it.
  BatchedPlan compile_batched(std::span<const std::size_t> varying_slots, std::size_t capacity,
                              const ContractOptions& opts = {}, ContractStats* stats = nullptr,
                              std::span<const std::size_t> variant_counts = {},
                              std::size_t max_varied_per_term = static_cast<std::size_t>(-1),
                              std::span<const char> unconstrained = {}) const;

  /// Compile the environment schedule of this plan toward the given input
  /// slots (distinct; see EnvSchedule). The plan's result must be a scalar.
  /// The schedule's arena (larger than the plan's) meets the RunControl
  /// memory ceiling when execute() commits it. Counts one plans_compiled.
  EnvSchedule compile_env(std::span<const std::size_t> targets, const ContractOptions& opts = {},
                          ContractStats* stats = nullptr) const;

  const std::vector<PlanStep>& steps() const { return steps_; }
  std::size_t num_inputs() const { return input_elems_.size(); }
  /// Largest single intermediate (elements).
  std::size_t peak_elems() const { return peak_elems_; }
  /// Schedule cost: sum of m*k*n over all pairwise steps.
  std::size_t total_flops() const { return total_flops_; }
  /// Modeled memory traffic of one replay, in bytes (operand reads -- 3x
  /// for operands copied through a permutation -- plus one output write per
  /// step, plus the final output materialization).
  std::size_t total_bytes() const { return total_bytes_; }
  /// Arena high-water mark (elements): peak memory of all live
  /// intermediates under the liveness-packed layout.
  std::size_t workspace_elems() const { return arena_elems_; }
  /// Printable digest of the full schedule; equal topologies compile to
  /// equal fingerprints (plan determinism).
  std::string fingerprint() const;
  /// The ordering strategy that produced this schedule. Direct compiles
  /// report their strategy; an Auto compile reports the winning candidate's
  /// strategy (Greedy, Alternating or RandomGreedy), or Sequential when its
  /// last resort ran -- never Auto itself.
  OrderStrategy chosen_strategy() const { return chosen_strategy_; }

 private:
  ContractionPlan() = default;

  const cplx* slot_data(std::size_t slot, std::span<const tsr::Tensor* const> inputs,
                        const PlanWorkspace& ws) const;

  std::vector<PlanStep> steps_;
  std::vector<std::size_t> input_elems_;  // expected size per input node
  std::size_t arena_elems_ = 0;
  std::size_t scratch_a_elems_ = 0, scratch_b_elems_ = 0;
  std::size_t peak_elems_ = 0;
  std::size_t total_flops_ = 0;
  std::size_t total_bytes_ = 0;
  // Final axis reorder to ascending open-edge order (source strides for the
  // fingerprint, the compiled walk for execution).
  bool output_identity_ = true;
  std::vector<std::size_t> output_shape_;
  std::vector<std::size_t> output_src_stride_;
  tsr::PermuteWalk output_walk_;
  OrderStrategy chosen_strategy_ = OrderStrategy::Greedy;
  // Replay counter for plan-reuse accounting; shared so plans stay movable.
  std::shared_ptr<std::atomic<std::size_t>> executions_;

  friend struct PlanCompiler;
};

}  // namespace noisim::tn
