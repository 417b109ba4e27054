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
// thread), operand permutations are precomputed stride walks into reused
// scratch buffers (skipped entirely when the permutation is the identity),
// and the pairwise kernel is the cache-blocked matmul of tensor/contract.hpp.
// Replaying a plan is bit-identical to contracting the network from scratch
// with the same options.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/aligned.hpp"
#include "tensor/contract.hpp"
#include "tensor/kernels.hpp"
#include "tn/contractor.hpp"

namespace noisim::tn {

/// One pairwise contraction of a compiled plan. Slots 0..num_inputs-1 are
/// the network's nodes (in node-index order); slot num_inputs + s is the
/// output of step s.
struct PlanStep {
  std::size_t lhs = 0, rhs = 0;  // operand slots
  // Precomputed permutation walks bringing lhs to [free..., contracted...]
  // and rhs to [contracted..., free...]; empty when the permutation is the
  // identity (the operand is used in place, no copy).
  bool identity_a = true, identity_b = true;
  std::vector<std::size_t> a_perm_shape, a_src_stride;
  std::vector<std::size_t> b_perm_shape, b_src_stride;
  std::size_t a_elems = 1, b_elems = 1;  // operand sizes (scratch sizing)
  std::size_t m = 1, k = 1, n = 1;       // matrix-shaped contraction dims
  std::size_t out_offset = 0;            // element offset into the arena
  std::size_t out_elems = 1;
};

/// Grow-only buffer of *uninitialized* complex elements. The batched arena
/// is written row by row (each output row is zero-filled immediately before
/// its accumulation), so value-initializing the whole allocation -- sized
/// for the worst-case batch, usually far beyond the rows a variant-compacted
/// replay touches -- would fault and zero pages that are never read.
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

/// Per-thread scratch a plan executes in: the intermediate arena plus the
/// permutation scratch buffers. Buffers only grow, so replaying a plan
/// through the same workspace allocates nothing in steady state. All
/// kernel-visible buffers are 64-byte aligned (tsr::aligned_vector /
/// ArenaBuffer), so every tier's vector loads see aligned arena segments.
struct PlanWorkspace {
  /// Executor seam: when set, plans replay their kernels through THIS
  /// table instead of the runtime-dispatched tsr::active_kernels() -- the
  /// indirection a GPU/remote executor slots in behind (any table must
  /// honor the bit-identity contract of tensor/kernels.hpp). Null selects
  /// the dispatched CPU tier.
  const tsr::KernelTable* kernels = nullptr;
  /// Cooperative run-time control (core/run_control.hpp), polled once per
  /// contraction step by ContractionPlan::execute and both BatchedPlan
  /// passes, so a cancel or expired deadline stops a replay within one
  /// step. Lives on the workspace -- per-execution state -- rather than on
  /// the (cached, shared) plan or its compile options. Null disables.
  const core::RunControl* control = nullptr;
  tsr::aligned_vector<cplx> arena;
  ArenaBuffer batch_arena;  // batched replays only
  tsr::aligned_vector<cplx> scratch_a, scratch_b;
  std::vector<tsr::detail::MatmulFn> step_kernels;  // per-traversal dispatch
  std::vector<std::size_t> idx;                // odometer scratch
  std::vector<const tsr::Tensor*> input_ptrs;  // for execute(const Network&)
  // Batched-replay scratch: variant keys of the varying inputs (in_vids),
  // every batched step's term -> unique-row map (vids), the per-step key /
  // unique-row buffers the variant compaction scan works on, and the
  // per-term boundary signatures / representatives of the sequential pass.
  std::vector<std::uint32_t> in_vids, vids, key_a, key_b, ukey_a, ukey_b, urep;
  std::vector<std::uint32_t> sig, term_rep, seq_last;
  std::vector<std::uint32_t> htab;  // first-occurrence probe table (dedup scans)
};

/// One pairwise step of a batched replay: the parent PlanStep plus the
/// batch-dependent layout (batched arena offset, varying flags) and the
/// materialized permutation gather tables. The step's (m, k, n) kernel is
/// resolved from the ACTIVE kernel table once per traversal (not baked in
/// at compile time), so plans cached across tier switches -- PlanCache
/// entries outlive NOISIM_KERNELS overrides in tests and benchmarks --
/// always execute on the tier the caller selected.
struct BatchedStep {
  std::size_t lhs = 0, rhs = 0;
  bool varying_a = false, varying_b = false, varying_out = false;
  bool identity_a = true, identity_b = true;
  // Gather tables (source offset per flat output position) when the
  // operand permutation is small enough to materialize; otherwise the
  // odometer walk below runs per slice.
  std::vector<std::uint32_t> a_gather, b_gather;
  std::vector<std::size_t> a_perm_shape, a_src_stride;
  std::vector<std::size_t> b_perm_shape, b_src_stride;
  std::size_t a_elems = 1, b_elems = 1;
  std::size_t m = 1, k = 1, n = 1;
  std::size_t out_offset = 0;  // element offset into the *batched* arena
  std::size_t out_elems = 1;   // per-row output size
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
///    whole batched arena is checked against max_workspace_elems there, so
///    batch-induced MO surfaces before any arithmetic);
///  * steps untouched by any varying slot run ONCE per batch and broadcast
///    into their consumers (stride-0 operands), instead of once per term;
///  * slices are variant-compacted: terms whose operands are
///    known-identical (same substituted tensor pointers, recursively) map
///    to ONE stored row per step, so each distinct value is computed and
///    materialized exactly once -- Algorithm-1 batches are dominated by
///    the shared dominant factor, so most per-site cones collapse to a
///    handful of rows regardless of the batch size;
///  * permutation walks are materialized as gather tables and operand
///    dispatch/kernel selection happens once per step, not once per term;
///  * the merged-cone "root" region -- steps whose variant bound says every
///    term is distinct, so batching would only stream single-use rows
///    through memory -- replays per term through a small reused arena
///    segment that stays cache-hot, with whole per-term passes skipped
///    when a term's boundary signature matches an earlier term's.
///
/// Every term reproduces the per-term replay bit for bit: broadcast and
/// row-shared slices are the same deterministic arithmetic computed once,
/// and the per-row kernels accumulate ascending-k exactly like the
/// per-term kernel. Thread-safe like ContractionPlan: concurrent replays
/// need distinct workspaces.
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
  std::size_t max_rank_ = 0;
  bool output_identity_ = true;
  std::vector<std::size_t> output_shape_;
  std::vector<std::size_t> output_src_stride_;
  std::vector<std::uint32_t> output_gather_;
  double timeout_seconds_ = 0.0;
  std::shared_ptr<std::atomic<std::size_t>> executions_;
};

class ContractionPlan {
 public:
  /// Compile a plan for the network's topology. Ordering follows
  /// opts.strategy exactly as contract_network does (Auto = the fixed
  /// search of tn/contractor.hpp, keeping the min-total-flop order).
  /// Candidate orders are only scored; the plan is materialized once, for
  /// the winning order. Throws MemoryOutError when every candidate has an
  /// intermediate above opts.max_tensor_elems (or an arena above
  /// opts.max_workspace_elems) and TimeoutError past opts.timeout_seconds,
  /// so MO/TO surface at plan time, before any arithmetic runs.
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
  /// `variant_counts[v]` (optional) promises that at most that many
  /// *distinct* tensors will ever be substituted at varying_slots[v] across
  /// a batch -- e.g. the 4 SVD factors of an Algorithm-1 noise site, or a
  /// channel's unitary-mixture size. The promise tightens each step's
  /// arena buffer from `capacity` rows to the variant product of its
  /// dependency cone (execute() checks it and fails loudly if violated);
  /// empty means no promise (every varying buffer gets `capacity` rows).
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
  /// Throws MemoryOutError when the batched arena exceeds
  /// opts.max_workspace_elems (batch-aware enforcement: the per-term plan
  /// may fit a budget its batched counterpart exceeds).
  BatchedPlan compile_batched(std::span<const std::size_t> varying_slots, std::size_t capacity,
                              const ContractOptions& opts = {}, ContractStats* stats = nullptr,
                              std::span<const std::size_t> variant_counts = {},
                              std::size_t max_varied_per_term = static_cast<std::size_t>(-1),
                              std::span<const char> unconstrained = {}) const;

  const std::vector<PlanStep>& steps() const { return steps_; }
  std::size_t num_inputs() const { return input_elems_.size(); }
  /// Largest single intermediate (elements).
  std::size_t peak_elems() const { return peak_elems_; }
  /// Schedule cost: sum of m*k*n over all pairwise steps.
  std::size_t total_flops() const { return total_flops_; }
  /// Modeled memory traffic of one replay, in bytes (operand reads -- 3x
  /// for operands copied through a permutation -- plus output zero-fill and
  /// write per step, plus the final output materialization).
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
  std::size_t max_rank_ = 0;
  std::size_t peak_elems_ = 0;
  std::size_t total_flops_ = 0;
  std::size_t total_bytes_ = 0;
  // Final axis reorder to ascending open-edge order.
  bool output_identity_ = true;
  std::vector<std::size_t> output_shape_;
  std::vector<std::size_t> output_src_stride_;
  double timeout_seconds_ = 0.0;
  OrderStrategy chosen_strategy_ = OrderStrategy::Greedy;
  // Replay counter for plan-reuse accounting; shared so plans stay movable.
  std::shared_ptr<std::atomic<std::size_t>> executions_;

  friend struct PlanCompiler;
};

}  // namespace noisim::tn
