#pragma once
// Amplitude evaluation <v| G_d ... G_1 |psi> for gate lists, with two
// backends:
//  * TensorNetwork -- builds the circuit's tensor network and contracts it
//    (the paper's method; scales with treewidth, not qubit count);
//  * StateVector   -- Schrodinger simulation (exact reference, exponential
//    in qubit count but cheap for small circuits).
//
// Gate lists here are plain vectors of qc::Gate so that the approximation
// engine can splice in non-unitary 1-qubit insertions (the SVD factors).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "tn/contractor.hpp"
#include "tn/plan.hpp"

namespace noisim::core {

/// Auto uses the state vector up to this qubit count, TN beyond. For the
/// paper's shallow benchmark circuits TN contraction beats the 2^n sweep
/// well before 16 qubits, so the cutoff sits at 12.
inline constexpr int kSvMaxQubits = 12;

struct EvalOptions {
  enum class Backend { Auto, StateVector, TensorNetwork };
  Backend backend = Backend::Auto;
  tn::ContractOptions tn;
  /// Run inverse-pair cancellation on the gate list before evaluating
  /// (pays off when the list embeds C then C^dagger around insertions).
  bool simplify = false;
};

/// Bit of qubit q in an n-qubit basis label: qubit 0 is the most significant
/// bit. For n > 64 only the *last* 64 qubits are addressable through the
/// std::uint64_t label; qubits 0..n-65 are fixed to |0> (which covers the
/// paper's experiments -- they all use |0...0> inputs and outputs).
inline bool basis_bit(std::uint64_t bits, int n, int q) {
  const int shift = n - 1 - q;
  return shift < 64 && ((bits >> shift) & 1);
}

/// Throws LinalgError when basis label `bits` sets a bit at or above
/// position n, which basis_bit would silently ignore. A no-op for n >= 64,
/// where every label is in range.
inline void require_basis_label(std::uint64_t bits, int n, const char* what) {
  if (n >= 0 && n < 64 && (bits >> n) != 0)
    la::detail::fail(std::string(what) + ": basis label out of range for " + std::to_string(n) +
                     " qubits");
}

/// Build the tensor network of <v| gates |psi> over n qubits with
/// computational-basis product states |psi_bits>, |v_bits>.
/// `conjugate` conjugates every tensor entry. The library never sets it
/// (Algorithm 1 contracts one layer per term); it stays only because
/// perfbench/src/workloads.cpp passes it.
tn::Network amplitude_network(int n, const std::vector<qc::Gate>& gates,
                              std::uint64_t psi_bits, std::uint64_t v_bits,
                              bool conjugate = false);

/// Evaluate <v| gates |psi>. Entry-wise conjugating every gate matrix
/// conjugates the result bit for bit (up to the sign of an exact zero):
/// complex products and sums are sign-symmetric under round-to-nearest
/// without FMA contraction.
cplx amplitude(int n, const std::vector<qc::Gate>& gates, std::uint64_t psi_bits,
               std::uint64_t v_bits, const EvalOptions& opts = {},
               tn::ContractStats* stats = nullptr);

/// Evaluate <v_t| gates |psi> for EVERY output bitstring v_t in `v_bits`
/// with the circuit evaluated once: the state-vector backend runs the
/// single forward evolution and reads all amplitudes off the final state;
/// the tensor-network backend compiles the skeleton once and replays it
/// output-batched (the basis caps become varying slots of a
/// tn::BatchedPlan, so steps outside every cap's light cone run once per
/// batch -- see AmplitudeTemplate::compile_batched_outputs). Element t is
/// bit-identical to amplitude(n, gates, psi_bits, v_bits[t], ...) with the
/// same options; a single bitstring, or an output batch that shares no
/// work, replays the per-bitstring plan instead (batched_plan_or_null),
/// which is bit-identical too.
std::vector<cplx> batch_amplitudes(int n, const std::vector<qc::Gate>& gates,
                                   std::uint64_t psi_bits,
                                   std::span<const std::uint64_t> v_bits,
                                   const EvalOptions& opts = {},
                                   tn::ContractStats* stats = nullptr);

/// |0> or |1> as a rank-1 tensor (the networks' input/output caps).
tsr::Tensor basis_state_tensor(bool one);

/// A gate matrix as the tensor its network node carries: 2x2 matrices stay
/// rank-2 [out, in]; 4x4 (2-qubit) matrices become the rank-4
/// [out_a, out_b, in_a, in_b] gate tensor. This is the single definition of
/// the node layout amplitude_network uses -- substitution paths (Algorithm-1
/// insertions, trajectory samples) must build their tensors through it.
tsr::Tensor gate_matrix_tensor(const la::Matrix& m, int num_qubits);

/// True iff `opts` resolves to the tensor-network backend for n qubits
/// (explicit TensorNetwork, or Auto past the state-vector cutoff).
inline bool uses_tensor_network(const EvalOptions& opts, int n) {
  return opts.backend == EvalOptions::Backend::TensorNetwork ||
         (opts.backend == EvalOptions::Backend::Auto && n > kSvMaxQubits);
}

/// Returns `opts` unchanged. Kept only because perfbench/src/workloads.cpp
/// calls it; the library never does.
inline EvalOptions resolved_eval_options(int, const std::vector<qc::Gate>&,
                                         const EvalOptions& opts) {
  return opts;
}

/// Output-batched traversal shape shared by the Algorithm-1 sweep and the
/// trajectory sweep: up to kOutputChunk outputs per traversal, and at most
/// kMaxBatchPairs (term or sample, output) pairs per traversal -- the
/// measured batched-arena knee on the Fig. 4-style grids.
inline constexpr std::size_t kOutputChunk = 32;
inline constexpr std::size_t kMaxBatchPairs = 256;

/// A compiled batch whose schedule is essentially ALL sequential (per-term)
/// work -- the compile-time variant bounds found no step that terms could
/// share -- can only add bookkeeping over per-term plan replay.
inline bool output_batch_worthwhile(const tn::BatchedPlan& bp) {
  return bp.sequential_flop_fraction() < 0.999;
}

/// Plan-once / replay-per-term amplitude evaluation.
///
/// Builds the tensor network of <v| skeleton |psi> once, compiles its
/// contraction plan once, and replays the plan with per-call tensor
/// substitutions at chosen nodes. Every Algorithm-1 term and every TN
/// trajectory sample shares one topology (only the noise-site insertions
/// change), so this turns O(terms x (plan + contract)) into
/// O(plan + terms x contract).
///
/// The template is immutable after construction and safe to share across
/// worker threads; each worker evaluates through its own Session (which
/// owns the plan workspace). Construction compiles the plan, so
/// MemoryOutError / TimeoutError surface here -- at plan time -- exactly
/// like they would on a first contraction.
class AmplitudeTemplate {
 public:
  /// `skeleton` must stay shape-stable under substitution: replacement
  /// tensors carry the same shape as the gate they stand in for.
  AmplitudeTemplate(int n, const std::vector<qc::Gate>& skeleton, std::uint64_t psi_bits,
                    std::uint64_t v_bits, const EvalOptions& opts);

  /// Network node carrying skeleton gate `gate_index` (for substitutions).
  std::size_t node_of_gate(std::size_t gate_index) const {
    return static_cast<std::size_t>(n_) + gate_index;
  }

  /// Network node carrying qubit q's output cap <v_q| (for substitutions
  /// and output-batched evaluation). Node order is: n input caps, the
  /// skeleton's gates, n output caps.
  std::size_t node_of_output_cap(int q) const {
    return static_cast<std::size_t>(n_) + num_gates_ + static_cast<std::size_t>(q);
  }

  /// The n output-cap nodes in qubit order -- the varying slots
  /// compile_batched_outputs declares.
  std::vector<std::size_t> output_cap_nodes() const;

  /// Shared <0| / <1| cap tensor (same values basis_state_tensor builds).
  /// fill_output_caps hands out these two objects, so the batched
  /// executor's pointer-identity compaction shares rows across bitstrings
  /// that agree on a qubit.
  const tsr::Tensor& output_cap(bool one) const { return one ? cap_one_ : cap_zero_; }

  /// Write the n cap-tensor pointers for output bitstring `v_bits` to
  /// ptrs[0..n): ptrs[q] = &output_cap(bit q of v_bits). The span must
  /// hold at least n entries; extra entries are left untouched (callers
  /// fill per-output or per-pair blocks of a larger table).
  void fill_output_caps(std::uint64_t v_bits, std::span<const tsr::Tensor*> ptrs) const;

  const tn::ContractionPlan& plan() const { return plan_; }
  /// Stats recorded while compiling the plan (plans_compiled = 1).
  const tn::ContractStats& compile_stats() const { return compile_stats_; }

  /// Compile a batched replay of the template's plan: up to `capacity`
  /// terms differing only at the given (network node) slots execute per
  /// traversal. `variant_counts[v]` (optional) promises at most that many
  /// distinct tensors ever substituted at nodes[v], shrinking the batched
  /// arena to each step's variant product (see
  /// tn::ContractionPlan::compile_batched). The batched arena is larger
  /// than the per-term plan's; a RunControl memory ceiling meets it when a
  /// BatchedSession commits it.
  tn::BatchedPlan compile_batched(std::span<const std::size_t> nodes, std::size_t capacity,
                                  tn::ContractStats* stats = nullptr,
                                  std::span<const std::size_t> variant_counts = {},
                                  std::size_t max_varied_per_term =
                                      static_cast<std::size_t>(-1),
                                  std::span<const char> unconstrained = {}) const {
    return plan_.compile_batched(nodes, capacity, copts_, stats, variant_counts,
                                 max_varied_per_term, unconstrained);
  }

  /// Compile the plan's environment schedule toward the given (network
  /// node) input slots (see tn::EnvSchedule). Its arena meets a RunControl
  /// memory ceiling when a pass commits it.
  tn::EnvSchedule compile_env(std::span<const std::size_t> nodes,
                              tn::ContractStats* stats = nullptr) const {
    return plan_.compile_env(nodes, copts_, stats);
  }

  /// Batched replay across OUTPUT BITSTRINGS: the n output-cap nodes become
  /// the varying slots (2 variants each -- <0| and <1| -- exempt from any
  /// per-term deviation promise, since a bitstring flips caps freely), so
  /// one traversal evaluates the skeleton amplitude at up to `capacity`
  /// output bitstrings. Steps outside every cap's light cone run once per
  /// batch; cap-cone steps store one row per distinct projection of the
  /// batch's bitstrings onto the cone's qubits. Like compile_batched, the
  /// arena meets a RunControl memory ceiling only when it is committed.
  tn::BatchedPlan compile_batched_outputs(std::size_t capacity,
                                          tn::ContractStats* stats = nullptr) const;

  /// (node index, replacement tensor) pair for Session::evaluate.
  using Substitution = std::pair<std::size_t, const tsr::Tensor*>;

  /// Per-thread evaluation state: plan workspace + input pointer table.
  class Session {
   public:
    /// Evaluate the skeleton amplitude with each subs[i].first node's
    /// tensor replaced by *subs[i].second (shapes must match). Replays the
    /// compiled plan; no planning, near-zero allocation in steady state.
    cplx evaluate(std::span<const Substitution> subs);
    /// Cooperative run-time control: every plan replay through this session
    /// polls it at step granularity (tn::PlanWorkspace::control). Sessions
    /// are per-call state, so the control lives here and never on the
    /// (cached, shared) template. Null disables.
    void set_control(const RunControl* control) { ws_.control = control; }
    /// Contraction stats accumulated across evaluate calls.
    const tn::ContractStats& stats() const { return stats_; }

   private:
    friend class AmplitudeTemplate;
    explicit Session(const AmplitudeTemplate& tmpl);
    const AmplitudeTemplate* tmpl_;
    tn::PlanWorkspace ws_;
    std::vector<const tsr::Tensor*> inputs_;
    tn::ContractStats stats_;
  };

  /// A fresh session; the template must outlive it.
  Session session() const { return Session(*this); }

  /// Per-thread batched evaluation state over a compiled BatchedPlan:
  /// workspace plus the shared-input table. Evaluates K same-topology
  /// amplitudes (e.g. K Algorithm-1 terms or K trajectory samples) in one
  /// plan traversal; each amplitude is bit-identical to Session::evaluate
  /// with the same substitutions.
  class BatchedSession {
   public:
    /// Template and batched plan must outlive the session; `bplan` must
    /// have been compiled from this template's plan.
    BatchedSession(const AmplitudeTemplate& tmpl, const tn::BatchedPlan& bplan);
    /// Evaluate k <= bplan.capacity() amplitudes: ptrs[t * V + v] stands in
    /// at varying node bplan.varying_slots()[v] for term t (V = number of
    /// varying nodes). Writes the k amplitudes to `out`.
    void evaluate(std::span<const tsr::Tensor* const> ptrs, std::size_t k,
                  std::span<cplx> out);
    /// Like evaluate(ptrs, k, out) but with per-call substitutions at
    /// SHARED (non-varying) nodes first: every term of the batch sees
    /// subs[i].first's tensor replaced by *subs[i].second (shapes must
    /// match). This is how one output-batched traversal evaluates a single
    /// Algorithm-1 term or trajectory sample at many bitstrings -- the
    /// term's noise-site tensors go in as shared substitutions, the caps
    /// as varying slots. The substitutions are undone before returning.
    void evaluate(std::span<const Substitution> subs,
                  std::span<const tsr::Tensor* const> ptrs, std::size_t k,
                  std::span<cplx> out);
    /// Terms per traversal (the batched plan's capacity).
    std::size_t capacity() const { return bplan_->capacity(); }
    /// Cooperative run-time control, polled at step granularity by every
    /// batched replay through this session (see Session::set_control).
    void set_control(const RunControl* control) { ws_.control = control; }
    /// Contraction stats accumulated across evaluate calls.
    const tn::ContractStats& stats() const { return stats_; }

   private:
    const AmplitudeTemplate* tmpl_;
    const tn::BatchedPlan* bplan_;
    tn::PlanWorkspace ws_;
    std::vector<const tsr::Tensor*> shared_;
    tn::ContractStats stats_;
  };

 private:
  friend class EnvEvaluator;
  // Declaration order matters: compile_stats_ is written while plan_
  // initializes, and plan_ compiles from net_ under copts_, which is kept
  // for compile_batched.
  tn::Network net_;
  tn::ContractStats compile_stats_;
  tn::ContractOptions copts_;
  tn::ContractionPlan plan_;
  int n_ = 0;
  std::size_t num_gates_ = 0;
  // Shared <0| / <1| caps for output-batched evaluation (see output_cap).
  tsr::Tensor cap_zero_, cap_one_;
};

/// The batched plan a ReplayEvaluator should run for `capacity` terms per
/// traversal, or null when per-term replay is the right call: capacity <= 1
/// (a batch of one shares nothing) or the batch shares no work
/// (!output_batch_worthwhile). `compile()` builds the capacity-wide plan as
/// a std::shared_ptr<const tn::BatchedPlan> (or fetches it from a plan
/// cache); its exceptions propagate.
template <class Compile>
std::shared_ptr<const tn::BatchedPlan> batched_plan_or_null(std::size_t capacity,
                                                            Compile&& compile) {
  if (capacity <= 1) return nullptr;
  std::shared_ptr<const tn::BatchedPlan> bplan = compile();
  return output_batch_worthwhile(*bplan) ? bplan : nullptr;
}

/// Per-worker replay of same-topology amplitudes that differ only at the
/// template's `slots` nodes -- the evaluation path of every plan-replay
/// engine (the TN trajectory samplers, batch_amplitudes, and the
/// Algorithm-1 terms an EnvEvaluator does not cover). With a batched plan
/// (compiled over exactly these slots), up to its capacity terms run per
/// traversal; with none, each term replays the template's per-term plan. Every amplitude is bit-identical
/// either way, so the choice only moves time and memory.
class ReplayEvaluator {
 public:
  /// Template, slots and batched plan (may be null) must outlive the
  /// evaluator.
  /// `control` (cooperative run-time control, may be null) is polled at step
  /// granularity by every replay, as in AmplitudeTemplate::Session.
  ReplayEvaluator(const AmplitudeTemplate& tmpl, std::span<const std::size_t> slots,
                  const tn::BatchedPlan* bplan, const RunControl* control = nullptr);
  /// Evaluate k amplitudes: ptrs[t * V + v] stands in at slots[v] for term t
  /// (V = number of slots), and every term sees the `shared` substitutions
  /// at non-varying nodes. Writes the k amplitudes to out[0..k). Any k: the
  /// batched path walks capacity-wide traversals. Order matters for cost,
  /// not bits: the batched plan's per-term root pass reuses a step when
  /// consecutive terms agree on its operands, so put the terms that share
  /// the most inputs next to each other.
  void evaluate(std::span<const AmplitudeTemplate::Substitution> shared,
                std::span<const tsr::Tensor* const> ptrs, std::size_t k, std::span<cplx> out);
  /// Contraction stats accumulated across evaluate calls.
  const tn::ContractStats& stats() const;

 private:
  std::span<const std::size_t> slots_;
  std::optional<AmplitudeTemplate::BatchedSession> batched_;
  std::optional<AmplitudeTemplate::Session> per_term_;
  std::vector<AmplitudeTemplate::Substitution> subs_;  // per-term scratch
};

/// Per-worker environment passes over a template's tn::EnvSchedule: one
/// forward + backward yields the amplitude and the environment of every
/// wanted target node, after which any tensor K at target t gives the
/// amplitude with K substituted there as overlap(t, K) -- a dot product
/// instead of a replay. This is how the Algorithm-1 sweep evaluates its
/// level-0 and level-1 terms. The amplitude is bit-identical to replaying
/// the plan; an overlap differs from replaying the substituted network at
/// roundoff only (a different summation order), and depends only on the
/// inputs -- never on which other targets a pass wanted.
class EnvEvaluator {
 public:
  /// Template and schedule (compiled from the template's plan) must outlive
  /// the evaluator. `control` (may be null) is polled at step granularity.
  EnvEvaluator(const AmplitudeTemplate& tmpl, const tn::EnvSchedule& sched,
               const RunControl* control = nullptr);
  /// Run one pass with `subs` substituted (undone before returning) and
  /// the backward toward every target t with want[t] != 0. `terms` is the
  /// number of single-layer evaluations the pass stands in for (stats).
  cplx evaluate(std::span<const AmplitudeTemplate::Substitution> subs, std::span<const char> want,
                std::size_t terms);
  /// <E_t, K> = sum_j E_t[j] * K[j] in ascending flat order, for target t
  /// wanted by the last evaluate(); K has the shape of the node it replaces.
  cplx overlap(std::size_t t, const tsr::Tensor& k) const;
  /// Contraction stats accumulated across evaluate calls.
  const tn::ContractStats& stats() const { return stats_; }

 private:
  const AmplitudeTemplate* tmpl_;
  const tn::EnvSchedule* sched_;
  tn::PlanWorkspace ws_;
  std::vector<const tsr::Tensor*> inputs_;
  tn::ContractStats stats_;
};

}  // namespace noisim::core
