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
/// through one ReplayEvaluator, up to 64 outputs per traversal (the basis
/// caps become varying slots of a tn::BatchedPlan, so steps outside every
/// cap's light cone run once per batch -- see ReplayLayout). Element t is
/// bit-identical to amplitude(n, gates, psi_bits, v_bits[t], ...) with the
/// same options; a single bitstring, or an output batch that shares no
/// work, replays the per-bitstring plan instead (batched_plan_or_null),
/// which is bit-identical too. opts.tn.control governs the compile and
/// every replay, its memory ceiling included.
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

/// Output-batched traversal shape of every replay engine (see
/// ReplayLayout): up to kOutputChunk outputs per traversal, and at most
/// kMaxBatchPairs (row, output) pairs per traversal -- the measured
/// batched-arena knee on the Fig. 4-style grids.
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
/// Builds the tensor network of <v| skeleton |psi> once and compiles its
/// contraction plan once; a ReplayEvaluator then replays the plan with
/// per-term tensor substitutions at chosen nodes. Every Algorithm-1 term and
/// every TN trajectory sample shares one topology (only the noise-site
/// insertions and the output caps change), so this turns
/// O(terms x (plan + contract)) into O(plan + terms x contract).
///
/// The template is immutable after construction and safe to share across
/// worker threads; each worker evaluates through its own ReplayEvaluator or
/// EnvEvaluator (which owns the plan workspace). Construction compiles the
/// plan, so MemoryOutError / TimeoutError surface here -- at plan time --
/// exactly like they would on a first contraction.
class AmplitudeTemplate {
 public:
  /// `skeleton` must stay shape-stable under substitution: replacement
  /// tensors carry the same shape as the gate they stand in for.
  AmplitudeTemplate(int n, const std::vector<qc::Gate>& skeleton, std::uint64_t psi_bits,
                    std::uint64_t v_bits, const EvalOptions& opts);

  int num_qubits() const { return n_; }

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

  /// The n output-cap nodes in qubit order -- the varying slots a
  /// ReplayLayout of more than one output declares.
  std::vector<std::size_t> output_cap_nodes() const;

  /// Shared <0| / <1| cap tensor (same values basis_state_tensor builds).
  /// Every replay substitutes these two objects, so the batched executor's
  /// pointer-identity compaction shares rows across bitstrings that agree
  /// on a qubit.
  const tsr::Tensor& output_cap(bool one) const { return one ? cap_one_ : cap_zero_; }

  const tn::ContractionPlan& plan() const { return plan_; }
  /// Stats recorded while compiling the plan (plans_compiled = 1).
  const tn::ContractStats& compile_stats() const { return compile_stats_; }

  /// Compile a batched replay of the template's plan: up to `capacity`
  /// terms differing only at the given (network node) slots execute per
  /// traversal. `variant_counts[v]` (one per node, required) promises at
  /// most that many distinct tensors ever substituted at nodes[v], sizing
  /// the batched arena to each step's variant product (see
  /// tn::ContractionPlan::compile_batched). The batched arena is larger
  /// than the per-term plan's; a RunControl memory ceiling meets it when a
  /// ReplayEvaluator commits it.
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

  /// (node index, replacement tensor) pair for InputTable::with.
  using Substitution = std::pair<std::size_t, const tsr::Tensor*>;

 private:
  friend class InputTable;
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

/// A template's input table -- node i contracts with *inputs[i] -- with
/// scoped substitutions: the one substitution path of ReplayEvaluator and
/// EnvEvaluator.
class InputTable {
 public:
  /// The template must outlive the table.
  explicit InputTable(const AmplitudeTemplate& tmpl);
  /// Call run(inputs) with each subs[i].first node's tensor replaced by
  /// *subs[i].second (shapes must match). Every index is checked before any
  /// is applied, and the template's tensors are back in place when this
  /// returns or rethrows, so a failed call leaves no substitution active.
  template <class Run>
  void with(std::span<const AmplitudeTemplate::Substitution> subs, Run&& run) {
    apply(subs);
    try {
      run(std::span<const tsr::Tensor* const>(inputs_));
    } catch (...) {
      restore(subs);
      throw;
    }
    restore(subs);
  }

 private:
  void apply(std::span<const AmplitudeTemplate::Substitution> subs);
  void restore(std::span<const AmplitudeTemplate::Substitution> subs);
  const tn::Network* net_;
  std::vector<const tsr::Tensor*> inputs_;
};

/// How a ReplayEvaluator lays (row, output) pairs onto plan traversals --
/// the one output-batched layout of every replay engine. A row is one
/// Algorithm-1 term or one trajectory sample: one tensor per site node.
///  * Varying slots: the site nodes, then the n output caps -- but the caps
///    only when a traversal scores more than one output. A traversal of one
///    output substitutes its caps as shared inputs, which keeps them out of
///    the batched arena.
///  * A traversal scores up to `outputs` outputs (at most max_outputs) for
///    up to `rows` rows, at most kMaxBatchPairs pairs.
/// A batched plan is bit-identical to per-term replay whatever its slot
/// set, so the layout moves only time and memory, never bits.
struct ReplayLayout {
  ReplayLayout() = default;
  /// Rows of one tensor per entry of `site_nodes`, of which at most
  /// `site_counts[s]` distinct ones ever stand at site s; calls score
  /// `rows` rows at `outputs` outputs.
  ReplayLayout(const AmplitudeTemplate& tmpl, std::span<const std::size_t> site_nodes,
               std::span<const std::size_t> site_counts, std::size_t rows,
               std::size_t outputs, std::size_t max_outputs = kOutputChunk);

  /// Rows per traversal for `rows` rows at `outputs` outputs per traversal:
  /// at least 1, and at most kMaxBatchPairs / outputs when that is >= 1.
  static std::size_t rows_per_traversal(std::size_t rows, std::size_t outputs);

  /// The batched plan of this layout: its slots at its capacity, at most
  /// `max_varied_per_term` sites per row off their first tensor (Algorithm
  /// 1's level), the caps unconstrained.
  tn::BatchedPlan compile(const AmplitudeTemplate& tmpl,
                          std::size_t max_varied_per_term = static_cast<std::size_t>(-1),
                          tn::ContractStats* stats = nullptr) const;

  std::size_t capacity() const { return rows * outputs; }

  std::size_t sites = 0;            ///< leading slots, one per site node
  std::size_t rows = 1;             ///< rows per traversal
  std::size_t outputs = 1;          ///< outputs per traversal
  std::vector<std::size_t> slots;   ///< site nodes, then (outputs > 1) the caps
  std::vector<std::size_t> counts;  ///< distinct tensors per slot (2 per cap)
  std::vector<char> unconstrained;  ///< 1 at the caps, which flip freely
};

/// Per-worker replay of same-topology amplitudes -- the one evaluation path
/// of every plan-replay engine: the Algorithm-1 terms an EnvEvaluator does
/// not cover, the TN trajectory samples, and batch_amplitudes. It owns the
/// plan workspace, the template's input table and the contraction stats,
/// and runs the batched plan when it has one, the template's per-term plan
/// otherwise. Each traversal's pairs are output-major: neighbours share
/// their caps and differ only at one row's sites, so the batched plan's
/// per-pair root pass reuses every step outside those sites' cones. Every
/// amplitude is bit-identical either way, so the plan choice (see
/// batched_plan_or_null) only moves time and memory.
class ReplayEvaluator {
 public:
  /// The template and `bplan` (compiled from `layout`, or null for per-term
  /// replay) must outlive the evaluator. `control` (cooperative run-time
  /// control, may be null) is polled at step granularity by every replay,
  /// and its memory ceiling meets the arena each replay commits.
  ReplayEvaluator(const AmplitudeTemplate& tmpl, ReplayLayout layout,
                  const tn::BatchedPlan* bplan, const RunControl* control = nullptr);
  /// out[r * outputs.size() + o] = the skeleton amplitude at output
  /// bitstring outputs[o] with rows[r * S + s] at site node s, for r < k
  /// (S = the layout's sites). Any k and any number of outputs: the calls
  /// walk layout-sized traversals.
  void amplitudes(std::span<const tsr::Tensor* const> rows, std::size_t k,
                  std::span<const std::uint64_t> outputs, std::span<cplx> out);
  /// amplitudes() read out as |a|^2: a trajectory sample's probability, and
  /// an Algorithm-1 term (its bottom layer is the conjugate of its top).
  void norms(std::span<const tsr::Tensor* const> rows, std::size_t k,
             std::span<const std::uint64_t> outputs, std::span<double> out);
  /// Contraction stats accumulated across calls.
  const tn::ContractStats& stats() const { return stats_; }

 private:
  template <class Store>
  void run(std::span<const tsr::Tensor* const> rows, std::size_t k,
           std::span<const std::uint64_t> outputs, Store&& store);
  void traverse(std::size_t pairs);

  const AmplitudeTemplate* tmpl_;
  ReplayLayout layout_;
  const tn::BatchedPlan* bplan_;
  InputTable inputs_;
  tn::PlanWorkspace ws_;
  tn::ContractStats stats_;
  std::vector<const tsr::Tensor*> ptrs_;  // pairs x slots of one traversal
  std::vector<AmplitudeTemplate::Substitution> shared_;  // a one-output layout's caps
  std::vector<AmplitudeTemplate::Substitution> pair_;    // one per-term pair's slots
  std::vector<cplx> amps_;                // one traversal's amplitudes
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
  const tn::EnvSchedule* sched_;
  InputTable inputs_;
  tn::PlanWorkspace ws_;
  tn::ContractStats stats_;
};

}  // namespace noisim::core
