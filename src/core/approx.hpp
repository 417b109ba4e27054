#pragma once
// Algorithm 1: ApproximationNoisySimulation(E_N, |psi>, |v>, l).
//
// After SVD-splitting every noise superoperator M_{E_s} = sum_i U_i^s (x)
// V_i^s, the l-level approximation A(l) = sum_{u=0..l} T_u substitutes the
// dominant term at all but u noise sites and one of the three subdominant
// terms at the chosen u sites. Every substitution splits the doubled
// diagram into two *independent* single-layer networks (top: U insertions;
// bottom: V insertions) -- this is what gives the method its scalability
// (Fig. 4). The split of a Kraus-built channel is symmetric, V_i^s =
// conj(U_i^s) (core/superop.hpp), so the bottom network is the top one with
// every tensor conjugated and its amplitude is the conjugate of the top's:
// each term is |a|^2 of ONE single-layer amplitude a, real and
// nonnegative, with an imaginary part of exactly 0. The paper counts two
// contractions per term (contraction_count); the sweep contracts one.
//
// On the tensor-network path a level-1 term differs from the all-dominant
// network at one site s only, so its layer value is <E_s, K>: the
// environment of site s against the substituted factor K. One environment
// pass (tn::EnvSchedule: a forward contraction plus one backward pass)
// yields T0 and every E_s, so the u <= 1 terms cost about two forwards per
// output instead of one contraction per term. T0 is the forward value,
// bit-identical to replaying the plan; a level-1 term sums in a different
// order than contracting its network, so T1 differs from per-term replay
// at roundoff. Terms with u >= 2 replay the plan (batched across terms and
// outputs).

#include <cstdint>
#include <span>

#include "channels/noisy_circuit.hpp"
#include "core/circuit_network.hpp"
#include "core/superop.hpp"

namespace noisim::core {

class PlanCache;

struct ApproxOptions {
  std::size_t level = 1;
  EvalOptions eval;
  /// Worker threads for the (independent) term evaluations; 1 = serial,
  /// 0 = the NOISIM_THREADS env var if set, else every hardware thread
  /// (sim::resolve_threads, as for the trajectory samplers). Results are
  /// reduced in deterministic enumeration order either way.
  std::size_t threads = 1;
  /// Width of the sweep's term ranges (tensor-network backend); results
  /// are bit-identical at any width or thread count. The u <= 1 terms
  /// (levels 0 and 1) are cut into ranges of this width, and each range's
  /// item runs one environment pass per output, with the backward only
  /// toward its own terms' sites -- so a width covering all of them runs
  /// one pass per output. The u >= 2 terms are replayed: the layer's
  /// contraction plan is compiled once and an item of this many terms (at
  /// most 256 (term, output) pairs) executes in ONE batched traversal laid
  /// out by core::ReplayLayout -- steps outside the noise sites' light cone
  /// run once per batch, duplicate slices are memcpy'd, and per-step
  /// dispatch / permutation work amortizes over the batch, bit-identically
  /// to per-term replay. A traversal of one output (approximate_fidelity,
  /// or a one-output shard) keeps its caps out of the batched arena as
  /// shared inputs. <= 1 is a range of one term. The batched and environment
  /// arenas meet the `control`'s memory ceiling like the per-term plan's:
  /// one over it raises MemoryOutError. A deadline is the `control`'s, one
  /// clock for the whole call, so TO behavior does not depend on the
  /// width.
  std::size_t batch_terms = 32;
  /// Optional session-level plan/template cache (core/plan_cache.hpp).
  /// When set, approximate_fidelity / approximate_fidelity_outputs /
  /// xeb_sweep look their compiled AmplitudeTemplates, batched plans and
  /// environment schedules up by topology key instead of recompiling them, so repeated calls over
  /// the same skeleton (level ladders, accuracy sweeps, XEB batches
  /// arriving over time) pay the planning cost once. Results are
  /// bit-identical with or without a cache (plan compilation is
  /// deterministic); the caller owns the cache and may share one instance
  /// across concurrent calls (PlanCache is thread-safe). Cache traffic is
  /// reported in ContractStats::plan_cache_hits / plan_cache_misses; calls
  /// served from the cache report plans_compiled == 0. Only consulted on
  /// the tensor-network path.
  PlanCache* plan_cache = nullptr;
  /// Cooperative control (core/run_control.hpp): polled by the sweep work
  /// queue at every item claim, by plan compilation, and at step
  /// granularity inside every plan replay (threaded into each worker
  /// session's workspace). An expired deadline raises TimeoutError and a
  /// cancel raises CancelledError from approximate_fidelity /
  /// approximate_fidelity_outputs; xeb_sweep instead SALVAGES completed
  /// output-chunks on cancel (see ApproxBatchResult::cancelled). A control
  /// that never fires changes nothing: results stay bit-identical to
  /// control == nullptr. Caller-owned; null disables.
  const RunControl* control = nullptr;
};

struct ApproxResult {
  /// A(l): the approximation of <v|E(|psi><psi|)|v> (real part).
  double value = 0.0;
  /// Complex sum of the terms. Every term is |a|^2 with an imaginary part
  /// of exactly +0, so raw.imag() is exactly 0 and value == raw.real().
  cplx raw{0.0, 0.0};
  /// Partial sums A(0), A(1), ..., A(l): level_values[k] = A(k).
  std::vector<double> level_values;
  /// Per-level term sums T_0, ..., T_l.
  std::vector<cplx> term_sums;
  /// Number of single-layer network contractions performed: one per
  /// enumerated term (contraction_count, the paper's, counts two).
  std::size_t contractions = 0;
  /// Theorem 1 bound evaluated at the circuit's max noise rate (for
  /// circuits with only 1-qubit noise; otherwise equals tight_error_bound).
  double error_bound = 0.0;
  /// Generalized per-site product bound using the numerically computed
  /// dominant/subdominant norms -- always valid, usually tighter.
  double tight_error_bound = 0.0;
  /// Aggregated tensor-network contraction statistics across all term
  /// evaluations and worker threads (plan compilations, replays, reuse
  /// hits). Zero when the state-vector backend evaluated the terms.
  tn::ContractStats contract_stats;
  /// Wall-clock split of the evaluation: upfront setup (network build +
  /// plan and batched-plan compilation, paid once per sweep) vs the
  /// per-term evaluation loop. Per-term throughput is terms/eval_seconds.
  double plan_seconds = 0.0;
  double eval_seconds = 0.0;
};

/// Run Algorithm 1 on a noisy circuit with computational-basis input and
/// output states. This is the one-output call of the sweep engine behind
/// xeb_sweep (same work queue, fault sites, and cooperative drain); a
/// cancel raises CancelledError.
ApproxResult approximate_fidelity(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                  std::uint64_t v_bits, const ApproxOptions& opts = {});

/// approximate_fidelity evaluated at MANY output bitstrings in one sweep
/// (sampling / cross-entropy workloads: the same circuit skeleton probed at
/// every sampled bitstring). Output-independent work is shared:
///  * the term enumeration, SVD splits, templates, and plans are built once;
///  * on the tensor-network path the u <= 1 terms come from one environment
///    pass per output; for u >= 2 the output-basis caps join the noise
///    sites as varying slots of the batched plan (core::ReplayLayout, when
///    a traversal scores more than one output), so each chunk of
///    batch_terms terms x (up to 32) outputs executes in ONE traversal --
///    steps outside every cone run once per chunk, noise-cone rows are
///    shared across outputs, cap-cone rows across terms. The (term,
///    output) pairs run output-major, so the plan's per-pair root region
///    reuses every step outside the cones of the sites where neighbouring
///    terms differ.
/// outputs[o] is bit-identical to approximate_fidelity(nc, psi_bits,
/// v_bits[o], opts) (same evaluators, same enumeration-order reduction per
/// output); T1 differs from per-term replay at roundoff. The combined
/// batch and the environment schedule meet opts.control's memory ceiling
/// before their arenas are committed: one over it raises MemoryOutError.
///
/// Like approximate_fidelity, this is a thin wrapper over the sweep engine
/// behind xeb_sweep, at the default shard size: work is scheduled as a 2-D
/// (term-range x output-chunk) queue, the output axis is threaded alongside
/// the term axis, and each chunk's per-output level sums are reduced
/// streaming in chunk-ordered term-enumeration order -- peak memory for the
/// value table is O(outputs), not O(terms x outputs). Arbitrarily large
/// v_bits spans are fine in one call; pair with ApproxOptions::plan_cache so
/// repeated calls skip plan recompilation too. Unlike xeb_sweep, a cancel
/// raises CancelledError instead of returning the completed outputs.
struct ApproxBatchResult {
  /// A(l) per output bitstring (real part of raw[o]).
  std::vector<double> values;
  std::vector<cplx> raw;
  /// Per-output partial sums: level_values[o][u] = A(u) at output o.
  std::vector<std::vector<double>> level_values;
  /// Per-output per-level term sums: term_sums[o][u] = T_u at output o.
  std::vector<std::vector<cplx>> term_sums;
  /// Logical single-layer contractions: 1 per enumerated term per output
  /// (what per-term replay would perform; batching shares work across them
  /// without changing the count).
  std::size_t contractions = 0;
  /// Error bounds are output-independent (Theorem 1 bounds the operator
  /// deviation): same meaning as in ApproxResult.
  double error_bound = 0.0;
  double tight_error_bound = 0.0;
  tn::ContractStats contract_stats;
  double plan_seconds = 0.0;
  double eval_seconds = 0.0;
  /// Salvage contract (xeb_sweep only): true when a RunControl cancel
  /// stopped the sweep before every item was folded. Workers stop claiming
  /// items within one work item of the cancel, drain their in-flight item,
  /// and the completed output-chunks are returned: valid[o] != 0 iff output
  /// o's chunk folded its full term range, and every such values[o] /
  /// raw[o] / level_values[o] / term_sums[o] is bitwise equal to the
  /// uncancelled run at the same configuration (the chunk-ordered fold is
  /// deterministic). Outputs with valid[o] == 0 hold partial sums and must
  /// be ignored. A deadline or any worker error still THROWS (TimeoutError
  /// / the worker's exception) -- only an explicit cancel salvages.
  bool cancelled = false;
  /// Per-output validity mask; sized like values, all 1 when !cancelled.
  std::vector<char> valid;
};
ApproxBatchResult approximate_fidelity_outputs(const ch::NoisyCircuit& nc,
                                               std::uint64_t psi_bits,
                                               std::span<const std::uint64_t> v_bits,
                                               const ApproxOptions& opts = {});

/// Sharded XEB sweep: Algorithm 1 scored at an arbitrarily large set of
/// output bitstrings through a single 2-D work queue.
struct SweepOptions {
  /// Term evaluation options (level, backend, threads, batch_terms,
  /// plan_cache) -- identical semantics to approximate_fidelity.
  ApproxOptions approx;
  /// Output-shard size: the bitstring set is partitioned into chunks of
  /// this many outputs, and the work queue is the cross product of term
  /// ranges (batch_terms wide) and output chunks -- workers drain (term
  /// range x output chunk) items, so a low-level sweep with few terms and
  /// thousands of bitstrings fills every thread instead of idling on a
  /// term-only partition. 0 picks the default: 32 on the tensor-network
  /// path (the batched-traversal knee), the whole set on the state-vector
  /// path (whose per-term evaluation already covers all outputs in one
  /// evolution). The shard size never changes results, only scheduling
  /// granularity and transient memory.
  std::size_t shard_outputs = 0;
};

/// Evaluate A(l) at every bitstring of `v_bits` over a (term-range x
/// output-chunk) grid on the shared ordered-fold work queue
/// (sim::run_ordered_queue, which also runs the trajectory samplers), shaped
/// by `opts`. result[o] is bit-identical to approximate_fidelity(nc,
/// psi_bits, v_bits[o], opts.approx) at EVERY thread count, shard size,
/// batch width, and plan-cache state (the two are bit-identical to each
/// other; T1 differs from per-term replay at roundoff, see the header):
/// every term value depends only on the plan, the output and the factors,
/// and each output chunk is one of the queue's
/// fold streams: it folds its term values in global term-enumeration order
/// (out-of-order item completions are stash-buffered through a bounded pool
/// of threads + 2 buffers and folded in order), so every output reproduces
/// the reference reduction arithmetic exactly. The u >= 2 terms of an item
/// run through its worker's core::ReplayEvaluator, the replay path the TN
/// trajectory sampler shares: one row of U factors per term, scored at
/// the item's outputs (caps varying only when a traversal scores more than
/// one of them). A cancel drains the queue and salvages (cancelled = true,
/// completed chunks valid). Peak memory for
/// the sweep value table is O(outputs) -- per-chunk running level sums plus
/// a buffer pool of O(threads) in-flight items -- never the O(terms x
/// outputs) table the pre-sharding sweep materialized.
ApproxBatchResult xeb_sweep(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                            std::span<const std::uint64_t> v_bits,
                            const SweepOptions& opts = {});

/// Plan-time cost/accuracy model of an Algorithm-1 sweep: what the
/// simulate() front door's TN adapters consult to search the level ladder
/// WITHOUT contracting anything. Built from the same skeleton, options,
/// and canonical (v = 0) plan-cache key the sweep itself uses, so a
/// template compiled during estimation is exactly the one the subsequent
/// run replays at any output (estimation pre-warms the cache).
struct ApproxCostModel {
  std::size_t num_sites = 0;
  /// Every noise site is 1-qubit, i.e. the paper's Theorem 1 applies.
  bool all_1q = true;
  double max_rate = 0.0;
  /// Per-site split norms: ||U_0 (x) conj(U_0)||_2 and
  /// ||M - U_0 (x) conj(U_0)||_2.
  std::vector<double> dominant_norms;
  std::vector<double> subdominant_norms;
  /// Per-site Kronecker term count (4 for 1-qubit noise, 16 for 2-qubit).
  std::vector<std::size_t> split_terms;
  /// Cost of ONE single-layer evaluation in complex multiply-adds: the
  /// compiled plan's total_flops on the tensor-network path, the 2^n
  /// gate-sweep model on the state-vector path.
  double layer_flops = 0.0;
  /// Transient memory of one evaluation in complex elements: the plan's
  /// liveness-packed arena high-water mark / the state-vector size.
  std::size_t peak_elems = 0;
  /// approx_run_model only (0 otherwise): the largest arena a one-output
  /// level-opts.level sweep commits -- the environment schedule's, past
  /// level 1 also the batched plan's (or peak_elems) / the state vector.
  std::size_t run_peak_elems = 0;
  /// Which per-term path the sweep takes for this circuit + options.
  bool tensor_network = false;

  /// Error bound the level-l sweep reports: the generalized per-site product
  /// bound. The sweep reads its ApproxResult::tight_error_bound from here,
  /// so the two match exactly.
  double error_bound(std::size_t level) const;
  /// Number of enumerated terms of the level-l sum (sum of elementary
  /// symmetric sums over the per-site subdominant choices; C(N,u) 3^u terms
  /// at level u when every site is 1-qubit). Returned as double -- the count
  /// grows combinatorially.
  double term_count(std::size_t level) const;
  /// Modeled work of the level-l sweep: one single-layer evaluation per
  /// enumerated term.
  double sweep_flops(std::size_t level) const { return term_count(level) * layer_flops; }
};

/// Build the cost model for approximate_fidelity(nc, psi_bits, v, opts) at
/// any output v (the model does not depend on it). On the tensor-network
/// path this compiles (or fetches from opts.plan_cache) the sweep's one
/// AmplitudeTemplate under the sweep's own cache key, so MemoryOutError
/// surfaces here exactly as it would at the start of the run; the compile
/// polls opts.control, so a cancel or expired deadline stops it too.
/// opts.level is ignored -- the model answers for every level through
/// error_bound/term_count/sweep_flops.
ApproxCostModel approx_cost_model(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                  const ApproxOptions& opts = {});

/// approx_cost_model plus run_peak_elems: on the tensor-network path it
/// also compiles (or fetches from opts.plan_cache) the environment schedule
/// and, past level 1, the batched plan approximate_fidelity(nc, psi_bits,
/// v, opts) replays, under the run's own keys, so that run compiles nothing.
ApproxCostModel approx_run_model(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                 const ApproxOptions& opts);

/// The plan-independent part of approx_cost_model: the per-site norms and
/// term counts behind error_bound / term_count, with no template compiled
/// (layer_flops and peak_elems stay 0). Enough to pick a level before
/// choosing the options its template compiles under.
ApproxCostModel approx_bound_model(const ch::NoisyCircuit& nc);

/// Rewrite <v|E(rho)|v> with v = U_ideal |v_bits> into basis form by
/// appending U_ideal^dagger to the circuit: <v|E(rho)|v> =
/// <v_bits| (U^dag . E)(rho) |v_bits>. Combined with EvalOptions::simplify
/// this is what makes the Table IV level sweep tractable (the appended
/// adjoint cancels against the circuit outside the insertions' light cone).
ch::NoisyCircuit with_ideal_output_projector(const ch::NoisyCircuit& nc);

}  // namespace noisim::core
