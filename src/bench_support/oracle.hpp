#pragma once
// Re-planning reference for Algorithm 1: the oracle the plan-replay engine
// (core/approx.hpp) is checked against in tests and in bench_contract_plan.
//
// It shares nothing with the sweep engine beyond the SVD split and the
// amplitude evaluator: the terms are enumerated here from split_noise, and
// every term's two single-layer amplitudes go through core::amplitude(),
// which builds and plans each network from scratch. The bottom layer is
// evaluated literally, as its own gate list of conjugated gates with
// V = conj(U) at the sites, not as the conjugate of the top layer the sweep
// squares; conjugating every gate conjugates the amplitude bit for bit, so
// top * bottom is the sweep's |top|^2 exactly. Both paths run one planner
// and one executor and fold the term values in the same enumeration order.
// The sweep takes its level-0 and level-1 terms from one environment pass
// (core::EnvEvaluator), which sums a level-1 term in another order than
// contracting its network, so approximate_fidelity matches the oracle as
// replay_mismatch states: bit for bit except at level 1, and there at
// roundoff.

#include <cstdint>
#include <span>
#include <string>

#include "channels/noisy_circuit.hpp"
#include "core/approx.hpp"

namespace noisim::bench {

/// A(level) of <v|E(|psi><psi|)|v> by re-planning every term: terms are
/// enumerated level by level, site subsets in lexicographic order, and the
/// subdominant split indices with the lowest chosen site varying fastest
/// (approximate_fidelity's order); each term contributes
/// <v|top|psi> * <v|bottom|psi>, with U at the sites of `top` and
/// V = conj(U) at the sites of the conjugated-gate `bottom`, folded into
/// term_sums[u]. Fills value, raw, level_values, term_sums, contractions
/// (2 per term: both layers, the paper's count), contract_stats and
/// eval_seconds (the whole call); the bounds and plan_seconds stay 0.
/// Serial. Throws LinalgError when eval.simplify is set (the sweep
/// simplifies a placeholder skeleton once, which a per-term gate list cannot
/// reproduce).
core::ApproxResult replanned_fidelity(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t level,
                                      const core::EvalOptions& eval = {});

/// Relative tolerance of a level-1 term sum against per-term replay.
inline constexpr double kEnvReplayRtol = 1e-12;

/// How an Algorithm-1 result (raw, per-level term sums and level values)
/// must match a per-term replay of the same terms (replanned_fidelity):
/// term_sums[0] and term_sums[u >= 2] bit
/// for bit; term_sums[1], raw and level_values[u >= 1] within
/// kEnvReplayRtol * |A(1)| of the replay (A(1) = the replay's T0 + T1), and
/// level_values[0] bit for bit. Returns "" on a match, else the first
/// mismatch.
std::string replay_mismatch(cplx raw, std::span<const cplx> term_sums,
                            std::span<const double> level_values,
                            const core::ApproxResult& replay);
inline std::string replay_mismatch(const core::ApproxResult& r, const core::ApproxResult& replay) {
  return replay_mismatch(r.raw, r.term_sums, r.level_values, replay);
}
inline std::string replay_mismatch(const core::ApproxBatchResult& r, std::size_t o,
                                   const core::ApproxResult& replay) {
  return replay_mismatch(r.raw[o], r.term_sums[o], r.level_values[o], replay);
}

}  // namespace noisim::bench
