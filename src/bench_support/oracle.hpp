#pragma once
// Re-planning reference for Algorithm 1: the oracle the plan-replay engine
// (core/approx.hpp) is checked against in tests and in bench_contract_plan.
//
// It shares nothing with the sweep engine beyond the SVD split and the
// amplitude evaluator: the terms are enumerated here from split_noise, and
// every term's two single-layer amplitudes go through core::amplitude(),
// which builds and plans each network from scratch. The bottom layer is
// evaluated literally, as its own gate list of conjugated gates with V at
// the sites, not as the conjugate of the top layer the sweep replays. Both
// paths run one planner and one executor and fold the term values in the
// same enumeration order, so approximate_fidelity must match it bit for
// bit.

#include <cstdint>

#include "channels/noisy_circuit.hpp"
#include "core/approx.hpp"

namespace noisim::bench {

/// A(level) of <v|E(|psi><psi|)|v> by re-planning every term: terms are
/// enumerated level by level, site subsets in lexicographic order, and the
/// subdominant split indices with the lowest chosen site varying fastest
/// (approximate_fidelity's order); each term contributes
/// <v|top|psi> * <v|bottom|psi>, with U at the sites of `top` and V at the
/// sites of the conjugated-gate `bottom`, folded into term_sums[u]. Fills value,
/// raw, level_values, term_sums, contractions, contract_stats and
/// eval_seconds (the whole call); the bounds and plan_seconds stay 0.
/// Serial. Throws LinalgError when eval.simplify is set (the sweep
/// simplifies a placeholder skeleton once, which a per-term gate list cannot
/// reproduce).
core::ApproxResult replanned_fidelity(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                                      std::uint64_t v_bits, std::size_t level,
                                      const core::EvalOptions& eval = {});

}  // namespace noisim::bench
