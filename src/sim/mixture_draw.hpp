#pragma once
// The fixed-weight draw protocol for unitary-mixture noise, shared by the
// state-vector (sim/trajectories.hpp) and tensor-network
// (core/trajectories_tn.hpp) trajectory samplers.
//
// A channel E(rho) = sum_k p_k U_k rho U_k^dag picks branch k with
// probability p_k whatever the state, so a trajectory can draw the branch
// from the fixed weights instead of from Born probabilities. Both samplers
// validate and normalize the weights here and draw through the same
// inverse CDF: given the same stream they choose the same branches.

#include <cstddef>
#include <optional>
#include <random>
#include <span>
#include <string>

#include "channels/channel.hpp"

namespace noisim::sim {

/// Mixture probabilities may deviate from sum 1 by roundoff (tiny Kraus
/// terms are dropped by unitary_mixture, completeness is validated to 1e-9);
/// anything past this is an unnormalized channel, not noise.
inline constexpr double kMixtureSumTol = 1e-6;

/// The channel's unitary mixture with its probabilities divided by their
/// sum, or nullopt when it has none to draw from: some Kraus operator is
/// not proportional to a unitary, no component survives, a weight is
/// negative, or the weights sum to 1 only beyond kMixtureSumTol (e.g. a
/// non-CPTP Kraus set). On nullopt, `why` (when non-null) names the reason.
std::optional<ch::UnitaryMixture> normalized_mixture(const ch::Channel& channel,
                                                     std::string* why = nullptr);

/// Inverse-CDF draw of one index from a normalized probability vector: one
/// uniform u in [0, 1), and the first k whose cumulative weight exceeds u.
/// Unlike std::discrete_distribution, this carries no state across calls,
/// so a per-chunk RNG reseed fully determines every draw. Running past the
/// last bucket can only be top-of-CDF roundoff (u within a few ulp of 1)
/// and returns the last index; anything bigger means the distribution is
/// corrupted and throws LinalgError instead of silently returning the last
/// index. Empty vectors throw too.
std::size_t sample_index(std::span<const double> probs, std::mt19937_64& rng);

}  // namespace noisim::sim
