#include "sim/mixture_draw.hpp"

#include <cmath>

namespace noisim::sim {

std::optional<ch::UnitaryMixture> normalized_mixture(const ch::Channel& channel,
                                                     std::string* why) {
  const auto reject = [why](std::string reason) {
    if (why) *why = std::move(reason);
    return std::nullopt;
  };
  auto mix = channel.unitary_mixture();
  if (!mix) return reject("channel is not a mixture of unitaries");
  if (mix->probs.empty()) return reject("channel has no unitary component");
  double sum = 0.0;
  for (const double p : mix->probs) {
    if (p < 0.0) return reject("negative mixture probability");
    sum += p;
  }
  if (std::abs(sum - 1.0) > kMixtureSumTol)
    return reject("mixture probabilities sum to " + std::to_string(sum) +
                  ", not 1 (unnormalized channel)");
  for (double& p : mix->probs) p /= sum;
  return mix;
}

std::size_t sample_index(std::span<const double> probs, std::mt19937_64& rng) {
  la::detail::require(!probs.empty(), "sample_index: empty probability vector");
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  const double u = unif(rng);
  double cumulative = 0.0;
  for (std::size_t k = 0; k < probs.size(); ++k) {
    cumulative += probs[k];
    if (u < cumulative) return k;
  }
  if (u >= cumulative + 1e-12)
    la::detail::fail("sample_index: cumulative probability " + std::to_string(cumulative) +
                     " leaves the draw uncovered (unnormalized distribution)");
  return probs.size() - 1;  // top-of-CDF rounding only
}

}  // namespace noisim::sim
