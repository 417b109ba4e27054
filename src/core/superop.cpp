#include "core/superop.hpp"

#include <cmath>

#include "linalg/svd.hpp"

namespace noisim::core {

la::Matrix tensor_permutation_general(const la::Matrix& m, std::size_t d) {
  la::detail::require(m.rows() == d * d && m.cols() == d * d,
                      "tensor_permutation_general: shape mismatch");
  la::Matrix out(d * d, d * d);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j)
      for (std::size_t k = 0; k < d; ++k)
        for (std::size_t l = 0; l < d; ++l) out(d * i + k, d * j + l) = m(d * i + j, d * k + l);
  return out;
}

la::Matrix tensor_permutation(const la::Matrix& m) {
  la::detail::require(m.rows() == 4 && m.cols() == 4, "tensor_permutation: need 4x4");
  return tensor_permutation_general(m, 2);
}

la::Matrix SplitNoise::term(std::size_t s) const { return la::kron(u[s], u[s].conj()); }

la::Matrix SplitNoise::reconstruct() const {
  const std::size_t dd = u.front().rows() * u.front().rows();
  la::Matrix m(dd, dd);
  for (std::size_t s = 0; s < terms(); ++s) m += term(s);
  return m;
}

double SplitNoise::dominant_term_error() const {
  const std::size_t dd = u.front().rows() * u.front().rows();
  la::Matrix rest(dd, dd);
  for (std::size_t s = 1; s < terms(); ++s) rest += term(s);
  return la::spectral_norm(rest);
}

SplitNoise split_noise(const ch::Channel& channel, double drop_tol) {
  const std::size_t dim = channel.dim();
  la::detail::require(dim == 2 || dim == 4, "split_noise: 1- or 2-qubit channels only");
  const la::SvdResult d = la::svd(tensor_permutation_general(channel.superoperator(), dim));

  SplitNoise out;
  for (std::size_t s = 0; s < d.s.size(); ++s) {
    // Keep zero-weight terms at drop_tol == 0: Algorithm 1 indexes every
    // term of the split, and a dropped zero term is a zero matrix there.
    if (d.s[s] < drop_tol || (drop_tol > 0.0 && d.s[s] == 0.0)) continue;
    const double w = std::sqrt(d.s[s]);
    la::Matrix us(dim, dim);
    for (std::size_t i = 0; i < dim; ++i)
      for (std::size_t k = 0; k < dim; ++k) us(i, k) = w * d.u(dim * i + k, s);
    out.u.push_back(std::move(us));
    out.weights.push_back(d.s[s]);
  }
  la::detail::require(!out.u.empty(), "split_noise: all terms dropped");
  return out;
}

}  // namespace noisim::core
