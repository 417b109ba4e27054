#pragma once
// The paper's Fig. 3 decomposition: tensor permutation + SVD of a 1-qubit
// noise superoperator.
//
// A 1-qubit channel E with Kraus set {E_k} has the 4x4 superoperator
// M = sum_k E_k (x) conj(E_k), indexed M[(i,j), (k,l)] where (i, k) are the
// top wire's (out, in) and (j, l) the bottom wire's (out, in) in the doubled
// diagram. The *tensor permutation* regroups to Mt[(i,k), (j,l)]; an SVD
// Mt = sum_s d_s u_s v_s^dag then yields M = sum_s U_s (x) V_s with
//   U_s[i,k] = sqrt(d_s) u_s[2i+k],   V_s[j,l] = sqrt(d_s) conj(v_s[2j+l]).
// For a Kraus-built channel Mt = sum_k vec(E_k) vec(E_k)^dag is Hermitian
// PSD, so v_s = Mt u_s / d_s = u_s on every nonzero weight and
// V_s = conj(U_s): the split is symmetric, and SplitNoise keeps U_s only.
// U_0 (x) conj(U_0) is the paper's dominant approximation of the noise
// (||M - U_0 (x) V_0|| < 4 delta when the noise rate ||M - I|| < delta,
// Lemma 2).

#include "channels/channel.hpp"

namespace noisim::core {

/// Tensor permutation of a 4x4 matrix: out[(i,k),(j,l)] = in[(i,j),(k,l)].
/// The operation is an involution: applying it twice returns the input.
la::Matrix tensor_permutation(const la::Matrix& m);

/// Tensor permutation of a d^2 x d^2 superoperator (d = 2 for 1-qubit
/// noise, d = 4 for the 2-qubit extension).
la::Matrix tensor_permutation_general(const la::Matrix& m, std::size_t d);

/// Rank-1 Kronecker split of a noise superoperator: M = sum_s U_s (x)
/// conj(U_s).
struct SplitNoise {
  std::vector<la::Matrix> u;     // factors (d x d), dominant first
  std::vector<double> weights;   // singular values of the permuted matrix

  std::size_t terms() const { return u.size(); }
  /// The Kronecker term U_s (x) conj(U_s) as a d^2 x d^2 matrix.
  la::Matrix term(std::size_t s) const;
  /// sum_s U_s (x) conj(U_s) (equals the superoperator; for testing).
  la::Matrix reconstruct() const;
  /// ||M - U_0 (x) conj(U_0)||_2, the actual dominant-term error.
  double dominant_term_error() const;
};

/// Decompose a 1- or 2-qubit channel into d^2 Kronecker terms (d = channel
/// dimension; the 2-qubit case is this library's extension beyond the
/// paper). Terms with singular value <= drop_tol are dropped (the paper
/// keeps all; dropping is exposed for ablations).
SplitNoise split_noise(const ch::Channel& channel, double drop_tol = 0.0);

}  // namespace noisim::core
