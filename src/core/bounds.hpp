#pragma once
// Theorem 1 error bounds and the cost/sample models used by Fig. 5.

#include <cstddef>
#include <vector>

namespace noisim::core {

/// Binomial coefficient as double (N up to a few hundred).
double binomial(std::size_t n, std::size_t k);

/// Theorem 1: for N noises with every noise rate < p,
///   |F - A(l)| <= (1+8p)^N - sum_{i=0..l} C(N,i) (4p)^i (1+4p)^(N-i).
double theorem1_error_bound(std::size_t num_noises, double p, std::size_t level);

/// Asymptotic level-1 bound 32 sqrt(e) N^2 p^2, valid for p <= 1/(8N).
double level1_asymptotic_bound(std::size_t num_noises, double p);

/// Number of single-layer tensor-network contractions of the level-l
/// approximation: 2 * sum_{i=0..l} C(N,i) 3^i (Theorem 1, both layers; the
/// sweep contracts only the top one, ApproxResult::contractions).
double contraction_count(std::size_t num_noises, std::size_t level);

/// Fig. 5 sample models, both using the level-1 Theorem-1 bound as the
/// common error target eps:
///  * ours: contraction_count(N, 1) = 2 (1 + 3N);
///  * trajectories, paper-calibrated: accuracy ~ 1/sqrt(r) with unit
///    constant gives r = 1/eps (this reproduces the magnitudes and the
///    N ~ 26 crossover of the paper's Fig. 5; see EXPERIMENTS.md);
///  * trajectories, Hoeffding: r = ln(2/delta) / (2 eps^2) for a
///    (1-delta)-confidence interval (the textbook-rigorous count).
double trajectories_samples_calibrated(std::size_t num_noises, double p);
double trajectories_samples_hoeffding(std::size_t num_noises, double p, double failure_prob);

/// Generalized Theorem-1-style bound with per-site norms: site s contributes
/// a dominant factor a_s = ||U_0 (x) V_0||_2 and a subdominant factor
/// b_s = ||M - U_0 (x) V_0||_2. Then
///   |F - A(l)| <= prod_s (a_s + b_s)
///                 - sum_{|S| <= l} prod_{s in S} b_s prod_{s not in S} a_s,
/// evaluated exactly by dynamic programming over elementary symmetric
/// sums. With uniform a = 1+4p, b = 4p this reduces to the paper's formula;
/// with numerically computed norms it is tighter and also covers the
/// 2-qubit noise extension.
double generalized_error_bound(const std::vector<double>& dominant_norms,
                               const std::vector<double>& subdominant_norms, std::size_t level);

}  // namespace noisim::core
