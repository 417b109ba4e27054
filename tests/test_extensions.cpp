// Tests for the extensions beyond the paper: 2-qubit noise channels in the
// splitting algorithm, parallel term evaluation and the generalized
// (per-site) error bound.
#include <gtest/gtest.h>

#include <random>

#include "bench_support/generators.hpp"
#include "channels/catalog.hpp"
#include "core/approx.hpp"
#include "core/bounds.hpp"
#include "core/doubled_network.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "sim/density.hpp"
#include "sim/trajectories.hpp"

namespace noisim {
namespace {

ch::NoisyCircuit mixed_noise_circuit(std::uint64_t seed, double p) {
  std::mt19937_64 rng(seed);
  qc::Circuit c(3);
  c.add(qc::h(0)).add(qc::cz(0, 1)).add(qc::ry(2, 0.7)).add(qc::cz(1, 2)).add(qc::t(0));
  ch::NoisyCircuit nc(3);
  const auto& gs = c.gates();
  for (std::size_t i = 0; i < gs.size(); ++i) {
    nc.add_gate(gs[i]);
    if (i == 1) nc.add_noise_2q(0, 1, ch::two_qubit_depolarizing(p));
    if (i == 2) nc.add_noise(2, ch::depolarizing(p));
    if (i == 3) nc.add_noise_2q(1, 2, ch::two_qubit_depolarizing(p / 2));
  }
  return nc;
}

// --- 2-qubit channel basics -----------------------------------------------------

TEST(TwoQubitNoise, ChannelIsCptp) {
  const ch::Channel c = ch::two_qubit_depolarizing(0.1);
  EXPECT_EQ(c.dim(), 4u);
  EXPECT_EQ(c.num_qubits(), 2u);
  EXPECT_LT(c.completeness_defect(), 1e-10);
}

TEST(TwoQubitNoise, FixesMaximallyMixedState) {
  la::Matrix mixed = la::Matrix::identity(4);
  mixed *= 0.25;
  EXPECT_TRUE(ch::two_qubit_depolarizing(0.37).apply(mixed).approx_equal(mixed, 1e-12));
}

TEST(TwoQubitNoise, SplitReconstructsSuperoperator) {
  const ch::Channel c = ch::two_qubit_depolarizing(0.02);
  const core::SplitNoise split = core::split_noise(c);
  EXPECT_EQ(split.terms(), 16u);
  EXPECT_TRUE(split.reconstruct().approx_equal(c.superoperator(), 1e-9));
  for (std::size_t i = 0; i + 1 < split.terms(); ++i)
    EXPECT_GE(split.weights[i], split.weights[i + 1] - 1e-12);
}

TEST(TwoQubitNoise, GeneralizedLemma2Bound) {
  // ||M - U0 (x) V0|| <= d^2 * rate for d = 4.
  const ch::Channel c = ch::two_qubit_depolarizing(0.05);
  const core::SplitNoise split = core::split_noise(c);
  EXPECT_LE(split.dominant_term_error(), 16.0 * c.noise_rate() + 1e-9);
}

TEST(TwoQubitNoise, PermutationGeneralIsInvolution) {
  std::mt19937_64 rng(3);
  const la::Matrix m = la::random_ginibre(16, 16, rng);
  EXPECT_TRUE(core::tensor_permutation_general(core::tensor_permutation_general(m, 4), 4)
                  .approx_equal(m, 1e-12));
}

// --- 2-qubit noise through every simulator ---------------------------------------

class TwoQubitNoiseSim : public ::testing::TestWithParam<int> {};

TEST_P(TwoQubitNoiseSim, DoubledDiagramMatchesDensityMatrix) {
  const ch::NoisyCircuit nc = mixed_noise_circuit(static_cast<std::uint64_t>(GetParam()), 0.08);
  const double mm = sim::exact_fidelity_mm(nc, 0, 0);
  EXPECT_NEAR(core::exact_fidelity_tn(nc, 0, 0), mm, 1e-9);
}

TEST_P(TwoQubitNoiseSim, FullLevelApproximationIsExact) {
  const ch::NoisyCircuit nc = mixed_noise_circuit(static_cast<std::uint64_t>(GetParam()) + 10, 0.06);
  const double mm = sim::exact_fidelity_mm(nc, 0, 0);
  core::ApproxOptions opts;
  opts.level = nc.noise_count();
  EXPECT_NEAR(core::approximate_fidelity(nc, 0, 0, opts).value, mm, 1e-9);
}

TEST_P(TwoQubitNoiseSim, Level1WithinTightBound) {
  const ch::NoisyCircuit nc = mixed_noise_circuit(static_cast<std::uint64_t>(GetParam()) + 20, 0.02);
  const double mm = sim::exact_fidelity_mm(nc, 0, 0);
  core::ApproxOptions opts;
  opts.level = 1;
  const core::ApproxResult r = core::approximate_fidelity(nc, 0, 0, opts);
  EXPECT_LE(std::abs(r.value - mm), r.tight_error_bound + 1e-12);
  EXPECT_DOUBLE_EQ(r.error_bound, r.tight_error_bound);  // mixed arity uses the DP bound
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoQubitNoiseSim, ::testing::Range(0, 5));

TEST(TwoQubitNoise, TrajectoriesAgreeWithExact) {
  const ch::NoisyCircuit nc = mixed_noise_circuit(4, 0.15);
  const double exact = sim::exact_fidelity_mm(nc, 0, 0);
  std::mt19937_64 rng(5);
  const sim::TrajectoryResult r = sim::trajectories_sv(nc, 0, 0, 4000, rng);
  EXPECT_NEAR(r.mean, exact, 5.0 * r.std_error + 1e-6);
}

TEST(TwoQubitNoise, TddHandlesTwoQubitSuperoperatorNode) {
  const ch::NoisyCircuit nc = mixed_noise_circuit(6, 0.1);
  const double mm = sim::exact_fidelity_mm(nc, 0, 0);
  EXPECT_NEAR(core::exact_fidelity_tn(nc, 0, 0), mm, 1e-9);
}

// --- generalized error bound -------------------------------------------------------

TEST(GeneralizedBound, ReducesToTheorem1WithUniformPaperConstants) {
  const std::size_t n = 12;
  const double p = 0.003;
  const std::vector<double> a(n, 1.0 + 4.0 * p), b(n, 4.0 * p);
  for (std::size_t level : {0u, 1u, 2u, 3u}) {
    EXPECT_NEAR(core::generalized_error_bound(a, b, level),
                core::theorem1_error_bound(n, p, level), 1e-12);
  }
}

TEST(GeneralizedBound, TightBoundIsNoLooserThanTheorem1) {
  // The numeric per-site norms are tighter than the paper's 4p inflation.
  const qc::Circuit c = bench::qaoa_grid(2, 2, 1, 9);
  const ch::NoisyCircuit nc = bench::insert_noises(c, 4, bench::depolarizing_noise(0.004), 10);
  core::ApproxOptions opts;
  opts.level = 1;
  const core::ApproxResult r = core::approximate_fidelity(nc, 0, 0, opts);
  EXPECT_LE(r.tight_error_bound, r.error_bound + 1e-12);
}

TEST(GeneralizedBound, ZeroAtFullLevel) {
  const std::vector<double> a{1.1, 1.2, 1.05}, b{0.1, 0.2, 0.15};
  EXPECT_NEAR(core::generalized_error_bound(a, b, 3), 0.0, 1e-12);
}

TEST(GeneralizedBound, ValidatesInput) {
  EXPECT_THROW(core::generalized_error_bound({1.0}, {0.1, 0.2}, 1), LinalgError);
  EXPECT_THROW(core::generalized_error_bound({-1.0}, {0.1}, 1), LinalgError);
}

// --- parallel term evaluation ------------------------------------------------------------

class ParallelEngine : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEngine, ThreadsProduceIdenticalResults) {
  const qc::Circuit c = bench::qaoa_grid(2, 3, 1, static_cast<std::uint64_t>(GetParam()));
  const ch::NoisyCircuit nc =
      bench::insert_noises(c, 5, bench::realistic_noise(8e-3), 17 + GetParam());
  core::ApproxOptions serial, parallel;
  serial.level = parallel.level = 2;
  serial.threads = 1;
  parallel.threads = 4;
  const core::ApproxResult a = core::approximate_fidelity(nc, 0, 0, serial);
  const core::ApproxResult b = core::approximate_fidelity(nc, 0, 0, parallel);
  // Deterministic reduction order => bitwise-identical sums.
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.contractions, b.contractions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEngine, ::testing::Range(0, 4));

TEST(ParallelEngine, WorkerExceptionsPropagate) {
  const qc::Circuit c = bench::qaoa_grid(2, 2, 1, 3);
  const ch::NoisyCircuit nc = bench::insert_noises(c, 3, bench::realistic_noise(8e-3), 4);
  core::ApproxOptions opts;
  opts.level = 1;
  opts.threads = 4;
  opts.eval.backend = core::EvalOptions::Backend::TensorNetwork;
  opts.eval.tn.max_tensor_elems = 1;  // force MemoryOutError inside workers
  EXPECT_THROW(core::approximate_fidelity(nc, 0, 0, opts), MemoryOutError);
}

}  // namespace
}  // namespace noisim
