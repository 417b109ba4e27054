// Tests for the paper's machinery: tensor permutation, SVD noise splitting,
// the doubled diagram, Algorithm 1 and the Theorem 1 bounds.
#include <gtest/gtest.h>

#include <random>

#include "channels/catalog.hpp"
#include "core/approx.hpp"
#include "core/backend.hpp"
#include "core/bounds.hpp"
#include "core/circuit_network.hpp"
#include "core/doubled_network.hpp"
#include "core/superop.hpp"
#include "core/trajectories_tn.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "sim/density.hpp"
#include "tensor/kernels.hpp"

namespace noisim::core {
namespace {

qc::Circuit random_circuit(int n, int gates, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> q(0, n - 1);
  std::uniform_int_distribution<int> kind(0, 5);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  qc::Circuit c(n);
  for (int i = 0; i < gates; ++i) {
    switch (kind(rng)) {
      case 0: c.add(qc::h(q(rng))); break;
      case 1: c.add(qc::ry(q(rng), angle(rng))); break;
      case 2: c.add(qc::rz(q(rng), angle(rng))); break;
      case 3: c.add(qc::t(q(rng))); break;
      default: {
        int a = q(rng), b = q(rng);
        if (a == b) b = (a + 1) % n;
        c.add(qc::cz(a, b));
      }
    }
  }
  return c;
}

ch::NoisyCircuit random_noisy_circuit(int n, int gates, int noises, std::uint64_t seed,
                                      double p = 0.05) {
  const qc::Circuit c = random_circuit(n, gates, seed);
  std::mt19937_64 rng(seed + 1);
  std::uniform_int_distribution<int> q(0, n - 1);
  std::uniform_int_distribution<int> model(0, 2);
  ch::NoisyCircuit nc(n);
  int placed = 0;
  const auto& gs = c.gates();
  for (std::size_t i = 0; i < gs.size(); ++i) {
    nc.add_gate(gs[i]);
    if (placed < noises && i % (gs.size() / static_cast<std::size_t>(noises) + 1) == 0) {
      switch (model(rng)) {
        case 0: nc.add_noise(q(rng), ch::depolarizing(p)); break;
        case 1: nc.add_noise(q(rng), ch::amplitude_damping(p)); break;
        default: nc.add_noise(q(rng), ch::thermal_relaxation(p, 1.0, 1.2)); break;
      }
      ++placed;
    }
  }
  return nc;
}

// --- tensor permutation -------------------------------------------------------

TEST(TensorPermutation, MatchesPaperIdentityExample) {
  // The paper's Section IV example: permuting I_4 gives the rank-1 matrix
  // with ones at the corners.
  const la::Matrix perm = tensor_permutation(la::Matrix::identity(4));
  la::Matrix want(4, 4);
  want(0, 0) = want(0, 3) = want(3, 0) = want(3, 3) = 1;
  EXPECT_TRUE(perm.approx_equal(want, 1e-14));
  EXPECT_EQ(la::svd(perm).rank(), 1u);
}

TEST(TensorPermutation, IsAnInvolution) {
  std::mt19937_64 rng(1);
  const la::Matrix m = la::random_ginibre(4, 4, rng);
  EXPECT_TRUE(tensor_permutation(tensor_permutation(m)).approx_equal(m, 1e-14));
}

TEST(TensorPermutation, PreservesFrobeniusNorm) {
  std::mt19937_64 rng(2);
  const la::Matrix m = la::random_ginibre(4, 4, rng);
  EXPECT_NEAR(tensor_permutation(m).frobenius_norm(), m.frobenius_norm(), 1e-12);
}

TEST(TensorPermutation, KroneckerProductBecomesRankOne) {
  std::mt19937_64 rng(3);
  const la::Matrix a = la::random_ginibre(2, 2, rng);
  const la::Matrix b = la::random_ginibre(2, 2, rng);
  EXPECT_EQ(la::svd(tensor_permutation(la::kron(a, b))).rank(1e-10), 1u);
}

// --- SVD noise splitting --------------------------------------------------------

/// A Kraus set outside the catalog that is not trace preserving, which the
/// Channel constructor accepts at tol = 0.
ch::Channel non_cptp_channel() {
  la::Matrix e0 = cplx{0.95, 0.0} * la::Matrix::identity(2);
  e0(0, 1) = cplx{0.05, -0.02};
  const la::Matrix lowering{{0.0, 1.0}, {0.0, 0.0}};
  const la::Matrix x{{0.0, 1.0}, {1.0, 0.0}};
  return ch::Channel("non_cptp", {e0, cplx{0.1, 0.2} * lowering, cplx{0.15, 0.0} * x},
                     /*tol=*/0.0);
}

class SplitCatalog : public ::testing::TestWithParam<int> {
 protected:
  ch::Channel make() const {
    switch (GetParam()) {
      case 0: return ch::depolarizing(0.02);
      case 1: return ch::amplitude_damping(0.05);
      case 2: return ch::phase_damping(0.04);
      case 3: return ch::thermal_relaxation(0.02, 1.0, 1.4);
      case 4: return ch::pauli_channel(0.01, 0.02, 0.005);
      case 5: return ch::bit_flip(0.03);
      case 6: return ch::generalized_amplitude_damping(0.05, 0.3);
      case 7: return ch::two_qubit_depolarizing(0.03);
      case 8: return non_cptp_channel();
      default: return ch::identity_channel();
    }
  }
};

TEST_P(SplitCatalog, ReconstructsSuperoperator) {
  const ch::Channel c = make();
  const SplitNoise split = split_noise(c);
  EXPECT_TRUE(split.reconstruct().approx_equal(c.superoperator(), 1e-12)) << c.name();
}

// Every Channel is Kraus-built, so the permuted superoperator
// Mt = sum_k vec(E_k) vec(E_k)^dag is Hermitian PSD and its SVD has
// v_s = u_s on every nonzero weight: V_s = conj(U_s). split_noise keeps U_s
// only; this checks the fact on an SVD of the test's own.
TEST_P(SplitCatalog, KrausBuiltSplitIsSymmetric) {
  const ch::Channel c = make();
  const std::size_t d = c.dim();
  const la::SvdResult svd = la::svd(tensor_permutation_general(c.superoperator(), d));
  for (std::size_t s = 0; s < svd.s.size(); ++s) {
    if (svd.s[s] <= 1e-12) continue;
    for (std::size_t i = 0; i < d * d; ++i)
      EXPECT_LE(std::abs(svd.v(i, s) - svd.u(i, s)), 1e-12)
          << c.name() << " term " << s << " weight " << svd.s[s] << " entry " << i;
  }
}

TEST_P(SplitCatalog, WeightsDescendAndDominantLeads) {
  const SplitNoise split = split_noise(make());
  for (std::size_t i = 0; i + 1 < split.terms(); ++i)
    EXPECT_GE(split.weights[i], split.weights[i + 1] - 1e-12);
  // For weak noise the dominant weight approaches the identity's value 2.
  EXPECT_GT(split.weights[0], 1.5);
}

TEST_P(SplitCatalog, Lemma2DominantTermError) {
  const ch::Channel c = make();
  const SplitNoise split = split_noise(c);
  EXPECT_LE(split.dominant_term_error(), 4.0 * c.noise_rate() + 1e-9) << c.name();
}

INSTANTIATE_TEST_SUITE_P(Catalog, SplitCatalog, ::testing::Range(0, 10));

TEST(SplitNoise, IdentityChannelIsExactlyRankOne) {
  const SplitNoise split = split_noise(ch::identity_channel());
  ASSERT_GE(split.terms(), 1u);
  EXPECT_NEAR(split.weights[0], 2.0, 1e-12);
  EXPECT_TRUE(split.term(0).is_identity(1e-10));
  for (std::size_t s = 1; s < split.terms(); ++s) EXPECT_LT(split.weights[s], 1e-10);
}

TEST(SplitNoise, UnitaryChannelIsRankOne) {
  std::mt19937_64 rng(4);
  const la::Matrix u = la::random_unitary(2, rng);
  const SplitNoise split = split_noise(ch::unitary_channel(u), 1e-10);
  EXPECT_EQ(split.terms(), 1u);
  EXPECT_TRUE(split.term(0).approx_equal(la::kron(u, u.conj()), 1e-10));
}

TEST(SplitNoise, DropToleranceRemovesNegligibleTerms) {
  const SplitNoise full = split_noise(ch::depolarizing(0.01));
  EXPECT_EQ(full.terms(), 4u);
  const SplitNoise dropped = split_noise(ch::depolarizing(0.01), 0.1);
  EXPECT_EQ(dropped.terms(), 1u);
}

TEST(Lemma1, PermutationAtMostDoublesSpectralDistance) {
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const la::Matrix a = la::random_ginibre(4, 4, rng);
    const la::Matrix b = la::random_ginibre(4, 4, rng);
    la::Matrix diff = a;
    diff -= b;
    la::Matrix pdiff = tensor_permutation(a);
    pdiff -= tensor_permutation(b);
    EXPECT_LE(la::spectral_norm(pdiff), 2.0 * la::spectral_norm(diff) + 1e-9);
  }
}

// --- amplitude evaluation -------------------------------------------------------

class AmplitudeBackends : public ::testing::TestWithParam<int> {};

TEST_P(AmplitudeBackends, TnMatchesStatevector) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const int n = 4;
  const qc::Circuit c = random_circuit(n, 25, seed);
  EvalOptions sv, tn;
  sv.backend = EvalOptions::Backend::StateVector;
  tn.backend = EvalOptions::Backend::TensorNetwork;
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{9}, std::uint64_t{15}}) {
    const cplx a = amplitude(n, c.gates(), 3, v, sv);
    const cplx b = amplitude(n, c.gates(), 3, v, tn);
    EXPECT_TRUE(approx_equal(a, b, 1e-9)) << "v=" << v;
  }
}

/// Entry-wise complex matrix with seeded random entries (a generic
/// non-unitary factor, like the SVD factors Algorithm 1 inserts).
la::Matrix random_complex_matrix(std::size_t dim, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> x(-1.0, 1.0);
  la::Matrix m(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j) m(i, j) = cplx{x(rng), x(rng)};
  return m;
}

// The re-planning oracle (bench::replanned_fidelity) contracts the bottom
// layer literally, as conjugated gates, while the sweep squares the top
// layer's amplitude. The oracle matches the sweep exactly only if
// conjugating every gate matrix conjugates the amplitude bit for bit -- on
// the state vector, on per-term and on output-batched plan replay, on
// every tier.
TEST_P(AmplitudeBackends, ConjugatedGatesGiveBitwiseConjugate) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) + 40;
  const int n = 5;
  std::vector<qc::Gate> gates = random_circuit(n, 30, seed).gates();
  std::mt19937_64 rng(seed);
  gates.insert(gates.begin() + 10, qc::u1q(2, random_complex_matrix(2, rng)));
  gates.insert(gates.begin() + 20, qc::u2q(3, 1, random_complex_matrix(4, rng)));
  std::vector<qc::Gate> conjugated;
  for (const qc::Gate& g : gates)
    conjugated.push_back(g.num_qubits() == 1
                             ? qc::u1q(g.qubits[0], g.matrix().conj())
                             : qc::u2q(g.qubits[0], g.qubits[1], g.matrix().conj()));
  const std::vector<std::uint64_t> vb{0, 9, 22, 31};

  for (std::size_t t = 0; t < tsr::kNumKernelTiers; ++t) {
    const auto tier = static_cast<tsr::KernelTier>(t);
    if (!tsr::kernel_table(tier)) continue;
    const tsr::KernelTier prev = tsr::set_kernel_tier(tier);
    for (auto backend : {EvalOptions::Backend::StateVector, EvalOptions::Backend::TensorNetwork}) {
      EvalOptions opts;
      opts.backend = backend;
      const std::string where = std::string(tsr::kernel_tier_name(tier)) +
                                (backend == EvalOptions::Backend::StateVector ? " sv" : " tn");
      auto expect_conjugate = [&](cplx a, cplx conj_a, const std::string& what) {
        EXPECT_EQ(conj_a.real(), a.real()) << where << ", " << what;
        EXPECT_EQ(conj_a.imag(), -a.imag()) << where << ", " << what;
      };
      for (const std::uint64_t v : vb)
        expect_conjugate(amplitude(n, gates, 1, v, opts), amplitude(n, conjugated, 1, v, opts),
                         "amplitude v=" + std::to_string(v));
      // K = 1 replays the per-term plan; K = 4 the output-batched plan.
      for (const std::size_t k : {1ul, vb.size()}) {
        const std::span<const std::uint64_t> outs(vb.data(), k);
        const std::vector<cplx> a = batch_amplitudes(n, gates, 1, outs, opts);
        const std::vector<cplx> conj_a = batch_amplitudes(n, conjugated, 1, outs, opts);
        for (std::size_t o = 0; o < k; ++o)
          expect_conjugate(a[o], conj_a[o],
                           "batch_amplitudes K=" + std::to_string(k) + " output " +
                               std::to_string(o));
      }
    }
    tsr::set_kernel_tier(prev);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmplitudeBackends, ::testing::Range(0, 8));

TEST(Amplitude, SimplifyPreservesValue) {
  const int n = 4;
  qc::Circuit c = random_circuit(n, 20, 123);
  std::vector<qc::Gate> gates = c.gates();
  const qc::Circuit inv = c.adjoint();
  gates.push_back(qc::z(2));
  gates.insert(gates.end(), inv.gates().begin(), inv.gates().end());

  EvalOptions plain, simplified;
  simplified.simplify = true;
  const cplx a = amplitude(n, gates, 0, 0, plain);
  const cplx b = amplitude(n, gates, 0, 0, simplified);
  EXPECT_TRUE(approx_equal(a, b, 1e-9));
}

// A basis label with a bit at or above the qubit count is rejected on every
// path. The tensor-network builder reads only the low n bits, so before the
// check approximate_fidelity(nc, 0, 2^16 + 5) on 16 qubits silently
// returned the value at v = 5.
TEST(Amplitude, OutOfRangeBasisLabelsThrowOnEveryPath) {
  const int n = 16;
  const std::vector<qc::Gate> gates = random_circuit(n, 40, 71).gates();
  ch::NoisyCircuit nc(n);  // depolarizing only, so the TN samplers accept it
  for (std::size_t i = 0; i < gates.size(); ++i) {
    nc.add_gate(gates[i]);
    if (i % 15 == 7) nc.add_noise(gates[i].qubits[0], ch::depolarizing(0.05));
  }
  constexpr std::uint64_t kBad = (std::uint64_t{1} << n) + 5;
  const std::vector<std::uint64_t> bad_outputs{5, kBad};
  EvalOptions tn, sv;
  tn.backend = EvalOptions::Backend::TensorNetwork;
  sv.backend = EvalOptions::Backend::StateVector;
  ApproxOptions approx;
  approx.eval = tn;
  sim::ParallelOptions popts;
  const std::pair<std::uint64_t, std::uint64_t> bad_pairs[] = {{kBad, 5}, {0, kBad}};
  for (const auto& [psi, v] : bad_pairs) {
    EXPECT_THROW(amplitude(n, gates, psi, v, tn), LinalgError);
    EXPECT_THROW(amplitude(n, gates, psi, v, sv), LinalgError);
    EXPECT_THROW(approximate_fidelity(nc, psi, v, approx), LinalgError);
    EXPECT_THROW(simulate(nc, psi, v), LinalgError);
    EXPECT_THROW(trajectories_tn(nc, psi, v, 4, 7, popts), LinalgError);
  }
  EXPECT_THROW(batch_amplitudes(n, gates, 0, bad_outputs, tn), LinalgError);
  EXPECT_THROW(approximate_fidelity_outputs(nc, 0, bad_outputs, approx), LinalgError);
  EXPECT_THROW(trajectories_tn_sweep(nc, 0, bad_outputs, 4, 7, popts), LinalgError);

  // Every bit of a 64-bit label addresses a qubit once n >= 64.
  EXPECT_NO_THROW(require_basis_label(~std::uint64_t{0}, 64, "test"));
  EXPECT_NO_THROW(require_basis_label(~std::uint64_t{0}, 70, "test"));
  EXPECT_THROW(require_basis_label(std::uint64_t{1} << 63, 63, "test"), LinalgError);
}

TEST(Amplitude, AutoCrossoverSitsAtTwelveQubits) {
  // Auto evaluates on the state vector up to 12 qubits and contracts the
  // tensor network from 13 on; a forced backend overrides the cutoff at
  // both sizes. Only the TN path compiles a contraction plan.
  using Backend = EvalOptions::Backend;
  ASSERT_EQ(kSvMaxQubits, 12);
  for (const int n : {12, 13}) {
    const qc::Circuit c = random_circuit(n, 3 * n, 500 + static_cast<std::uint64_t>(n));
    auto plans_compiled = [&](Backend backend) {
      EvalOptions opts;
      opts.backend = backend;
      tn::ContractStats stats;
      amplitude(n, c.gates(), 0, 0, opts, &stats);
      EXPECT_EQ(uses_tensor_network(opts, n), stats.plans_compiled > 0) << "n=" << n;
      return stats.plans_compiled;
    };
    EXPECT_EQ(plans_compiled(Backend::Auto) > 0, n == 13) << "n=" << n;
    EXPECT_EQ(plans_compiled(Backend::StateVector), 0u) << "n=" << n;
    EXPECT_GT(plans_compiled(Backend::TensorNetwork), 0u) << "n=" << n;
  }
}

// --- doubled diagram ------------------------------------------------------------

class DoubledDiagram : public ::testing::TestWithParam<int> {};

TEST_P(DoubledDiagram, MatchesDensityMatrixExactly) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const ch::NoisyCircuit nc = random_noisy_circuit(3, 14, 3, seed);
  const double mm = sim::exact_fidelity_mm(nc, 0, 0);
  const double tn = exact_fidelity_tn(nc, 0, 0);
  EXPECT_NEAR(tn, mm, 1e-9);
}

TEST_P(DoubledDiagram, MatchesForNonTrivialStates) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) + 70;
  const ch::NoisyCircuit nc = random_noisy_circuit(3, 12, 2, seed);
  const double mm = sim::exact_fidelity_mm(nc, 5, 6);
  const double tn = exact_fidelity_tn(nc, 5, 6);
  EXPECT_NEAR(tn, mm, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoubledDiagram, ::testing::Range(0, 10));

TEST(DoubledDiagram, NoiselessCircuitGivesBornProbability) {
  qc::Circuit c(2);
  c.add(qc::h(0)).add(qc::cx(0, 1));
  const double f = exact_fidelity_tn(ch::NoisyCircuit(c), 0, 0b11);
  EXPECT_NEAR(f, 0.5, 1e-10);
}

// --- Algorithm 1 -----------------------------------------------------------------

class Algorithm1 : public ::testing::TestWithParam<int> {};

TEST_P(Algorithm1, FullLevelReproducesExactFidelity) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const ch::NoisyCircuit nc = random_noisy_circuit(3, 10, 3, seed, 0.08);
  const double exact = sim::exact_fidelity_mm(nc, 0, 0);
  ApproxOptions opts;
  opts.level = nc.noise_count();  // A(N) is exact
  const ApproxResult r = approximate_fidelity(nc, 0, 0, opts);
  EXPECT_NEAR(r.value, exact, 1e-9);
  EXPECT_EQ(r.raw.imag(), 0.0);  // every term is |a|^2 + 0i
}

TEST_P(Algorithm1, ErrorIsWithinTheorem1Bound) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) + 20;
  const ch::NoisyCircuit nc = random_noisy_circuit(4, 16, 4, seed, 0.03);
  const double exact = sim::exact_fidelity_mm(nc, 0, 0);
  for (std::size_t level : {0u, 1u, 2u}) {
    ApproxOptions opts;
    opts.level = level;
    const ApproxResult r = approximate_fidelity(nc, 0, 0, opts);
    EXPECT_LE(std::abs(r.value - exact), r.error_bound + 1e-12)
        << "level " << level << " bound " << r.error_bound;
  }
}

TEST_P(Algorithm1, LevelsImproveMonotonically) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) + 60;
  const ch::NoisyCircuit nc = random_noisy_circuit(3, 12, 4, seed, 0.02);
  const double exact = sim::exact_fidelity_mm(nc, 0, 0);
  ApproxOptions opts;
  opts.level = nc.noise_count();
  const ApproxResult r = approximate_fidelity(nc, 0, 0, opts);
  // |A(l) - F| decreases (weakly) with l for weak noise.
  double prev = std::abs(r.level_values[0] - exact);
  for (std::size_t l = 1; l < r.level_values.size(); ++l) {
    const double err = std::abs(r.level_values[l] - exact);
    EXPECT_LE(err, prev * 1.5 + 1e-12) << "level " << l;  // allow mild non-monotonic wiggle
    prev = err;
  }
  EXPECT_NEAR(r.level_values.back(), exact, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Algorithm1, ::testing::Range(0, 8));

TEST(Algorithm1, ContractionCountMatchesTheorem1Formula) {
  const ch::NoisyCircuit nc = random_noisy_circuit(3, 10, 4, 5, 0.02);
  for (std::size_t level : {0u, 1u, 2u}) {
    ApproxOptions opts;
    opts.level = level;
    const ApproxResult r = approximate_fidelity(nc, 0, 0, opts);
    // The paper counts both layers; the sweep contracts one per term.
    EXPECT_DOUBLE_EQ(2.0 * static_cast<double>(r.contractions),
                     contraction_count(nc.noise_count(), level));
  }
}

TEST(Algorithm1, SimplifyGivesSameAnswer) {
  const ch::NoisyCircuit nc = random_noisy_circuit(3, 12, 2, 77, 0.05);
  const ch::NoisyCircuit projected = with_ideal_output_projector(nc);
  ApproxOptions plain, reduced;
  plain.level = reduced.level = 2;
  reduced.eval.simplify = true;
  const double a = approximate_fidelity(projected, 0, 0, plain).value;
  const double b = approximate_fidelity(projected, 0, 0, reduced).value;
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(Algorithm1, IdealOutputProjectorMatchesDirectFidelity) {
  // <v|E(rho)|v> with v = U|0>: compare the projector rewrite against a
  // direct density-matrix computation.
  const ch::NoisyCircuit nc = random_noisy_circuit(3, 10, 2, 31, 0.05);
  sim::Statevector v(3);
  v.apply_circuit(nc.gates_only());
  sim::DensityMatrix dm(3);
  dm.evolve(nc);
  const double direct = dm.fidelity(v.to_vector());

  const ch::NoisyCircuit projected = with_ideal_output_projector(nc);
  ApproxOptions opts;
  opts.level = nc.noise_count();
  EXPECT_NEAR(approximate_fidelity(projected, 0, 0, opts).value, direct, 1e-9);
}

// --- TN trajectories --------------------------------------------------------------

TEST(TrajectoriesTn, AgreesWithExactForDepolarizing) {
  const qc::Circuit c = random_circuit(3, 12, 55);
  ch::NoisyCircuit nc(3);
  for (std::size_t i = 0; i < c.gates().size(); ++i) {
    nc.add_gate(c.gates()[i]);
    if (i == 3 || i == 8) nc.add_noise(static_cast<int>(i % 3), ch::depolarizing(0.2));
  }
  const double exact = sim::exact_fidelity_mm(nc, 0, 0);
  std::mt19937_64 rng(8);
  const sim::TrajectoryResult r = trajectories_tn(nc, 0, 0, 3000, rng);
  EXPECT_NEAR(r.mean, exact, 5.0 * r.std_error + 1e-6);
}

TEST(TrajectoriesTn, RejectsNonUnitaryMixtures) {
  ch::NoisyCircuit nc(1);
  nc.add_noise(0, ch::amplitude_damping(0.3));
  std::mt19937_64 rng(1);
  EXPECT_THROW(trajectories_tn(nc, 0, 0, 10, rng), LinalgError);
}

TEST(TrajectoriesTn, ParallelVariantIsDeterministicAndUnbiased) {
  const qc::Circuit c = random_circuit(3, 12, 55);
  ch::NoisyCircuit nc(3);
  for (std::size_t i = 0; i < c.gates().size(); ++i) {
    nc.add_gate(c.gates()[i]);
    if (i == 3 || i == 8) nc.add_noise(static_cast<int>(i % 3), ch::depolarizing(0.2));
  }
  const double exact = sim::exact_fidelity_mm(nc, 0, 0);

  sim::ParallelOptions popts;
  popts.threads = 1;
  const sim::TrajectoryResult serial = trajectories_tn(nc, 0, 0, 2000, 21, popts);
  popts.threads = 4;
  const sim::TrajectoryResult parallel = trajectories_tn(nc, 0, 0, 2000, 21, popts);

  EXPECT_EQ(parallel.mean, serial.mean);
  EXPECT_EQ(parallel.std_error, serial.std_error);
  EXPECT_NEAR(parallel.mean, exact, 5.0 * parallel.std_error + 1e-6);
}

// --- bounds ------------------------------------------------------------------------

TEST(Bounds, BinomialValues) {
  EXPECT_DOUBLE_EQ(binomial(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(binomial(40, 40), 1.0);
  EXPECT_DOUBLE_EQ(binomial(3, 5), 0.0);
  EXPECT_NEAR(binomial(80, 2), 3160.0, 1e-9);
}

TEST(Bounds, Theorem1IsZeroAtFullLevelOrZeroNoise) {
  EXPECT_NEAR(theorem1_error_bound(10, 0.01, 10), 0.0, 1e-12);
  EXPECT_NEAR(theorem1_error_bound(10, 0.0, 1), 0.0, 1e-12);
  EXPECT_NEAR(theorem1_error_bound(0, 0.3, 0), 0.0, 1e-12);
}

TEST(Bounds, Theorem1DecreasesWithLevel) {
  double prev = theorem1_error_bound(20, 0.001, 0);
  for (std::size_t l = 1; l <= 4; ++l) {
    const double cur = theorem1_error_bound(20, 0.001, l);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(Bounds, Level1AsymptoticDominatesExactBoundForSmallP) {
  // For p <= 1/(8N) the paper derives bound <= 32 sqrt(e) N^2 p^2.
  for (std::size_t n : {10u, 20u, 40u}) {
    const double p = 1.0 / (10.0 * static_cast<double>(n));
    EXPECT_LE(theorem1_error_bound(n, p, 1), level1_asymptotic_bound(n, p) + 1e-15);
  }
}

TEST(Bounds, ContractionCountFormula) {
  EXPECT_DOUBLE_EQ(contraction_count(10, 0), 2.0);
  EXPECT_DOUBLE_EQ(contraction_count(10, 1), 2.0 * (1 + 30));
  EXPECT_DOUBLE_EQ(contraction_count(10, 2), 2.0 * (1 + 30 + 45 * 9));
}

TEST(Bounds, Fig5CrossoverNearN26AtP001) {
  // At p = 0.001 ours beats trajectories up to N ~ 26 and loses by N = 40.
  const double p = 0.001;
  EXPECT_LT(contraction_count(20, 1), trajectories_samples_calibrated(20, p));
  EXPECT_LT(contraction_count(26, 1), trajectories_samples_calibrated(26, p));
  EXPECT_GT(contraction_count(40, 1), trajectories_samples_calibrated(40, p));
}

TEST(Bounds, Fig5NoCrossoverAtP0001) {
  for (std::size_t n = 10; n <= 40; n += 2)
    EXPECT_LT(contraction_count(n, 1), trajectories_samples_calibrated(n, 0.0001));
}

}  // namespace
}  // namespace noisim::core
