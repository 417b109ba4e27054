// Cross-cutting property tests: algebraic invariants that must hold across
// randomly sampled inputs, spanning several modules at once.
#include <gtest/gtest.h>

#include <random>

#include "bench_support/generators.hpp"
#include "channels/catalog.hpp"
#include "circuit/qasm.hpp"
#include "circuit/simplify.hpp"
#include "core/approx.hpp"
#include "core/atpg.hpp"
#include "core/superop.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "mps/mps.hpp"
#include "sim/density.hpp"
#include "sim/statevector.hpp"

namespace noisim {
namespace {

ch::Channel random_channel(std::mt19937_64& rng) {
  // Random CPTP channel: Stinespring with a Haar 4x4 unitary on system (x)
  // environment, tracing the environment => 2 Kraus operators.
  const la::Matrix u = la::random_unitary(4, rng);
  la::Matrix e0(2, 2), e1(2, 2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      // Environment starts in |0>: E_k[i,j] = <i, k| U |j, 0>.
      e0(i, j) = u(i * 2 + 0, j * 2 + 0);
      e1(i, j) = u(i * 2 + 1, j * 2 + 0);
    }
  return ch::Channel("random_stinespring", {e0, e1});
}

class RandomChannels : public ::testing::TestWithParam<int> {
 protected:
  std::mt19937_64 rng{static_cast<std::uint64_t>(GetParam()) * 7919 + 13};
};

TEST_P(RandomChannels, StinespringConstructionIsCptp) {
  const ch::Channel c = random_channel(rng);
  EXPECT_LT(c.completeness_defect(), 1e-10);
}

TEST_P(RandomChannels, SuperoperatorOfCompositionIsProduct) {
  const ch::Channel a = random_channel(rng);
  const ch::Channel b = random_channel(rng);
  const la::Matrix lhs = ch::compose(b, a).superoperator();
  const la::Matrix rhs = b.superoperator() * a.superoperator();
  EXPECT_TRUE(lhs.approx_equal(rhs, 1e-10));
}

TEST_P(RandomChannels, SplitOfRandomChannelReconstructs) {
  const ch::Channel c = random_channel(rng);
  const core::SplitNoise split = core::split_noise(c);
  EXPECT_TRUE(split.reconstruct().approx_equal(c.superoperator(), 1e-9));
  // Lemma 2 with the channel's own rate.
  EXPECT_LE(split.dominant_term_error(), 4.0 * c.noise_rate() + 1e-9);
}

TEST_P(RandomChannels, NoiseRateIsUnitaryInvariantUnderIdentityCheck) {
  // rate(E) = 0 iff E is the identity channel; random channels are not.
  const ch::Channel c = random_channel(rng);
  EXPECT_GE(c.noise_rate(), 0.0);
  EXPECT_NEAR(ch::unitary_channel(la::Matrix::identity(2)).noise_rate(), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChannels, ::testing::Range(0, 10));

class RateMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(RateMonotonicity, CatalogRatesGrowWithParameter) {
  const double lo = 0.01, hi = 0.05;
  switch (GetParam()) {
    case 0:
      EXPECT_LT(ch::depolarizing(lo).noise_rate(), ch::depolarizing(hi).noise_rate());
      break;
    case 1:
      EXPECT_LT(ch::bit_flip(lo).noise_rate(), ch::bit_flip(hi).noise_rate());
      break;
    case 2:
      EXPECT_LT(ch::phase_flip(lo).noise_rate(), ch::phase_flip(hi).noise_rate());
      break;
    case 3:
      EXPECT_LT(ch::amplitude_damping(lo).noise_rate(), ch::amplitude_damping(hi).noise_rate());
      break;
    case 4:
      EXPECT_LT(ch::phase_damping(lo).noise_rate(), ch::phase_damping(hi).noise_rate());
      break;
    default:
      EXPECT_LT(ch::two_qubit_depolarizing(lo).noise_rate(),
                ch::two_qubit_depolarizing(hi).noise_rate());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, RateMonotonicity, ::testing::Range(0, 6));

// --- circuit-level properties --------------------------------------------------

qc::Circuit random_circuit(int n, int gates, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> q(0, n - 1);
  std::uniform_int_distribution<int> kind(0, 6);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  qc::Circuit c(n);
  for (int i = 0; i < gates; ++i) {
    switch (kind(rng)) {
      case 0: c.add(qc::h(q(rng))); break;
      case 1: c.add(qc::t(q(rng))); break;
      case 2: c.add(qc::rx(q(rng), angle(rng))); break;
      case 3: c.add(qc::rz(q(rng), angle(rng))); break;
      case 4: {
        const int a = q(rng);
        c.add(qc::cphase(a, (a + 1) % n, angle(rng)));
        break;
      }
      default: {
        int a = q(rng), b = q(rng);
        if (a == b) b = (a + 1) % n;
        c.add(qc::cz(a, b));
      }
    }
  }
  return c;
}

class RandomCircuits : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuits, AdjointComposesToIdentity) {
  const qc::Circuit c = random_circuit(4, 20, static_cast<std::uint64_t>(GetParam()));
  qc::Circuit cc = c;
  cc.append(c.adjoint());
  EXPECT_TRUE(qc::circuit_unitary(cc).is_identity(1e-9));
}

TEST_P(RandomCircuits, SimplifyNeverChangesTheUnitary) {
  const qc::Circuit c = random_circuit(4, 24, static_cast<std::uint64_t>(GetParam()) + 40);
  const qc::Circuit reduced = qc::cancel_inverse_pairs(c);
  EXPECT_TRUE(qc::circuit_unitary(reduced).approx_equal(qc::circuit_unitary(c), 1e-9));
}

TEST_P(RandomCircuits, MpsAndStatevectorAndTnAgree) {
  const int n = 4;
  const qc::Circuit c = random_circuit(n, 18, static_cast<std::uint64_t>(GetParam()) + 80);
  sim::Statevector sv(n);
  sv.apply_circuit(c);
  mps::MpsState m(n, {64, 1e-14});
  m.apply_circuit(c);
  core::EvalOptions tn;
  tn.backend = core::EvalOptions::Backend::TensorNetwork;
  for (std::uint64_t b : {0ull, 5ull, 11ull, 15ull}) {
    const cplx ref = sv.amplitude(b);
    EXPECT_TRUE(approx_equal(m.amplitude(b), ref, 1e-9));
    EXPECT_TRUE(approx_equal(core::amplitude(n, c.gates(), 0, b, tn), ref, 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuits, ::testing::Range(0, 10));

// --- end-to-end physical invariants of the approximation ------------------------

class PhysicalInvariants : public ::testing::TestWithParam<int> {};

TEST_P(PhysicalInvariants, ExactFidelityIsAProbability) {
  const qc::Circuit c = bench::qaoa_grid(2, 3, 1, static_cast<std::uint64_t>(GetParam()));
  const ch::NoisyCircuit nc =
      bench::insert_noises(c, 5, bench::realistic_noise(1e-2), GetParam() + 1u);
  const double f = sim::exact_fidelity_mm(nc, 0, 0);
  EXPECT_GE(f, -1e-12);
  EXPECT_LE(f, 1.0 + 1e-12);
}

TEST_P(PhysicalInvariants, ApproximationImaginaryPartIsExactlyZero) {
  const qc::Circuit c = bench::qaoa_grid(2, 3, 1, static_cast<std::uint64_t>(GetParam()) + 9);
  const ch::NoisyCircuit nc =
      bench::insert_noises(c, 4, bench::realistic_noise(1e-2), GetParam() + 2u);
  core::ApproxOptions opts;
  opts.level = nc.noise_count();
  const core::ApproxResult r = core::approximate_fidelity(nc, 0, 0, opts);
  EXPECT_EQ(r.raw.imag(), 0.0);  // every term is |a|^2 + 0i
}

TEST_P(PhysicalInvariants, TightBoundHoldsOnIdealOutputWorkloads) {
  const qc::Circuit c = bench::qaoa_grid(2, 2, 1, static_cast<std::uint64_t>(GetParam()) + 17);
  const ch::NoisyCircuit nc = core::with_ideal_output_projector(
      bench::insert_noises(c, 4, bench::realistic_noise(8e-3), GetParam() + 3u));
  const double exact = sim::exact_fidelity_mm(nc, 0, 0);
  core::ApproxOptions opts;
  opts.level = 1;
  const core::ApproxResult r = core::approximate_fidelity(nc, 0, 0, opts);
  EXPECT_LE(std::abs(r.value - exact), r.tight_error_bound + 1e-12);
  EXPECT_LE(r.tight_error_bound, r.error_bound + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysicalInvariants, ::testing::Range(0, 8));

// --- ATPG -----------------------------------------------------------------------

TEST(Atpg, NoiselessCircuitEscapesAllTests) {
  const qc::Circuit c = bench::hf_vqe(4, 3);
  const ch::NoisyCircuit clean(c);
  core::ApproxOptions opts;
  opts.level = 0;
  EXPECT_NEAR(core::fault_detection_probability(clean, 0b0101, opts), 0.0, 1e-9);
}

TEST(Atpg, DetectionProbabilityMatchesExactComplement) {
  qc::Circuit c(3);
  c.add(qc::h(0)).add(qc::cx(0, 1)).add(qc::ry(2, 0.9)).add(qc::cz(1, 2));
  ch::NoisyCircuit nc(3);
  for (std::size_t i = 0; i < c.gates().size(); ++i) {
    nc.add_gate(c.gates()[i]);
    if (i == 1) nc.add_noise(1, ch::amplitude_damping(0.3));
  }
  // Exact escape probability via density matrix with v = U|t>.
  const std::uint64_t t = 0b010;
  sim::Statevector ideal = sim::Statevector::basis(3, t);
  ideal.apply_circuit(c);
  sim::DensityMatrix dm(3);
  dm = sim::DensityMatrix::from_statevector(sim::Statevector::basis(3, t));
  dm.evolve(nc);
  const double escape = dm.fidelity(ideal.to_vector());

  core::ApproxOptions opts;
  opts.level = nc.noise_count();  // exact
  EXPECT_NEAR(core::fault_detection_probability(nc, t, opts), 1.0 - escape, 1e-9);
}

TEST(Atpg, BestPatternBeatsOrMatchesAllCandidates) {
  const qc::Circuit c = bench::hf_vqe(4, 9);
  ch::NoisyCircuit nc(4);
  for (std::size_t i = 0; i < c.gates().size(); ++i) {
    nc.add_gate(c.gates()[i]);
    if (i == 5) nc.add_noise(c.gates()[i].qubits[0], ch::amplitude_damping(0.4));
  }
  core::ApproxOptions opts;
  opts.level = 2;
  const std::vector<std::uint64_t> candidates{0b0000, 0b1111, 0b1010, 0b0101};
  const core::TestPatternResult r = core::best_test_pattern(nc, candidates, opts);
  for (double p : r.all) EXPECT_LE(p, r.detection_probability + 1e-12);
  EXPECT_GT(r.detection_probability, 0.0);
}

TEST(Atpg, RejectsEmptyCandidates) {
  ch::NoisyCircuit nc(1);
  nc.add_gate(qc::h(0));
  EXPECT_THROW(core::best_test_pattern(nc, {}), LinalgError);
}

// --- QASM round-trip property over random circuits ------------------------------

class QasmRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QasmRoundTrip, PreservesSemantics) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 500);
  std::uniform_int_distribution<int> q(0, 3);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  qc::Circuit c(4);
  for (int i = 0; i < 16; ++i) {
    switch (i % 6) {
      case 0: c.add(qc::h(q(rng))); break;
      case 1: c.add(qc::rz(q(rng), angle(rng))); break;
      case 2: c.add(qc::ry(q(rng), angle(rng))); break;
      case 3: c.add(qc::t(q(rng))); break;
      case 4: {
        int a = q(rng), b = q(rng);
        if (a == b) b = (a + 1) % 4;
        c.add(qc::cx(a, b));
        break;
      }
      default: {
        int a = q(rng), b = q(rng);
        if (a == b) b = (a + 1) % 4;
        c.add(qc::zz(a, b, angle(rng)));
      }
    }
  }
  const qc::Circuit back = qc::from_qasm(qc::to_qasm(c));
  EXPECT_TRUE(qc::circuit_unitary(back).approx_equal(qc::circuit_unitary(c), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QasmRoundTrip, ::testing::Range(0, 8));

}  // namespace
}  // namespace noisim
