// Tests for the MPS simulator.
#include <gtest/gtest.h>

#include <random>

#include "bench_support/generators.hpp"
#include "mps/mps.hpp"
#include "sim/statevector.hpp"

namespace noisim::mps {
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
      case 1: c.add(qc::t(q(rng))); break;
      case 2: c.add(qc::rx(q(rng), angle(rng))); break;
      case 3: c.add(qc::ry(q(rng), angle(rng))); break;
      default: {
        int a = q(rng), b = q(rng);
        if (a == b) b = (a + 1) % n;
        c.add(qc::cz(a, b));
      }
    }
  }
  return c;
}

TEST(Mps, InitialStateIsZeroKet) {
  MpsState s(4);
  EXPECT_TRUE(approx_equal(s.amplitude(0), cplx{1.0, 0.0}));
  EXPECT_TRUE(approx_equal(s.amplitude(5), cplx{0.0, 0.0}));
  EXPECT_NEAR(s.norm2(), 1.0, 1e-12);
  EXPECT_EQ(s.max_bond_dim(), 1u);
}

TEST(Mps, BasisStateAmplitudes) {
  const MpsState s = MpsState::basis(4, 0b1010);
  EXPECT_TRUE(approx_equal(s.amplitude(0b1010), cplx{1.0, 0.0}));
  EXPECT_TRUE(approx_equal(s.amplitude(0b1000), cplx{0.0, 0.0}));
}

TEST(Mps, SingleQubitGatesKeepBondOne) {
  MpsState s(5);
  for (int q = 0; q < 5; ++q) s.apply_1q(qc::h(q).matrix(), q);
  EXPECT_EQ(s.max_bond_dim(), 1u);
  EXPECT_NEAR(std::abs(s.amplitude(0)), std::pow(0.5, 2.5), 1e-12);
}

TEST(Mps, GhzStateHasBondTwo) {
  MpsState s(6);
  s.apply_gate(qc::h(0));
  for (int i = 0; i + 1 < 6; ++i) s.apply_gate(qc::cx(i, i + 1));
  EXPECT_EQ(s.max_bond_dim(), 2u);
  EXPECT_NEAR(std::abs(s.amplitude(0)), 1 / std::numbers::sqrt2, 1e-12);
  EXPECT_NEAR(std::abs(s.amplitude((1u << 6) - 1)), 1 / std::numbers::sqrt2, 1e-12);
  EXPECT_NEAR(std::abs(s.amplitude(1)), 0.0, 1e-12);
  EXPECT_NEAR(s.truncation_weight(), 0.0, 1e-15);
}

class MpsVsStatevector : public ::testing::TestWithParam<int> {};

TEST_P(MpsVsStatevector, ExactWithAmpleBond) {
  const int n = 5;
  const qc::Circuit c = random_circuit(n, 25, static_cast<std::uint64_t>(GetParam()));
  MpsOptions opts;
  opts.max_bond = 64;  // >= 2^(n/2), exact
  MpsState s(n, opts);
  s.apply_circuit(c);
  sim::Statevector sv(n);
  sv.apply_circuit(c);
  for (std::uint64_t b = 0; b < (1u << n); b += 3)
    EXPECT_TRUE(approx_equal(s.amplitude(b), sv.amplitude(b), 1e-9)) << "b=" << b;
  EXPECT_NEAR(s.truncation_weight(), 0.0, 1e-12);
}

TEST_P(MpsVsStatevector, NonAdjacentGatesRouteCorrectly) {
  const int n = 5;
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 100);
  std::uniform_real_distribution<double> angle(-2.0, 2.0);
  qc::Circuit c(n);
  c.add(qc::h(0)).add(qc::h(4));
  c.add(qc::cz(0, 4)).add(qc::cx(4, 1)).add(qc::zz(3, 0, angle(rng)));
  c.add(qc::cphase(2, 0, angle(rng)));
  MpsState s(n, {64, 1e-14});
  s.apply_circuit(c);
  sim::Statevector sv(n);
  sv.apply_circuit(c);
  for (std::uint64_t b = 0; b < (1u << n); ++b)
    EXPECT_TRUE(approx_equal(s.amplitude(b), sv.amplitude(b), 1e-9)) << "b=" << b;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpsVsStatevector, ::testing::Range(0, 8));

TEST(Mps, TruncationReportsDiscardedWeight) {
  // A deep entangling circuit at chi = 2 must truncate.
  const qc::Circuit c = random_circuit(6, 60, 7);
  MpsOptions tight;
  tight.max_bond = 2;
  MpsState s(6, tight);
  s.apply_circuit(c);
  EXPECT_GT(s.truncation_weight(), 1e-6);
  EXPECT_LE(s.max_bond_dim(), 2u);
}

TEST(Mps, TruncationErrorShrinksWithBond) {
  const int n = 6;
  const qc::Circuit c = random_circuit(n, 40, 9);
  sim::Statevector sv(n);
  sv.apply_circuit(c);

  double prev_err = 1e9;
  for (std::size_t chi : {2u, 4u, 8u, 16u}) {
    MpsState s(n, {chi, 1e-14});
    s.apply_circuit(c);
    double err = 0.0;
    for (std::uint64_t b = 0; b < (1u << n); ++b)
      err = std::max(err, std::abs(s.amplitude(b) - sv.amplitude(b)));
    EXPECT_LE(err, prev_err + 1e-12) << "chi=" << chi;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-9);  // chi = 16 >= 2^3 is exact for 6 qubits
}

TEST(Mps, InnerProductMatchesDense) {
  const qc::Circuit c1 = random_circuit(4, 15, 11);
  const qc::Circuit c2 = random_circuit(4, 15, 12);
  MpsState a(4), b(4);
  a.apply_circuit(c1);
  b.apply_circuit(c2);
  sim::Statevector va(4), vb(4);
  va.apply_circuit(c1);
  vb.apply_circuit(c2);
  EXPECT_TRUE(approx_equal(a.inner(b), va.inner(vb), 1e-9));
}

TEST(Mps, NormalizeAfterNonUnitary) {
  MpsState s(3);
  s.apply_gate(qc::h(0));
  la::Matrix proj{{1, 0}, {0, 0}};
  s.apply_1q(proj, 0);
  EXPECT_NEAR(s.norm2(), 0.5, 1e-12);
  s.normalize();
  EXPECT_NEAR(s.norm2(), 1.0, 1e-12);
}

TEST(Mps, QaoaGridRunsAtModestBond) {
  const qc::Circuit c = bench::qaoa_grid(3, 3, 1, 21);
  MpsState s(9, {32, 1e-12});
  s.apply_circuit(c);
  EXPECT_NEAR(s.norm2(), 1.0, 1e-6);
  EXPECT_GE(s.max_bond_dim(), 2u);
}

}  // namespace
}  // namespace noisim::mps
