// Tests for the tensor decision diagram package and TDD-based simulation.
#include <gtest/gtest.h>

#include <random>

#include "channels/catalog.hpp"
#include "core/circuit_network.hpp"
#include "core/doubled_network.hpp"
#include "sim/density.hpp"
#include "sim/statevector.hpp"
#include "tdd/tdd.hpp"
#include "tdd/tdd_sim.hpp"
#include "tensor/contract.hpp"
#include "tn/contractor.hpp"

namespace noisim::tdd {
namespace {

tsr::Tensor random_tensor2(std::size_t rank, std::mt19937_64& rng) {
  tsr::Tensor t(std::vector<std::size_t>(rank, 2));
  std::normal_distribution<double> gauss;
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = cplx{gauss(rng), gauss(rng)};
  return t;
}

TEST(Tdd, TerminalScalarRoundTrip) {
  Manager mgr;
  const Edge e = mgr.terminal(cplx{2.0, -1.0});
  const tsr::Tensor t = mgr.to_tensor(e, {});
  EXPECT_TRUE(approx_equal(t.to_scalar(), cplx{2.0, -1.0}));
}

TEST(Tdd, FromToTensorRoundTrip) {
  std::mt19937_64 rng(1);
  Manager mgr;
  for (std::size_t rank : {1u, 2u, 3u, 4u}) {
    const tsr::Tensor t = random_tensor2(rank, rng);
    std::vector<Var> vars;
    for (std::size_t i = 0; i < rank; ++i) vars.push_back(static_cast<Var>(i * 3 + 1));
    const Edge e = mgr.from_tensor(t, vars);
    EXPECT_TRUE(mgr.to_tensor(e, vars).approx_equal(t, 1e-12)) << "rank " << rank;
  }
}

TEST(Tdd, AxisOrderIndependence) {
  std::mt19937_64 rng(2);
  Manager mgr;
  const tsr::Tensor t = random_tensor2(2, rng);
  // Tensor with axes (var 5, var 2) equals its transpose with (var 2, var 5).
  const Edge a = mgr.from_tensor(t, {5, 2});
  const Edge b = mgr.from_tensor(t.permute({1, 0}), {2, 5});
  EXPECT_TRUE(a == b);  // canonical form => pointer + weight equality
}

TEST(Tdd, HashConsingSharesStructure) {
  Manager mgr;
  tsr::Tensor t({2, 2});
  t.at({0, 0}) = t.at({1, 1}) = cplx{1.0, 0.0};  // identity
  const Edge a = mgr.from_tensor(t, {0, 1});
  const Edge b = mgr.from_tensor(t, {0, 1});
  EXPECT_EQ(a.node, b.node);
  EXPECT_TRUE(a == b);
}

TEST(Tdd, ConstantTensorCollapsesToTerminal) {
  Manager mgr;
  tsr::Tensor t({2, 2});
  for (std::size_t i = 0; i < 4; ++i) t[i] = cplx{3.0, 0.0};
  const Edge e = mgr.from_tensor(t, {0, 1});
  EXPECT_TRUE(e.is_terminal());
  EXPECT_TRUE(approx_equal(e.weight, cplx{3.0, 0.0}));
}

TEST(Tdd, ZeroTensorIsCanonicalZero) {
  Manager mgr;
  const Edge e = mgr.from_tensor(tsr::Tensor({2, 2}), {0, 1});
  EXPECT_TRUE(e.is_terminal());
  EXPECT_TRUE(approx_equal(e.weight, cplx{0.0, 0.0}));
}

TEST(Tdd, AddMatchesDenseAddition) {
  std::mt19937_64 rng(3);
  Manager mgr;
  const tsr::Tensor a = random_tensor2(3, rng);
  const tsr::Tensor b = random_tensor2(3, rng);
  const std::vector<Var> vars{0, 1, 2};
  const Edge ea = mgr.from_tensor(a, vars);
  const Edge eb = mgr.from_tensor(b, vars);
  tsr::Tensor want = a;
  want += b;
  EXPECT_TRUE(mgr.to_tensor(mgr.add(ea, eb), vars).approx_equal(want, 1e-12));
}

TEST(Tdd, AddWithMismatchedSupports) {
  // f depends on var 0 only, g on var 1 only; f+g depends on both.
  Manager mgr;
  tsr::Tensor f({2});
  f[0] = cplx{1, 0};
  f[1] = cplx{2, 0};
  tsr::Tensor g({2});
  g[0] = cplx{10, 0};
  g[1] = cplx{20, 0};
  const Edge ef = mgr.from_tensor(f, {0});
  const Edge eg = mgr.from_tensor(g, {1});
  const tsr::Tensor sum = mgr.to_tensor(mgr.add(ef, eg), {0, 1});
  EXPECT_TRUE(approx_equal(sum.at({0, 0}), cplx{11, 0}));
  EXPECT_TRUE(approx_equal(sum.at({0, 1}), cplx{21, 0}));
  EXPECT_TRUE(approx_equal(sum.at({1, 0}), cplx{12, 0}));
  EXPECT_TRUE(approx_equal(sum.at({1, 1}), cplx{22, 0}));
}

TEST(Tdd, AddCancellationYieldsZero) {
  std::mt19937_64 rng(4);
  Manager mgr;
  const tsr::Tensor a = random_tensor2(2, rng);
  tsr::Tensor neg = a;
  neg *= cplx{-1.0, 0.0};
  const Edge e = mgr.add(mgr.from_tensor(a, {0, 1}), mgr.from_tensor(neg, {0, 1}));
  EXPECT_TRUE(e.is_terminal());
  EXPECT_TRUE(approx_equal(e.weight, cplx{0.0, 0.0}));
}

class TddContract : public ::testing::TestWithParam<int> {};

TEST_P(TddContract, MatchesDenseContraction) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 10);
  Manager mgr;
  // a over vars {0, 1, 2}, b over vars {1, 2, 3}; contract over {1, 2}.
  const tsr::Tensor a = random_tensor2(3, rng);
  const tsr::Tensor b = random_tensor2(3, rng);
  const Edge ea = mgr.from_tensor(a, {0, 1, 2});
  const Edge eb = mgr.from_tensor(b, {1, 2, 3});
  const Edge ec = mgr.contract(ea, eb, {1, 2});
  const tsr::Tensor got = mgr.to_tensor(ec, {0, 3});
  const tsr::Tensor want = tsr::contract(a, {1, 2}, b, {0, 1});
  EXPECT_TRUE(got.approx_equal(want, 1e-10));
}

TEST_P(TddContract, OuterProductWhenNoSumVars) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 30);
  Manager mgr;
  const tsr::Tensor a = random_tensor2(2, rng);
  const tsr::Tensor b = random_tensor2(1, rng);
  const Edge e = mgr.contract(mgr.from_tensor(a, {0, 2}), mgr.from_tensor(b, {1}), {});
  // Result over vars {0, 1, 2} = outer product with axes interleaved.
  const tsr::Tensor got = mgr.to_tensor(e, {0, 1, 2});
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      for (std::size_t k = 0; k < 2; ++k)
        EXPECT_TRUE(approx_equal(got.at({i, j, k}), a.at({i, k}) * b.at({j}), 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TddContract, ::testing::Range(0, 8));

TEST(Tdd, ContractAbsentSumVarDoublesValue) {
  // Summing over a var absent from both operands multiplies by 2 (the
  // dimension), matching dense semantics of contracting an implicit
  // broadcast index.
  Manager mgr;
  const Edge a = mgr.terminal(cplx{3.0, 0.0});
  const Edge b = mgr.terminal(cplx{5.0, 0.0});
  const Edge r = mgr.contract(a, b, {7});
  EXPECT_TRUE(approx_equal(r.weight, cplx{30.0, 0.0}));
}

TEST(Tdd, NodeBudgetThrowsMemoryOut) {
  Manager mgr(4);
  std::mt19937_64 rng(5);
  EXPECT_THROW(mgr.from_tensor(random_tensor2(4, rng), {0, 1, 2, 3}), MemoryOutError);
}

// --- TDD network contraction ---------------------------------------------------

class TddVsTn : public ::testing::TestWithParam<int> {};

TEST_P(TddVsTn, NoiselessAmplitudeMatchesStatevector) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> q(0, 3);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  qc::Circuit c(4);
  for (int i = 0; i < 20; ++i) {
    switch (i % 4) {
      case 0: c.add(qc::h(q(rng))); break;
      case 1: c.add(qc::rz(q(rng), angle(rng))); break;
      case 2: c.add(qc::ry(q(rng), angle(rng))); break;
      default: {
        int a = q(rng), b = q(rng);
        if (a == b) b = (a + 1) % 4;
        c.add(qc::cz(a, b));
      }
    }
  }
  const cplx want = sim::basis_amplitude(c, 0, 5);
  const cplx got = tdd_contract_network(core::amplitude_network(4, c.gates(), 0, 5));
  EXPECT_TRUE(approx_equal(got, want, 1e-10));
}

TEST_P(TddVsTn, NoisyFidelityMatchesDensityMatrix) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) + 90;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> q(0, 2);
  qc::Circuit c(3);
  c.add(qc::h(0)).add(qc::cx(0, 1)).add(qc::ry(2, 0.8)).add(qc::cz(1, 2)).add(qc::t(0));
  ch::NoisyCircuit nc(3);
  const auto& gs = c.gates();
  for (std::size_t i = 0; i < gs.size(); ++i) {
    nc.add_gate(gs[i]);
    if (i == 1) nc.add_noise(q(rng), ch::depolarizing(0.1));
    if (i == 3) nc.add_noise(q(rng), ch::amplitude_damping(0.15));
  }
  const double want = sim::exact_fidelity_mm(nc, 0, 0);
  EXPECT_NEAR(exact_fidelity_tdd(nc, 0, 0), want, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TddVsTn, ::testing::Range(0, 8));

TEST(TddSim, GhzAmplitude) {
  qc::Circuit c(3);
  c.add(qc::h(0)).add(qc::cx(0, 1)).add(qc::cx(1, 2));
  const cplx amp = tdd_contract_network(core::amplitude_network(3, c.gates(), 0, 0b111));
  EXPECT_NEAR(std::abs(amp), 1 / std::numbers::sqrt2, 1e-12);
}

TEST(TddSim, DiagramStaysCompactOnCliffordCircuit) {
  // GHZ circuits have tiny TDDs; sanity-check the compression claim.
  qc::Circuit c(8);
  c.add(qc::h(0));
  for (int i = 0; i + 1 < 8; ++i) c.add(qc::cx(i, i + 1));
  TddStats stats;
  tdd_contract_network(core::amplitude_network(8, c.gates(), 0, 0), {}, &stats);
  EXPECT_LT(stats.peak_nodes, 64u);
}

TEST(TddSim, TimeoutThrows) {
  qc::Circuit c(6);
  for (int r = 0; r < 6; ++r)
    for (int i = 0; i < 6; ++i) {
      c.add(qc::ry(i, 0.3 * (r + 1) + i));
      c.add(qc::cz(i, (i + 1) % 6));
    }
  core::RunControl expired;
  expired.set_deadline_after(1e-9);
  TddSimOptions opts;
  opts.control = &expired;
  EXPECT_THROW(tdd_contract_network(core::amplitude_network(6, c.gates(), 0, 0), opts),
               TimeoutError);
}

TEST(TddSim, RejectsOpenNetworks) {
  tn::Network net;
  const tn::EdgeId e = net.new_edge();
  tsr::Tensor t({2});
  t[0] = cplx{1, 0};
  net.add_node(t, {e});
  EXPECT_THROW(tdd_contract_network(net), LinalgError);
}

}  // namespace
}  // namespace noisim::tdd
