// Tests for OpenQASM interop.
#include <gtest/gtest.h>

#include <numbers>
#include <random>

#include "bench_support/generators.hpp"
#include "circuit/qasm.hpp"
#include "sim/statevector.hpp"

namespace noisim {
namespace {

// --- QASM export ------------------------------------------------------------

TEST(QasmExport, HeaderAndRegister) {
  qc::Circuit c(3);
  c.add(qc::h(0));
  const std::string q = qc::to_qasm(c);
  EXPECT_NE(q.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(q.find("qreg q[3];"), std::string::npos);
  EXPECT_NE(q.find("h q[0];"), std::string::npos);
}

TEST(QasmExport, AllSpellableKinds) {
  qc::Circuit c(2);
  c.add(qc::x(0)).add(qc::y(0)).add(qc::z(1)).add(qc::s(0)).add(qc::sdg(1));
  c.add(qc::t(0)).add(qc::tdg(1)).add(qc::rx(0, 0.5)).add(qc::ry(1, -0.25));
  c.add(qc::rz(0, 1.5)).add(qc::phase(1, 0.75)).add(qc::cz(0, 1)).add(qc::cx(1, 0));
  c.add(qc::cphase(0, 1, 0.3)).add(qc::zz(0, 1, 0.7));
  EXPECT_NO_THROW(qc::to_qasm(c));
}

TEST(QasmExport, RejectsCustomMatrices) {
  qc::Circuit c(1);
  c.add(qc::u1q(0, la::Matrix::identity(2)));
  EXPECT_THROW(qc::to_qasm(c), LinalgError);
}

// --- QASM import --------------------------------------------------------------

TEST(QasmImport, RoundTripPreservesUnitary) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  qc::Circuit c(3);
  c.add(qc::h(0)).add(qc::rx(1, angle(rng))).add(qc::cz(0, 2)).add(qc::rz(2, angle(rng)));
  c.add(qc::cx(1, 2)).add(qc::t(0)).add(qc::cphase(0, 1, angle(rng)));
  c.add(qc::zz(1, 2, angle(rng))).add(qc::sdg(2));

  const qc::Circuit back = qc::from_qasm(qc::to_qasm(c));
  EXPECT_TRUE(qc::circuit_unitary(back).approx_equal(qc::circuit_unitary(c), 1e-10));
}

TEST(QasmImport, ParsesPiExpressions) {
  const std::string text = R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
rx(pi/2) q[0];
rz(-pi/4) q[0];
ry(2*pi/3) q[0];
u1(0.5 + pi) q[0];
)";
  const qc::Circuit c = qc::from_qasm(text);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_NEAR(c.gates()[0].params[0], std::numbers::pi / 2, 1e-15);
  EXPECT_NEAR(c.gates()[1].params[0], -std::numbers::pi / 4, 1e-15);
  EXPECT_NEAR(c.gates()[2].params[0], 2 * std::numbers::pi / 3, 1e-15);
  EXPECT_NEAR(c.gates()[3].params[0], 0.5 + std::numbers::pi, 1e-15);
}

TEST(QasmImport, CrzMatchesControlledRz) {
  const std::string text = R"(OPENQASM 2.0;
qreg q[2];
crz(0.8) q[0],q[1];
)";
  const qc::Circuit c = qc::from_qasm(text);
  // Build the expected controlled-rz directly.
  const la::Matrix rzm = qc::rz(0, 0.8).matrix();
  const la::Matrix want = qc::cu(0, 1, rzm).matrix();
  EXPECT_TRUE(qc::circuit_unitary(c).approx_equal(want, 1e-12));
}

TEST(QasmImport, SwapDecomposition) {
  const std::string text = "OPENQASM 2.0;\nqreg q[2];\nswap q[0],q[1];\n";
  const qc::Circuit c = qc::from_qasm(text);
  la::Matrix want(4, 4);
  want(0, 0) = want(3, 3) = 1;
  want(1, 2) = want(2, 1) = 1;
  EXPECT_TRUE(qc::circuit_unitary(c).approx_equal(want, 1e-12));
}

TEST(QasmImport, IgnoresCommentsAndBarriers) {
  const std::string text = R"(OPENQASM 2.0;
// a comment line
qreg q[2];
h q[0]; // trailing comment
barrier q[0],q[1];
cx q[0],q[1];
)";
  const qc::Circuit c = qc::from_qasm(text);
  EXPECT_EQ(c.size(), 2u);
}

TEST(QasmImport, NegativeAndScientificParams) {
  const std::string text = R"(OPENQASM 2.0;
qreg q[1];
rx(-0.5) q[0];
rz(2.5e-3) q[0];
ry(-1.25e-2) q[0];
)";
  const qc::Circuit c = qc::from_qasm(text);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c.gates()[0].params[0], -0.5, 1e-15);
  EXPECT_NEAR(c.gates()[1].params[0], 2.5e-3, 1e-18);
  EXPECT_NEAR(c.gates()[2].params[0], -1.25e-2, 1e-17);
}

TEST(QasmImport, MalformedNumberThrowsLinalgError) {
  // std::stod failure used to escape as std::invalid_argument.
  const std::string text = "OPENQASM 2.0;\nqreg q[1];\nrx(oops) q[0];\n";
  EXPECT_THROW(qc::from_qasm(text), LinalgError);
}

TEST(QasmImport, BlockComments) {
  const std::string text = R"(OPENQASM 2.0;
/* block
   comment */
qreg q[2];
h q[0]; /* inline */ cx q[0],q[1];
)";
  const qc::Circuit c = qc::from_qasm(text);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_THROW(qc::from_qasm("OPENQASM 2.0;\nqreg q[1];\n/* unterminated"), LinalgError);
}

TEST(QasmImport, TrailingCommentWithoutNewlineAtEof) {
  const std::string text = "OPENQASM 2.0;\nqreg q[1];\nh q[0]; // done";
  const qc::Circuit c = qc::from_qasm(text);
  EXPECT_EQ(c.size(), 1u);
}

TEST(QasmImport, NegativeQubitIndexThrows) {
  const std::string text = "OPENQASM 2.0;\nqreg q[2];\nh q[-1];\n";
  EXPECT_THROW(qc::from_qasm(text), LinalgError);
}

TEST(QasmImport, NonIntegerOrHugeQubitIndexThrows) {
  EXPECT_THROW(qc::from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[1.7];\n"), LinalgError);
  EXPECT_THROW(qc::from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[3e9];\n"), LinalgError);
  EXPECT_THROW(qc::from_qasm("OPENQASM 2.0;\nqreg q[2.7];\n"), LinalgError);
  EXPECT_THROW(qc::from_qasm("OPENQASM 2.0;\nqreg q[1e99];\n"), LinalgError);
}

TEST(QasmImport, LeadingPlusOnParams) {
  const qc::Circuit c = qc::from_qasm("OPENQASM 2.0;\nqreg q[1];\nrx(+0.5) q[0];\n");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_NEAR(c.gates()[0].params[0], 0.5, 1e-15);
}

TEST(QasmImport, U3AndU2MatchQelib1Matrices) {
  const double theta = 0.7, phi = -0.4, lambda = 1.1;
  const std::string text = "OPENQASM 2.0;\nqreg q[1];\nu3(0.7,-0.4,1.1) q[0];\nu2(-0.4,1.1) q[0];\n";
  const qc::Circuit c = qc::from_qasm(text);
  ASSERT_EQ(c.size(), 2u);

  auto u3 = [](double t, double p, double l) {
    const cplx eip{std::cos(p), std::sin(p)}, eil{std::cos(l), std::sin(l)};
    la::Matrix m(2, 2);
    m(0, 0) = cplx{std::cos(t / 2), 0.0};
    m(0, 1) = -std::sin(t / 2) * eil;
    m(1, 0) = std::sin(t / 2) * eip;
    m(1, 1) = std::cos(t / 2) * eip * eil;
    return m;
  };
  EXPECT_TRUE(c.gates()[0].matrix().approx_equal(u3(theta, phi, lambda), 1e-12));
  EXPECT_TRUE(c.gates()[1].matrix().approx_equal(u3(std::numbers::pi / 2, phi, lambda), 1e-12));

  // Negative theta makes sin(theta/2) negative: the matrix must still be
  // the qelib1 definition (and unitary), not a std::polar artifact.
  const qc::Circuit neg =
      qc::from_qasm("OPENQASM 2.0;\nqreg q[1];\nu3(-0.5,0.2,-0.3) q[0];\n");
  ASSERT_EQ(neg.size(), 1u);
  const la::Matrix got = neg.gates()[0].matrix();
  EXPECT_TRUE(got.approx_equal(u3(-0.5, 0.2, -0.3), 1e-12));
  EXPECT_TRUE((got.adjoint() * got).approx_equal(la::Matrix::identity(2), 1e-12));
}

TEST(QasmImport, RejectsMeasurement) {
  const std::string text = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n";
  EXPECT_THROW(qc::from_qasm(text), LinalgError);
}

TEST(QasmImport, RejectsUnknownGate) {
  const std::string text = "OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n";
  EXPECT_THROW(qc::from_qasm(text), LinalgError);
}

TEST(QasmImport, GeneratedBenchmarkSurvivesRoundTrip) {
  // hf_vqe uses Givens gates (not spellable); QAOA circuits round-trip.
  const qc::Circuit c = bench::qaoa_grid(2, 3, 1, 5);
  const qc::Circuit back = qc::from_qasm(qc::to_qasm(c));
  ASSERT_EQ(back.num_qubits(), c.num_qubits());
  sim::Statevector a(c.num_qubits()), b(c.num_qubits());
  a.apply_circuit(c);
  b.apply_circuit(back);
  EXPECT_TRUE(approx_equal(a.inner(b), cplx{1.0, 0.0}, 1e-10));
}

}  // namespace
}  // namespace noisim
