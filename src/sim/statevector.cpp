#include "sim/statevector.hpp"

#include <cmath>

#include "tensor/kernels.hpp"

namespace noisim::sim {

namespace {

const cplx kZero{0.0, 0.0};
const cplx kOne{1.0, 0.0};

bool is_cx(const la::Matrix& m) {
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      const bool one = (r < 2 && c == r) || (r == 2 && c == 3) || (r == 3 && c == 2);
      if (m(r, c) != (one ? kOne : kZero)) return false;
    }
  return true;
}

/// Real and imaginary parts of conj(a) * w, as std::complex computes them.
inline void conj_mul_acc(double ar, double ai, double wr, double wi, double& sr, double& si) {
  sr += ar * wr + ai * wi;
  si += ar * wi - ai * wr;
}

}  // namespace

SvOp SvOp::one(const la::Matrix& m, std::size_t bit) {
  la::detail::require(m.rows() == 2 && m.cols() == 2, "SvOp: need a 2x2 matrix");
  SvOp op;
  op.bit_a = bit;
  if (m(0, 1) == kZero && m(1, 0) == kZero) {
    op.shape = Shape::Diag1;
    op.coef[0] = m(0, 0);
    op.coef[1] = m(1, 1);
  } else {
    op.shape = Shape::Dense1;
    for (std::size_t e = 0; e < 4; ++e) op.coef[e] = m(e / 2, e % 2);
  }
  return op;
}

SvOp SvOp::two(const la::Matrix& m, std::size_t bit_a, std::size_t bit_b) {
  la::detail::require(m.rows() == 4 && m.cols() == 4, "SvOp: need a 4x4 matrix");
  SvOp op;
  op.bit_a = bit_a;
  op.bit_b = bit_b;
  bool diagonal = true;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      if (r != c && m(r, c) != kZero) diagonal = false;
  if (diagonal) {
    op.shape = Shape::Diag2;
    for (std::size_t t = 0; t < 4; ++t) op.coef[t] = m(t, t);
  } else if (is_cx(m)) {
    op.shape = Shape::Cx;
  } else {
    op.shape = Shape::Dense2;
    for (std::size_t e = 0; e < 16; ++e) op.coef[e] = m(e / 4, e % 4);
  }
  return op;
}

void SvOp::apply(cplx* v, std::size_t size, const tsr::KernelTable& kt) const {
  switch (shape) {
    case Shape::Dense1:
      return kt.sv_dense1(v, size, bit_a, coef.data());
    case Shape::Diag1:
      return kt.sv_diag1(v, size, bit_a, coef.data());
    case Shape::Dense2:
      return kt.sv_dense2(v, size, bit_a, bit_b, coef.data());
    case Shape::Diag2:
      return kt.sv_diag2(v, size, bit_a, bit_b, coef.data());
    case Shape::Cx:
      return kt.sv_cx(v, size, bit_a, bit_b);
  }
}

cplx expectation1(const cplx* v, std::size_t size, const SvOp& m) {
  la::detail::require(m.shape == SvOp::Shape::Dense1 || m.shape == SvOp::Shape::Diag1,
                      "expectation1: need a 1-qubit operator");
  // The textbook loop adds conj(a0) (m00 a0 + m01 a1), then
  // conj(a1) (m10 a0 + m11 a1), per pair in ascending index order; the
  // pair-stride walk below visits the pairs in that same order. The sum is
  // one dependency chain, so it stays scalar. For a diagonal operator the
  // dropped 0*a terms are exact zeros, which can flip only the sign of a
  // zero partial product -- and the running sum, which starts at +0,
  // absorbs either sign identically.
  const std::size_t bit = m.bit_a;
  const double* p = reinterpret_cast<const double*>(v);
  double sr = 0.0, si = 0.0;
  if (m.shape == SvOp::Shape::Diag1) {
    const double d0r = m.coef[0].real(), d0i = m.coef[0].imag();
    const double d1r = m.coef[1].real(), d1i = m.coef[1].imag();
    for (std::size_t base = 0; base < size; base += 2 * bit)
      for (std::size_t i = base; i < base + bit; ++i) {
        const double a0r = p[2 * i], a0i = p[2 * i + 1];
        const double a1r = p[2 * (i + bit)], a1i = p[2 * (i + bit) + 1];
        conj_mul_acc(a0r, a0i, d0r * a0r - d0i * a0i, d0r * a0i + d0i * a0r, sr, si);
        conj_mul_acc(a1r, a1i, d1r * a1r - d1i * a1i, d1r * a1i + d1i * a1r, sr, si);
      }
    return {sr, si};
  }
  const double m00r = m.coef[0].real(), m00i = m.coef[0].imag();
  const double m01r = m.coef[1].real(), m01i = m.coef[1].imag();
  const double m10r = m.coef[2].real(), m10i = m.coef[2].imag();
  const double m11r = m.coef[3].real(), m11i = m.coef[3].imag();
  for (std::size_t base = 0; base < size; base += 2 * bit)
    for (std::size_t i = base; i < base + bit; ++i) {
      const double a0r = p[2 * i], a0i = p[2 * i + 1];
      const double a1r = p[2 * (i + bit)], a1i = p[2 * (i + bit) + 1];
      const double w0r = (m00r * a0r - m00i * a0i) + (m01r * a1r - m01i * a1i);
      const double w0i = (m00r * a0i + m00i * a0r) + (m01r * a1i + m01i * a1r);
      const double w1r = (m10r * a0r - m10i * a0i) + (m11r * a1r - m11i * a1i);
      const double w1i = (m10r * a0i + m10i * a0r) + (m11r * a1i + m11i * a1r);
      conj_mul_acc(a0r, a0i, w0r, w0i, sr, si);
      conj_mul_acc(a1r, a1i, w1r, w1i, sr, si);
    }
  return {sr, si};
}

double norm2(const cplx* v, std::size_t size) {
  double s = 0.0;
  for (std::size_t i = 0; i < size; ++i) s += std::norm(v[i]);
  return s;
}

Statevector::Statevector(int n) : n_(n) {
  la::detail::require(n > 0 && n <= 26, "Statevector: qubit count out of range [1, 26]");
  amps_.assign(std::size_t{1} << n, cplx{0.0, 0.0});
  amps_[0] = cplx{1.0, 0.0};
}

Statevector Statevector::basis(int n, std::uint64_t bits) {
  Statevector sv(n);
  la::detail::require(bits < sv.amps_.size(), "Statevector::basis: bits out of range");
  sv.amps_[0] = cplx{0.0, 0.0};
  sv.amps_[bits] = cplx{1.0, 0.0};
  return sv;
}

Statevector Statevector::from_vector(int n, const la::Vector& v) {
  Statevector sv(n);
  la::detail::require(v.size() == sv.amps_.size(), "Statevector::from_vector: size mismatch");
  for (std::size_t i = 0; i < v.size(); ++i) sv.amps_[i] = v[i];
  return sv;
}

void Statevector::apply_matrix1(const la::Matrix& m, int q) {
  la::detail::require(m.rows() == 2 && m.cols() == 2, "apply_matrix1: need 2x2");
  la::detail::require(q >= 0 && q < n_, "apply_matrix1: qubit out of range");
  SvOp::one(m, qubit_bit(n_, q)).apply(amps_.data(), amps_.size(), tsr::active_kernels());
}

void Statevector::apply_matrix2(const la::Matrix& m, int a, int b) {
  la::detail::require(m.rows() == 4 && m.cols() == 4, "apply_matrix2: need 4x4");
  la::detail::require(a >= 0 && a < n_ && b >= 0 && b < n_ && a != b,
                      "apply_matrix2: qubits out of range");
  SvOp::two(m, qubit_bit(n_, a), qubit_bit(n_, b))
      .apply(amps_.data(), amps_.size(), tsr::active_kernels());
}

void Statevector::apply_gate(const qc::Gate& g) {
  if (g.num_qubits() == 1)
    apply_matrix1(g.matrix(), g.qubits[0]);
  else
    apply_matrix2(g.matrix(), g.qubits[0], g.qubits[1]);
}

void Statevector::apply_circuit(const qc::Circuit& c) {
  la::detail::require(c.num_qubits() == n_, "apply_circuit: width mismatch");
  for (const qc::Gate& g : c.gates()) apply_gate(g);
}

cplx Statevector::inner(const Statevector& other) const {
  la::detail::require(n_ == other.n_, "Statevector::inner: width mismatch");
  cplx s{0.0, 0.0};
  for (std::size_t i = 0; i < amps_.size(); ++i) s += std::conj(amps_[i]) * other.amps_[i];
  return s;
}

cplx Statevector::expectation1(const la::Matrix& m, int q) const {
  la::detail::require(m.rows() == 2 && m.cols() == 2, "expectation1: need 2x2");
  la::detail::require(q >= 0 && q < n_, "expectation1: qubit out of range");
  return sim::expectation1(amps_.data(), amps_.size(), SvOp::one(m, qubit_bit(n_, q)));
}

double Statevector::norm2() const { return sim::norm2(amps_.data(), amps_.size()); }

double Statevector::norm() const { return std::sqrt(norm2()); }

void Statevector::normalize() {
  const double n = norm();
  la::detail::require(n > 0.0, "Statevector::normalize: zero state");
  for (cplx& a : amps_) a /= n;
}

la::Vector Statevector::to_vector() const {
  la::Vector v(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) v[i] = amps_[i];
  return v;
}

cplx basis_amplitude(const qc::Circuit& c, std::uint64_t psi_bits, std::uint64_t v_bits) {
  Statevector sv = Statevector::basis(c.num_qubits(), psi_bits);
  sv.apply_circuit(c);
  return sv.amplitude(v_bits);
}

}  // namespace noisim::sim
