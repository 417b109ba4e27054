#pragma once
// Schrodinger state-vector simulator.
//
// Bit convention: qubit 0 is the MOST significant bit of the amplitude
// index, so the state of qubits (q0, q1, ...) is kron(q0, q1, ...). This
// matches qc::circuit_unitary and la::kron throughout the library.
//
// apply_matrix* accept arbitrary (including non-unitary) matrices: the
// trajectories method applies Kraus operators and renormalizes, and the
// paper's approximation algorithm inserts non-unitary SVD factors.
//
// Every update runs through the active kernel table (tensor/kernels.hpp):
// an operator is first resolved into an SvOp -- its shape class read off
// the matrix's exact-zero pattern (dense, diagonal, CX permutation), its
// index bit masks and its coefficients -- and the matching kernel family
// then makes one pair-stride pass over the amplitudes. All shape classes
// and tiers compute the same bits as the plain dense loop (up to the sign
// of an exact zero; see tensor/contract.hpp).

#include <array>
#include <cstdint>
#include <vector>

#include "channels/noisy_circuit.hpp"
#include "circuit/circuit.hpp"

namespace noisim::tsr {
struct KernelTable;
}

namespace noisim::sim {

/// Index bit of qubit q in an n-qubit state (qubit 0 most significant).
inline std::size_t qubit_bit(int n, int q) { return std::size_t{1} << (n - 1 - q); }

/// A 1- or 2-qubit operator resolved once for the kernel table, so a
/// circuit replayed many times (trajectory samples) builds no matrix and
/// classifies nothing per application.
struct SvOp {
  enum class Shape : std::uint8_t { Dense1, Diag1, Dense2, Diag2, Cx };
  Shape shape = Shape::Dense1;
  std::size_t bit_a = 0;  // the 1-qubit bit, or the matrix's high-order bit
  std::size_t bit_b = 0;  // the matrix's low-order bit (2-qubit shapes)
  std::array<cplx, 16> coef{};  // row-major matrix, or its diagonal

  /// 2x2 matrix on index bit `bit` (Diag1 when both off-diagonal entries
  /// are exactly zero).
  static SvOp one(const la::Matrix& m, std::size_t bit);
  /// 4x4 matrix on (bit_a, bit_b) (Diag2 when every off-diagonal entry is
  /// exactly zero, Cx when it is exactly the CX permutation).
  static SvOp two(const la::Matrix& m, std::size_t bit_a, std::size_t bit_b);

  /// v[0..size) <- op v through table `kt`.
  void apply(cplx* v, std::size_t size, const tsr::KernelTable& kt) const;
};

/// <v| M |v> for a resolved 1-qubit operator over the amplitude buffer
/// v[0..size): the pair terms conj(a0) (M a)_0 + conj(a1) (M a)_1
/// accumulated in ascending index order -- the same bits as the textbook
/// full-range loop.
cplx expectation1(const cplx* v, std::size_t size, const SvOp& m);

class Statevector {
 public:
  /// |0...0> on n qubits (n <= 26 guarded by allocation size).
  explicit Statevector(int n);
  /// Computational basis state |bits>, bit of qubit 0 most significant.
  static Statevector basis(int n, std::uint64_t bits);
  /// Adopt an explicit amplitude vector (size must be 2^n).
  static Statevector from_vector(int n, const la::Vector& v);

  int num_qubits() const { return n_; }
  std::size_t size() const { return amps_.size(); }
  const cplx* data() const { return amps_.data(); }

  /// Amplitude of |bits>; throws LinalgError when bits >= 2^n.
  cplx amplitude(std::uint64_t bits) const {
    la::detail::require(bits < amps_.size(), "Statevector::amplitude: bits out of range");
    return amps_[bits];
  }

  /// Apply an arbitrary 2x2 matrix to qubit q.
  void apply_matrix1(const la::Matrix& m, int q);
  /// Apply an arbitrary 4x4 matrix to qubits (a, b); a indexes the
  /// high-order bit of the matrix.
  void apply_matrix2(const la::Matrix& m, int a, int b);
  /// Apply a gate (dispatches on arity).
  void apply_gate(const qc::Gate& g);
  /// Apply every gate of a circuit in order.
  void apply_circuit(const qc::Circuit& c);

  /// <this|other>.
  cplx inner(const Statevector& other) const;
  /// <psi| M_q |psi> for a 2x2 operator M on qubit q (no copy).
  cplx expectation1(const la::Matrix& m, int q) const;

  double norm2() const;
  double norm() const;
  void normalize();

  la::Vector to_vector() const;

 private:
  int n_ = 0;
  std::vector<cplx> amps_;
};

/// Sum of |a|^2 over v[0..size) in ascending index order.
double norm2(const cplx* v, std::size_t size);

/// <v|C|psi> for computational basis states |psi> = |psi_bits>,
/// |v> = |v_bits> (reference amplitude for tests and small benchmarks).
cplx basis_amplitude(const qc::Circuit& c, std::uint64_t psi_bits, std::uint64_t v_bits);

}  // namespace noisim::sim
