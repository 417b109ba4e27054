#pragma once
// Exact density-matrix simulation: the paper's "MM-based" accurate baseline.
//
// rho is stored row-major as a 4^n vector; a unitary U acts as
// rho -> U rho U^dagger, a channel as rho -> sum_k E_k rho E_k^dagger.
// Operators are applied locally (row index = "row qubits", column index =
// "column qubits"), so each gate costs O(4^n) instead of dense O(8^n)
// matrix products. The 4^n memory footprint is what makes this method "MO"
// on the paper's larger benchmarks.

#include <cstdint>

#include "channels/noisy_circuit.hpp"
#include "sim/statevector.hpp"

namespace noisim::sim {

class DensityMatrix {
 public:
  /// |0..0><0..0| on n qubits (n <= 13 to bound memory at ~1 GiB).
  explicit DensityMatrix(int n);
  static DensityMatrix from_statevector(const Statevector& sv);

  int num_qubits() const { return n_; }
  std::size_t dim() const { return std::size_t{1} << n_; }

  /// rho -> U rho U^dagger.
  void apply_gate(const qc::Gate& g);
  /// rho -> sum_k E_k rho E_k^dagger for a 1-qubit channel on qubit q.
  void apply_channel(const ch::Channel& channel, int q);
  /// 2-qubit channel on (a, b); a indexes the Kraus operators' high bit.
  void apply_channel_2q(const ch::Channel& channel, int a, int b);
  /// Run a whole noisy circuit.
  void evolve(const ch::NoisyCircuit& nc);

  cplx element(std::uint64_t row, std::uint64_t col) const;
  double trace() const;
  /// <v|rho|v> for a computational basis state |v_bits>.
  double fidelity_basis(std::uint64_t v_bits) const;
  /// <v|rho|v> for an arbitrary state vector of dimension 2^n.
  double fidelity(const la::Vector& v) const;

  la::Matrix to_matrix() const;

 private:
  /// buf <- (m on the row bits) buf (conj(m) on the column bits) for a
  /// 1-qubit (b < 0) or 2-qubit operator; a indexes m's high-order bit.
  void apply_local(const la::Matrix& m, int a, int b, std::vector<cplx>& buf) const;

  int n_ = 0;
  std::vector<cplx> rho_;  // row-major, size 4^n
};

/// End-to-end exact value of <v|E(|psi><psi|)|v> for basis psi/v
/// (the reference used by the accuracy experiments).
double exact_fidelity_mm(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                         std::uint64_t v_bits);

/// Widest circuit DensityMatrix accepts (memory bounded at ~1 GiB).
inline constexpr int kDensityMaxQubits = 13;

/// Plan-time flop model of DensityMatrix::evolve, in modeled complex
/// multiply-adds: every op touches all 4^n elements twice (row- and
/// column-side local updates); channels repeat that per Kraus operator.
double density_evolution_flops(const ch::NoisyCircuit& nc);

}  // namespace noisim::sim
