#include "sim/density.hpp"

#include <cmath>

#include "tensor/kernels.hpp"

namespace noisim::sim {

DensityMatrix::DensityMatrix(int n) : n_(n) {
  la::detail::require(n > 0 && n <= kDensityMaxQubits,
                      "DensityMatrix: qubit count out of range [1, 13]");
  rho_.assign(std::size_t{1} << (2 * n), cplx{0.0, 0.0});
  rho_[0] = cplx{1.0, 0.0};
}

DensityMatrix DensityMatrix::from_statevector(const Statevector& sv) {
  DensityMatrix dm(sv.num_qubits());
  const std::size_t d = dm.dim();
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t c = 0; c < d; ++c)
      dm.rho_[r * d + c] = sv.amplitude(r) * std::conj(sv.amplitude(c));
  return dm;
}

void DensityMatrix::apply_gate(const qc::Gate& g) {
  const la::Matrix u = g.matrix();
  if (g.num_qubits() == 1)
    apply_local(u, g.qubits[0], -1, rho_);
  else
    apply_local(u, g.qubits[0], g.qubits[1], rho_);
}

void DensityMatrix::apply_local(const la::Matrix& m, int a, int b, std::vector<cplx>& buf) const {
  // U on the row bits, conj(U) on the column bits (right-multiplication by
  // U^dag), each one pass of the state-vector kernels over the flat buffer.
  const tsr::KernelTable& kt = tsr::active_kernels();
  const int two_n = 2 * n_;
  if (b < 0) {
    SvOp::one(m, qubit_bit(two_n, a)).apply(buf.data(), buf.size(), kt);
    SvOp::one(m.conj(), qubit_bit(n_, a)).apply(buf.data(), buf.size(), kt);
  } else {
    SvOp::two(m, qubit_bit(two_n, a), qubit_bit(two_n, b)).apply(buf.data(), buf.size(), kt);
    SvOp::two(m.conj(), qubit_bit(n_, a), qubit_bit(n_, b)).apply(buf.data(), buf.size(), kt);
  }
}

void DensityMatrix::apply_channel(const ch::Channel& channel, int q) {
  la::detail::require(channel.dim() == 2, "DensityMatrix::apply_channel: 1-qubit channels only");
  la::detail::require(q >= 0 && q < n_, "DensityMatrix::apply_channel: qubit out of range");
  std::vector<cplx> acc(rho_.size(), cplx{0.0, 0.0});
  std::vector<cplx> buf;
  for (const la::Matrix& k : channel.kraus()) {
    buf = rho_;
    apply_local(k, q, -1, buf);
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += buf[i];
  }
  rho_ = std::move(acc);
}

void DensityMatrix::apply_channel_2q(const ch::Channel& channel, int a, int b) {
  la::detail::require(channel.dim() == 4, "DensityMatrix::apply_channel_2q: need dim 4");
  la::detail::require(a >= 0 && a < n_ && b >= 0 && b < n_ && a != b,
                      "DensityMatrix::apply_channel_2q: bad qubits");
  std::vector<cplx> acc(rho_.size(), cplx{0.0, 0.0});
  std::vector<cplx> buf;
  for (const la::Matrix& k : channel.kraus()) {
    buf = rho_;
    apply_local(k, a, b, buf);
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += buf[i];
  }
  rho_ = std::move(acc);
}

void DensityMatrix::evolve(const ch::NoisyCircuit& nc) {
  la::detail::require(nc.num_qubits() == n_, "DensityMatrix::evolve: width mismatch");
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      apply_gate(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    if (noise.num_qubits() == 1)
      apply_channel(noise.channel, noise.qubit);
    else
      apply_channel_2q(noise.channel, noise.qubit, noise.qubit2);
  }
}

cplx DensityMatrix::element(std::uint64_t row, std::uint64_t col) const {
  return rho_[row * dim() + col];
}

double DensityMatrix::trace() const {
  const std::size_t d = dim();
  cplx s{0.0, 0.0};
  for (std::size_t i = 0; i < d; ++i) s += rho_[i * d + i];
  return s.real();
}

double DensityMatrix::fidelity_basis(std::uint64_t v_bits) const {
  return rho_[v_bits * dim() + v_bits].real();
}

double DensityMatrix::fidelity(const la::Vector& v) const {
  const std::size_t d = dim();
  la::detail::require(v.size() == d, "DensityMatrix::fidelity: size mismatch");
  cplx s{0.0, 0.0};
  for (std::size_t r = 0; r < d; ++r) {
    cplx w{0.0, 0.0};
    const cplx* row = rho_.data() + r * d;
    for (std::size_t c = 0; c < d; ++c) w += row[c] * v[c];
    s += std::conj(v[r]) * w;
  }
  return s.real();
}

la::Matrix DensityMatrix::to_matrix() const {
  const std::size_t d = dim();
  la::Matrix m(d, d);
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t c = 0; c < d; ++c) m(r, c) = rho_[r * d + c];
  return m;
}

double exact_fidelity_mm(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                         std::uint64_t v_bits) {
  DensityMatrix dm(nc.num_qubits());
  if (psi_bits != 0) {
    DensityMatrix from = DensityMatrix::from_statevector(
        Statevector::basis(nc.num_qubits(), psi_bits));
    dm = std::move(from);
  }
  dm.evolve(nc);
  return dm.fidelity_basis(v_bits);
}

double density_evolution_flops(const ch::NoisyCircuit& nc) {
  const double dim_sq = std::pow(4.0, std::min(nc.num_qubits(), 31));
  double flops = 0.0;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      // U rho U^dag: one row-side and one column-side local update.
      flops += (g->num_qubits() == 1 ? 2.0 : 4.0) * 2.0 * dim_sq;
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    const double per_kraus = (noise.num_qubits() == 1 ? 2.0 : 4.0) * 2.0 * dim_sq;
    flops += static_cast<double>(noise.channel.kraus().size()) * per_kraus;
  }
  return flops;
}

}  // namespace noisim::sim
