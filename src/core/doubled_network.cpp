#include "core/doubled_network.hpp"

#include "core/circuit_network.hpp"
#include "tensor/contract.hpp"

namespace noisim::core {

namespace {

/// The doubled diagram body without output caps: the open (top, bottom)
/// wire pair per qubit carries the evolved density matrix sigma[i, j].
struct OpenDoubledNetwork {
  tn::Network net;
  std::vector<tn::EdgeId> top;     // final top wire of each qubit
  std::vector<tn::EdgeId> bottom;  // final bottom wire of each qubit
};

OpenDoubledNetwork doubled_network_open(const ch::NoisyCircuit& nc, std::uint64_t psi_bits) {
  const int n = nc.num_qubits();
  la::detail::require(n > 0, "doubled_network: qubit count out of range");
  tn::Network net;

  std::vector<tn::EdgeId> top(static_cast<std::size_t>(n)), bot(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    const bool one = basis_bit(psi_bits, n, q);
    top[static_cast<std::size_t>(q)] = net.new_edge();
    net.add_node(basis_state_tensor(one), {top[static_cast<std::size_t>(q)]}, "psi.top");
    bot[static_cast<std::size_t>(q)] = net.new_edge();
    // |psi*> = |psi> for computational basis inputs.
    net.add_node(basis_state_tensor(one), {bot[static_cast<std::size_t>(q)]}, "psi.bot");
  }

  auto add_gate_layer = [&](const qc::Gate& g, std::vector<tn::EdgeId>& wire, bool conjugate) {
    la::Matrix m = g.matrix();
    if (conjugate) m = m.conj();
    if (g.num_qubits() == 1) {
      const auto q = static_cast<std::size_t>(g.qubits[0]);
      const tn::EdgeId out = net.new_edge();
      net.add_node(gate_matrix_tensor(m, 1), {out, wire[q]},
                   (conjugate ? "conj:" : "") + g.description());
      wire[q] = out;
    } else {
      const auto a = static_cast<std::size_t>(g.qubits[0]);
      const auto b = static_cast<std::size_t>(g.qubits[1]);
      const tn::EdgeId out_a = net.new_edge();
      const tn::EdgeId out_b = net.new_edge();
      net.add_node(gate_matrix_tensor(m, 2), {out_a, out_b, wire[a], wire[b]},
                   (conjugate ? "conj:" : "") + g.description());
      wire[a] = out_a;
      wire[b] = out_b;
    }
  };

  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      add_gate_layer(*g, top, /*conjugate=*/false);
      add_gate_layer(*g, bot, /*conjugate=*/true);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    const auto q = static_cast<std::size_t>(noise.qubit);
    if (noise.num_qubits() == 1) {
      // M_E[(i,j),(k,l)]: i/k top out/in, j/l bottom out/in. Row-major
      // reshape gives axes [top_out, bot_out, top_in, bot_in].
      tsr::Tensor m =
          tsr::Tensor::from_matrix(noise.channel.superoperator()).reshape({2, 2, 2, 2});
      const tn::EdgeId top_out = net.new_edge();
      const tn::EdgeId bot_out = net.new_edge();
      net.add_node(std::move(m), {top_out, bot_out, top[q], bot[q]},
                   "M[" + noise.channel.name() + "]");
      top[q] = top_out;
      bot[q] = bot_out;
    } else {
      // 2-qubit extension: the 16x16 superoperator, reshaped row-major into
      // eight dimension-2 axes [topA_out, topB_out, botA_out, botB_out,
      // topA_in, topB_in, botA_in, botB_in].
      const auto q2 = static_cast<std::size_t>(noise.qubit2);
      tsr::Tensor m = tsr::Tensor::from_matrix(noise.channel.superoperator())
                          .reshape({2, 2, 2, 2, 2, 2, 2, 2});
      const tn::EdgeId ta = net.new_edge(), tb = net.new_edge();
      const tn::EdgeId ba = net.new_edge(), bb = net.new_edge();
      net.add_node(std::move(m), {ta, tb, ba, bb, top[q], top[q2], bot[q], bot[q2]},
                   "M2[" + noise.channel.name() + "]");
      top[q] = ta;
      top[q2] = tb;
      bot[q] = ba;
      bot[q2] = bb;
    }
  }

  return OpenDoubledNetwork{std::move(net), std::move(top), std::move(bot)};
}

}  // namespace

tn::Network doubled_network(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                            std::uint64_t v_bits) {
  OpenDoubledNetwork open = doubled_network_open(nc, psi_bits);
  const int n = nc.num_qubits();
  for (int q = 0; q < n; ++q) {
    const bool one = basis_bit(v_bits, n, q);
    open.net.add_node(basis_state_tensor(one), {open.top[static_cast<std::size_t>(q)]}, "v.top");
    open.net.add_node(basis_state_tensor(one), {open.bottom[static_cast<std::size_t>(q)]},
                      "v.bot");
  }
  return std::move(open.net);
}

double exact_fidelity_tn(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                         std::uint64_t v_bits, const tn::ContractOptions& opts,
                         tn::ContractStats* stats) {
  return tn::contract_to_scalar(doubled_network(nc, psi_bits, v_bits), opts, stats).real();
}

}  // namespace noisim::core
