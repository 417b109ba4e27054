#pragma once
// The topology every plan-replay engine (the Algorithm-1 sweep and the
// tensor-network trajectory sampler) compiles for a noisy circuit, rebuilt
// independently for tests that size arenas and memory ceilings from it.
#include <cstddef>
#include <variant>
#include <vector>

#include "channels/noisy_circuit.hpp"
#include "circuit/gate.hpp"
#include "linalg/matrix.hpp"

namespace noisim::core {

/// The circuit's gates with an identity at every noise site, of the same
/// shape as the insertions that replace it.
inline std::vector<qc::Gate> identity_skeleton(const ch::NoisyCircuit& nc) {
  std::vector<qc::Gate> skeleton;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      skeleton.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    skeleton.push_back(noise.num_qubits() == 1
                           ? qc::u1q(noise.qubit, la::Matrix::identity(2))
                           : qc::u2q(noise.qubit, noise.qubit2, la::Matrix::identity(4)));
  }
  return skeleton;
}

/// Network nodes of the noise sites in the skeleton's amplitude network
/// (node order: n input caps, then one node per op).
inline std::vector<std::size_t> noise_site_nodes(const ch::NoisyCircuit& nc) {
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < nc.ops().size(); ++i)
    if (std::holds_alternative<ch::NoiseOp>(nc.ops()[i]))
      nodes.push_back(static_cast<std::size_t>(nc.num_qubits()) + i);
  return nodes;
}

}  // namespace noisim::core
