#pragma once
// TDD-based simulation: contract a tensor network with TDD arithmetic.
//
// The network's edge ids double as TDD index variables (creation order =
// circuit time order, a natural diagram ordering for circuits). Nodes are
// absorbed sequentially; an edge is summed out as soon as both endpoints
// have been absorbed. Reusing the core/ network builders means one code
// path simulates both noiseless amplitudes and the doubled noisy diagram.

#include <cstdint>

#include "channels/noisy_circuit.hpp"
#include "core/run_control.hpp"
#include "tdd/tdd.hpp"
#include "tn/network.hpp"

namespace noisim::tdd {

struct TddSimOptions {
  /// Node budget; exceeding it throws MemoryOutError ("MO" in benchmarks).
  std::size_t max_nodes = std::size_t{1} << 22;
  /// Cooperative control (cancel / deadline, "TO" in benchmarks), polled
  /// once per absorbed node; caller-owned, may be null.
  const core::RunControl* control = nullptr;
};

struct TddStats {
  std::size_t peak_nodes = 0;     // largest intermediate diagram (reachable nodes)
  std::size_t total_nodes = 0;    // arena size at the end
  double elapsed_seconds = 0.0;
};

/// Contract a closed network to its scalar value using TDDs.
cplx tdd_contract_network(const tn::Network& net, const TddSimOptions& opts = {},
                          TddStats* stats = nullptr);

/// Exact noisy fidelity <v|E(|psi><psi|)|v> through the doubled diagram,
/// evaluated with TDD arithmetic (the paper's "TDD-based" baseline).
double exact_fidelity_tdd(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                          std::uint64_t v_bits, const TddSimOptions& opts = {},
                          TddStats* stats = nullptr);

}  // namespace noisim::tdd
