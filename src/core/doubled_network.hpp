#pragma once
// The paper's doubled tensor-network diagram (Section III, Fig. 2) and the
// exact "TN-based" noisy simulator built on it:
//
//   <v| E_N(|psi><psi|) |v>
//     = (<v| (x) <v*|) M_{E_d} ... M_{E_1} (|psi> (x) |psi*>)
//
// Unitary gates contribute two uncoupled tensors (U on the top layer, U* on
// the bottom); every noise contributes one rank-4 superoperator tensor M_E
// coupling its top and bottom wires. Contracting the whole diagram yields
// the exact fidelity; this is the accurate baseline of Table II and the
// blow-up curve of Fig. 4.

#include <cstdint>

#include "channels/noisy_circuit.hpp"
#include "tn/contractor.hpp"

namespace noisim::core {

/// Build the doubled diagram for <v_bits| E(|psi_bits><psi_bits|) |v_bits>.
tn::Network doubled_network(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                            std::uint64_t v_bits);

/// Contract the doubled diagram exactly. The result of the contraction is a
/// fidelity, hence real up to roundoff; the real part is returned.
double exact_fidelity_tn(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                         std::uint64_t v_bits, const tn::ContractOptions& opts = {},
                         tn::ContractStats* stats = nullptr);

}  // namespace noisim::core
