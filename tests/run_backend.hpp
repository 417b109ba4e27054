#pragma once
// Run one simulate() backend on its own: its default_backends() adapter's
// estimate() and run() under the caller's options, the two calls simulate()
// makes once selection reaches that backend. Tests compare an escalated or
// selected simulate() result against it; the adapters enter the engines
// exactly as a direct caller would, so the values are bit-identical.
#include <cstdint>
#include <string>

#include "core/backend.hpp"
#include "linalg/complex.hpp"

namespace noisim::core {

/// Throws LinalgError naming the backend and its reason when its bid is
/// infeasible under `opts`.
inline SimResult run_backend(BackendKind kind, const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                             std::uint64_t v_bits, const SimulateOptions& opts) {
  for (const Backend* b : default_backends()) {
    if (b->kind() != kind) continue;
    SimResult out;
    out.backend = kind;
    out.config = b->estimate(nc, psi_bits, v_bits, opts);
    if (!out.config.feasible)
      la::detail::fail(std::string("run_backend: ") + backend_name(kind) +
                       " infeasible: " + out.config.reason);
    b->run(nc, psi_bits, v_bits, opts, out.config, out);
    return out;
  }
  la::detail::fail(std::string("run_backend: no adapter for ") + backend_name(kind));
}

}  // namespace noisim::core
