// How noise degrades a random supremacy-style circuit: exact doubled-diagram
// contraction of inst_4x4 under a growing number of decoherence sites, plus
// the point where the exact method gives out and the approximation takes
// over -- the workload class Google's quantum-supremacy experiments made
// famous and the paper's hardest benchmark family.
//
// Build & run:  ./build/examples/supremacy_noise_scaling

#include <iostream>

#include "bench_support/generators.hpp"
#include "bench_support/harness.hpp"
#include "core/approx.hpp"
#include "core/backend.hpp"
#include "core/doubled_network.hpp"
#include "core/plan_cache.hpp"

int main() {
  using namespace noisim;

  const qc::Circuit circuit = bench::supremacy_inst(4, 4, 12, 99);
  std::cout << "inst_4x4_12 random circuit: " << circuit.num_qubits() << " qubits, "
            << circuit.size() << " gates, depth " << circuit.depth() << "\n"
            << "output amplitude probed: <0..0|E(|0..0><0..0|)|0..0>\n\n";

  core::PlanCache cache;
  bench::Table table(
      {"#noises", "exact TN", "t_exact(s)", "simulate()", "backend/lvl", "t_sim(s)"});
  for (std::size_t noises : {0u, 4u, 8u, 16u, 32u}) {
    const std::size_t count = std::min<std::size_t>(noises, circuit.size());
    const ch::NoisyCircuit nc =
        bench::insert_noises(circuit, count, bench::realistic_noise(7e-3), 5 + noises);

    tn::ContractOptions topts;
    topts.max_tensor_elems = std::size_t{1} << 24;
    const auto exact = bench::run_guarded([&] {
      core::RunControl budget;  // one 60 s budget for the whole run
      budget.set_deadline_after(60.0);
      tn::ContractOptions guarded = topts;
      guarded.control = &budget;
      return core::exact_fidelity_tn(nc, 0, 0, guarded);
    });

    // The front door: no backend hints -- at 16 qubits it arbitrates the
    // density matrix against the Algorithm-1 ladder and the samplers on
    // modeled cost alone.
    core::SimulateOptions sopts;
    sopts.error_budget = 2e-2;
    sopts.eval.tn = topts;
    sopts.deadline = 60.0;
    sopts.plan_cache = &cache;
    core::SimResult pick;
    bool fit = true;  // false when no backend can meet the budgets
    const auto ours = bench::run_guarded([&] {
      try {
        pick = core::simulate(nc, 0, 0, sopts);
      } catch (const LinalgError&) {
        fit = false;
        return 0.0;
      }
      return pick.value;
    });
    const bool picked = ours.ok() && fit;
    std::string chosen = "no fit";
    if (picked) {
      chosen = core::backend_name(pick.backend);
      if (pick.backend == core::BackendKind::TnApprox) {
        chosen += "/";
        chosen += std::to_string(pick.config.level);
      }
    }

    table.add_row({std::to_string(count), bench::format_value(exact),
                   bench::format_time(exact), picked ? bench::format_value(ours) : "-",
                   chosen, bench::format_time(ours)});
  }
  table.print(std::cout);
  std::cout << "\nThe exact doubled diagram inflates with every noise coupling; the\n"
            << "front door rides the Algorithm-1 level ladder instead -- and refuses\n"
            << "honestly (\"no fit\") once no configuration meets the error budget\n"
            << "within the deadline, rather than returning a value it cannot bound.\n";
  return 0;
}
