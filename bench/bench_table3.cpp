// Table III: our algorithm vs. the quantum trajectories method (MM- and
// TN-based implementations) at matched precision.
//
// Protocol (following the paper): 20 depolarizing noises with p = 0.001 are
// injected into QAOA circuits; the trajectories sample count is chosen to
// match the precision of our level-1 approximation; precision is measured
// against the exact (TN-based) fidelity where computable. The Traj (TN)
// column contracts every sampled trajectory's amplitude on every row, the
// 4- and 9-qubit grids included (core::trajectories_tn has no state-vector
// path).

#include "bench_common.hpp"
#include "core/approx.hpp"
#include "core/bounds.hpp"
#include "core/doubled_network.hpp"
#include "core/trajectories_tn.hpp"
#include "sim/trajectories.hpp"

namespace {
using namespace noisim;
}

int main() {
  bench::print_header("Table III: ours vs approximate methods", "paper Table III");

  struct Row {
    std::string name;
    qc::Circuit circuit;
  };
  std::vector<Row> rows;
  rows.push_back({"qaoa_4(2x2)", bench::qaoa_grid(2, 2, 1, 31)});
  rows.push_back({"qaoa_9(3x3)", bench::qaoa_grid(3, 3, 1, 32)});
  rows.push_back({"qaoa_16", bench::qaoa(16, 1, 33)});
  if (bench::large_mode()) {
    rows.push_back({"qaoa_36", bench::qaoa(36, 1, 34)});
    rows.push_back({"qaoa_64", bench::qaoa(64, 1, 35)});
  }

  const double p = 0.001;
  bench::Table table({"circuit", "prec:ours", "prec:traj(MM)", "prec:traj(TN)", "t:ours",
                      "t:traj(MM)", "t:traj(TN)", "samples"});

  for (const Row& row : rows) {
    const std::size_t noises = std::min<std::size_t>(20, row.circuit.size());
    const ch::NoisyCircuit nc =
        bench::insert_noises(row.circuit, noises, bench::depolarizing_noise(p), 201);

    // Reference: exact TN fidelity.
    const auto exact = bench::run_guarded([&] {
      const bench::Deadline budget(bench::timeout_large());
      tn::ContractOptions exact_opts;
      exact_opts.control = &budget;
      exact_opts.max_tensor_elems = bench::memory_budget();
      return core::exact_fidelity_tn(nc, 0, 0, exact_opts);
    });

    // Ours, level 1.
    const auto ours = bench::run_guarded([&] {
      const bench::Deadline budget(bench::timeout_large());
      core::ApproxOptions opts;
      opts.level = 1;
      opts.control = &budget;
      opts.eval.tn.max_tensor_elems = bench::memory_budget();
      return core::approximate_fidelity(nc, 0, 0, opts).value;
    });

    // Sample count matched to our level-1 precision (paper calibration).
    const std::size_t samples = static_cast<std::size_t>(
        std::max(8.0, core::trajectories_samples_calibrated(nc.noise_count(), nc.max_noise_rate())));

    std::mt19937_64 rng_mm(7), rng_tn(8);
    const auto traj_mm = bench::run_guarded([&] {
      if (nc.num_qubits() > 22) throw MemoryOutError("statevector needs > 100 MB");
      return sim::trajectories_sv(nc, 0, 0, samples, rng_mm).mean;
    });
    const auto traj_tn = bench::run_guarded([&] {
      const bench::Deadline budget(bench::timeout_large());
      tn::ContractOptions copts;
      copts.control = &budget;
      copts.max_tensor_elems = bench::memory_budget();
      return core::trajectories_tn(nc, 0, 0, samples, rng_tn, copts).mean;
    });

    auto precision = [&](const bench::RunOutcome& r) {
      if (!r.ok() || !exact.ok()) return std::string("-");
      return bench::sci(std::abs(r.value - exact.value));
    };

    // Millisecond runs: seconds in the precision columns' notation, so they
    // do not round to 0.00; MO/TO keep their labels.
    auto seconds = [](const bench::RunOutcome& r) {
      return r.ok() ? bench::sci(r.seconds) : bench::format_time(r);
    };
    table.add_row({row.name, precision(ours), precision(traj_mm), precision(traj_tn),
                   seconds(ours), seconds(traj_mm), seconds(traj_tn),
                   std::to_string(samples)});
  }

  table.print(std::cout);
  std::cout << "\nPrecision = |estimate - exact TN fidelity|; times in seconds.\n"
            << "Trajectories sample count matched to the level-1 Theorem-1 bound\n"
            << "(r = 1/eps, the paper's Fig. 5 calibration; see EXPERIMENTS.md).\n";
  return 0;
}
