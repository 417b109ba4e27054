// Backend-selection smoke bench: drive core::simulate() across a mixed
// workload pool (tiny exact-regime circuits, wide low-noise circuits, noisy
// trajectory-friendly circuits, supremacy-style grids, an ATPG-projected
// fault circuit) and record which backend the cost model picks for each,
// how long estimation + execution took, and -- the gate -- that no run ever
// violates its error budget against the exact density-matrix reference
// (checked wherever the reference is computable, n <= 13) or claims a bound
// above the budget. Each run probes <v| rho |v> from |0...0> at the most
// likely output v of the noise-free circuit, where the fidelity is far from
// zero (at v = 0 most references are ~1e-12, so a backend returning 0 would
// pass); the ATPG row keeps v = 0, which its output projector makes ideal.
// Exits non-zero on any violation. Per-backend pick counts land in
// BENCH_select.json (or the first argument) so drift in the cost model's
// arbitration shows up in the perf trajectory.

#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "channels/catalog.hpp"
#include "core/atpg.hpp"
#include "core/backend.hpp"
#include "core/plan_cache.hpp"
#include "sim/density.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace noisim;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Argmax over v of |<v| C |0...0>|^2 for the noise-free circuit C (lowest
// index on ties). Every pool circuit is small enough for a state vector.
std::uint64_t most_likely_output(const ch::NoisyCircuit& nc) {
  sim::Statevector sv(nc.num_qubits());
  sv.apply_circuit(nc.gates_only());
  std::uint64_t best = 0;
  double best_p = -1.0;
  for (std::uint64_t v = 0; v < sv.size(); ++v) {
    const double p = std::norm(sv.amplitude(v));
    if (p > best_p) {
      best = v;
      best_p = p;
    }
  }
  return best;
}

struct Workload {
  std::string name;
  ch::NoisyCircuit nc;
  double error_budget = 1e-3;
};

struct Row {
  std::string name;
  std::uint64_t v_bits = 0;
  std::string backend;
  std::size_t level = 0;
  std::size_t samples = 0;
  double value = 0.0;
  double error_bound = 0.0;
  double budget = 0.0;
  double seconds = 0.0;
  bool has_reference = false;
  double reference = 0.0;
  bool violation = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_select.json";
  if (argc > 1) out_path = argv[1];

  std::vector<Workload> pool;
  pool.push_back({"hf_6 tight (exact regime)",
                  bench::insert_noises(bench::hf_vqe(6, 11), 2,
                                       bench::depolarizing_noise(0.05), 13),
                  1e-9});
  pool.push_back({"hf_8 realistic",
                  bench::insert_noises(bench::hf_vqe(8, 3), 4, bench::realistic_noise(1e-2), 29),
                  2e-2});
  pool.push_back({"qaoa_16 low noise",
                  bench::insert_noises(bench::qaoa(16, 1, 77), 3,
                                       bench::depolarizing_noise(0.01), 601),
                  2e-2});
  pool.push_back({"qaoa_16 low noise, tight budget",
                  bench::insert_noises(bench::qaoa(16, 1, 77), 3,
                                       bench::depolarizing_noise(0.01), 601),
                  1e-4});
  pool.push_back({"hf_13 high noise (sampler regime)",
                  bench::insert_noises(bench::hf_vqe(13, 21), 10,
                                       bench::depolarizing_noise(0.1), 23),
                  5e-2});
  pool.push_back({"inst_3x3_8 supremacy",
                  bench::insert_noises(bench::supremacy_inst(3, 3, 8, 5), 4,
                                       bench::depolarizing_noise(0.02), 19),
                  2e-2});
  {
    // ATPG-style: projected fault circuit (amplitude damping is not a
    // unitary mixture, exercising the eligibility filter).
    ch::NoisyCircuit faulty(bench::hf_vqe(8, 5));
    faulty.add_noise(1, ch::amplitude_damping(0.25));
    pool.push_back({"hf_8 projected fault (atpg)",
                    core::with_ideal_output_projector(faulty), 2e-2});
  }

  bench::print_header("backend selection (simulate() front door)",
                      "the budget-driven arbitration across all engines");

  core::PlanCache cache;
  std::vector<Row> rows;
  std::map<std::string, std::size_t> picks;
  std::size_t violations = 0;

  bench::Table table({"workload", "v", "backend", "lvl", "samples", "value", "bound", "time(s)"});
  for (const Workload& w : pool) {
    core::SimulateOptions opts;
    opts.error_budget = w.error_budget;
    opts.plan_cache = &cache;
    const bool atpg = w.name.find("atpg") != std::string::npos;
    if (atpg) opts.eval.simplify = true;

    Row row;
    row.name = w.name;
    row.v_bits = atpg ? 0 : most_likely_output(w.nc);
    row.budget = w.error_budget;
    const auto t0 = Clock::now();
    const core::SimResult r = core::simulate(w.nc, 0, row.v_bits, opts);
    row.seconds = secs(t0, Clock::now());
    row.backend = core::backend_name(r.backend);
    row.level = r.config.level;
    row.samples = r.config.samples;
    row.value = r.value;
    row.error_bound = r.error_bound;
    ++picks[row.backend];

    // Gate 1: the achieved bound may never exceed the budget.
    if (row.error_bound > w.error_budget) row.violation = true;
    // Gate 2: against the exact reference where it is computable. Sampler
    // picks hold at the Hoeffding confidence; the fixed seeds here make the
    // outcome reproducible, so a trip of this gate is a real regression.
    if (w.nc.num_qubits() <= sim::kDensityMaxQubits) {
      row.has_reference = true;
      row.reference = sim::exact_fidelity_mm(w.nc, 0, row.v_bits);
      if (std::abs(row.value - row.reference) > w.error_budget + 1e-12) row.violation = true;
    }
    if (row.violation) ++violations;

    table.add_row({row.name, std::to_string(row.v_bits), row.backend,
                   std::to_string(row.level), std::to_string(row.samples),
                   bench::sci(row.value), bench::sci(row.error_bound),
                   bench::fixed(row.seconds, 3)});
    rows.push_back(row);
  }
  table.print(std::cout);

  std::cout << "\npicks:";
  for (const auto& [name, count] : picks) std::cout << " " << name << "=" << count;
  std::cout << "\nbudget violations: " << violations << "\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"select\",\n"
      << "  \"workloads\": " << rows.size() << ",\n"
      << "  \"machine\": " << bench::machine_json() << ",\n"
      << "  \"violations\": " << violations << ",\n"
      << "  \"picks\": {";
  {
    bool first = true;
    for (const auto& [name, count] : picks) {
      out << (first ? "" : ", ") << "\"" << name << "\": " << count;
      first = false;
    }
  }
  out << "},\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"workload\": \"" << r.name << "\", \"v_bits\": " << r.v_bits
        << ", \"backend\": \"" << r.backend
        << "\", \"level\": " << r.level << ", \"samples\": " << r.samples
        << ", \"value\": " << bench::g17(r.value)
        << ", \"error_bound\": " << bench::g17(r.error_bound) << ", \"budget\": " << r.budget
        << ", \"seconds\": " << r.seconds
        << ", \"reference\": " << (r.has_reference ? bench::g17(r.reference) : "null")
        << ", \"violation\": " << (r.violation ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  return violations == 0 ? 0 : 1;
}
