// Fig. 4: runtime vs. number of injected noises.
//
// The paper's claim: the exact TN-based method blows up (memory-out past
// ~30 noises on qaoa_100) because every noise tensor couples the top and
// bottom layers of the doubled diagram and drives up the contraction
// treewidth, while the level-1 approximation contracts 1+3N
// *single-layer* networks (the paper counts both layers, 2(1+3N); the
// bottom layer is the top one's conjugate) and scales linearly in N.
//
// Writes machine-readable rows (with contraction/plan-reuse stats) to
// BENCH_fig4.json (or argv[1]).

#include <fstream>

#include "bench_common.hpp"
#include "core/approx.hpp"
#include "core/doubled_network.hpp"

namespace {
using namespace noisim;
}

int main(int argc, char** argv) {
  bench::print_header("Fig. 4: runtime vs noise count", "paper Fig. 4");

  const int n = bench::large_mode() ? 100 : 64;
  const qc::Circuit circuit = bench::qaoa(n, 1, 77);
  std::cout << "circuit qaoa_" << n << " (" << circuit.size() << " gates, depth "
            << circuit.depth() << ")\n\n";

  std::vector<std::size_t> counts{0, 10, 20, 30, 40, 60, 80};

  bench::Table table({"noises", "TN-exact(s)", "Ours-lvl1(s)", "contractions", "plan reuse"});
  std::vector<std::vector<std::string>> csv{{"noises", "tn_seconds", "ours_seconds"}};

  struct Row {
    std::size_t noises = 0;
    std::size_t contractions = 0;
    bench::RunOutcome tn_run, ours_run;
  };
  std::vector<Row> rows;

  for (std::size_t count : counts) {
    const ch::NoisyCircuit nc =
        bench::insert_noises(circuit, count, bench::realistic_noise(), 500 + count);

    Row row;
    row.noises = count;
    row.tn_run = bench::run_guarded_stats([&](tn::ContractStats& stats) {
      const bench::Deadline budget(bench::timeout_large());
      tn::ContractOptions opts;
      opts.control = &budget;
      opts.max_tensor_elems = bench::memory_budget();
      return core::exact_fidelity_tn(nc, 0, 0, opts, &stats);
    });

    row.ours_run = bench::run_guarded_stats([&](tn::ContractStats& stats) {
      const bench::Deadline budget(bench::timeout_large());
      core::ApproxOptions opts;
      opts.level = 1;
      opts.control = &budget;
      opts.eval.tn.max_tensor_elems = bench::memory_budget();
      const core::ApproxResult r = core::approximate_fidelity(nc, 0, 0, opts);
      row.contractions = r.contractions;
      stats = r.contract_stats;
      return r.value;
    });

    table.add_row({std::to_string(count), bench::format_time(row.tn_run),
                   bench::format_time(row.ours_run), std::to_string(row.contractions),
                   std::to_string(row.ours_run.contract_stats.plan_reuse_hits)});
    csv.push_back({std::to_string(count), bench::format_time(row.tn_run),
                   bench::format_time(row.ours_run)});
    rows.push_back(std::move(row));
  }

  table.print(std::cout);
  std::cout << "\nCSV for plotting:\n";
  bench::write_csv(std::cout, csv);
  std::cout << "\nExpected shape (paper Fig. 4): TN-exact grows steeply / hits MO as the\n"
            << "noise count rises; ours grows linearly (contractions = 1+3N, half the\n"
            << "paper's two-layer 2(1+3N)).\n";

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fig4.json";
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"fig4\",\n"
      << "  \"workload\": \"qaoa_" << n << " + realistic noises\",\n"
      << "  \"qubits\": " << n << ",\n"
      << "  \"machine\": " << bench::machine_json() << ",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"noises\": " << r.noises << ", \"tn_seconds\": " << r.tn_run.seconds
        << ", \"tn_status\": \"" << bench::format_time(r.tn_run) << "\""
        << ", \"ours_seconds\": " << r.ours_run.seconds
        << ", \"contractions\": " << r.contractions
        << ",\n     \"tn_stats\": " << bench::stats_json(r.tn_run.contract_stats)
        << ",\n     \"ours_stats\": " << bench::stats_json(r.ours_run.contract_stats) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
