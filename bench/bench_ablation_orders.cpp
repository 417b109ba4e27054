// Ablation: the Auto order search ("portfolio") vs the plain greedy ladder.
//
// DESIGN.md calls the contraction order out as a load-bearing design
// choice: the TN-based methods' feasibility in Table II depends on it.
// Auto planning is one fixed search (greedy ladder, alternating, seeded
// randomized greedy) under one shared planning deadline, keeping the
// minimum-total-flops order and materializing only that one. This bench
// compiles forced-Greedy and Auto plans for representative amplitude
// networks and gates the kept-cheapest contract:
//
//   1. Auto total_flops <= greedy total_flops on EVERY workload (the
//      greedy ladder is an Auto candidate, so Auto can never keep a
//      costlier schedule), and
//   2. Auto beats greedy outright on at least one workload: strictly
//      fewer flops (the randomized-greedy restarts win on the deeper
//      hf_vqe / qaoa grids), or compiling at all where the pure greedy
//      ladder memory-outs (the 4x5 supremacy grid).
//
// Each row also records portfolio_over_greedy_plan_seconds, the price of
// the wider search in planning time. It is informational, never gated:
// on a shared host plan seconds move by up to 1.7x between phases.
//
// Plans are pure functions of topology + options, so the recorded flop
// counts are machine-independent; --baseline <json> additionally gates
// them for EXACT equality against the committed BENCH_orders.json (a
// mismatch means plan selection drifted -- a determinism bug or an
// unbaselined planner change). Plan wall times are reported and compared
// informationally (same-CPU only), never gated: these are millisecond
// compiles where timer noise dominates.
//
// Both plans replay to the same amplitude up to float reordering; the
// bench checks agreement to 1e-6 relative as a schedule-sanity guard
// (MO under the laptop-scale execution budget skips the check for that
// workload, flop gates still apply).

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench_common.hpp"
#include "core/circuit_network.hpp"
#include "tn/plan.hpp"

namespace {

using namespace noisim;

struct Workload {
  std::string name;
  qc::Circuit circuit;
};

struct OrderRun {
  std::string name;
  std::size_t nodes = 0;
  bool greedy_ok = false;      // forced-Greedy compiled under the budget
  bool portfolio_ok = false;   // Auto-portfolio compiled under the budget
  std::size_t greedy_flops = 0, portfolio_flops = 0;
  std::size_t greedy_peak = 0, portfolio_peak = 0;
  double greedy_plan_seconds = 0.0, portfolio_plan_seconds = 0.0;
  /// Auto over forced-Greedy plan seconds (informational; 0 unless both ran).
  double plan_seconds_ratio() const {
    return greedy_ok && portfolio_ok && greedy_plan_seconds > 0.0
               ? portfolio_plan_seconds / greedy_plan_seconds
               : 0.0;
  }
  tn::OrderStrategy chosen = tn::OrderStrategy::Greedy;
  tn::ContractStats portfolio_stats;
  bool value_checked = false;  // execution fit the budget on both plans
  bool value_agrees = true;
};

/// The number following `"<key>": ` inside the object for
/// `"name": "<name>"` in `path`. Returns false when absent.
bool baseline_field(const std::string& path, const std::string& name, const std::string& key,
                    double* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::size_t at = text.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return false;
  const std::string key_tag = "\"" + key + "\": ";
  at = text.find(key_tag, at);
  if (at == std::string::npos) return false;
  *out = std::strtod(text.c_str() + at + key_tag.size(), nullptr);
  return true;
}

std::string baseline_cpu_model(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::string tag = "\"cpu_model\": \"";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t end = text.find('"', at + tag.size());
  return end == std::string::npos ? "" : text.substr(at + tag.size(), end - at - tag.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_orders.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline") {
      if (i + 1 >= argc) {
        std::cerr << "error: --baseline requires a path\n";
        return 2;
      }
      baseline_path = argv[++i];
    } else {
      out_path = arg;
    }
  }

  bench::print_header("Contraction-order ablation: greedy ladder vs Auto portfolio",
                      "DESIGN.md contraction-order feasibility, Table II workloads");

  std::vector<Workload> workloads;
  workloads.push_back({"qaoa_36", bench::qaoa(36, 1, 7)});
  workloads.push_back({"qaoa_64", bench::qaoa(64, 1, 11)});
  workloads.push_back({"hf_vqe_8", bench::hf_vqe(8, 3)});
  workloads.push_back({"hf_vqe_12", bench::hf_vqe(12, 3)});
  workloads.push_back({"inst_4x4_12", bench::supremacy_inst(4, 4, 12, 5)});
  workloads.push_back({"inst_4x5_16", bench::supremacy_inst(4, 5, 16, 5)});
  // The square QAOA grids of the paper's 225-qubit rows, at laptop scale:
  // the drift gate pins the order Auto picks on grid-shaped networks.
  workloads.push_back({"qaoa_grid_8x8", bench::qaoa_grid(8, 8, 1, 13)});
  workloads.push_back({"qaoa_grid_11x11", bench::qaoa_grid(11, 11, 1, 13)});
  if (bench::large_mode()) {
    workloads.push_back({"qaoa_121", bench::qaoa(121, 1, 11)});
    workloads.push_back({"inst_5x5_20", bench::supremacy_inst(5, 5, 20, 5)});
  }

  tn::ContractOptions greedy_opts;
  greedy_opts.strategy = tn::OrderStrategy::Greedy;
  greedy_opts.max_tensor_elems = bench::memory_budget();
  tn::ContractOptions portfolio_opts;  // Auto
  portfolio_opts.max_tensor_elems = bench::memory_budget();

  using Clock = std::chrono::steady_clock;
  std::vector<OrderRun> runs;
  bool cheapest_ok = true;    // portfolio <= greedy everywhere
  bool strict_win = false;    // portfolio < greedy somewhere
  for (const Workload& w : workloads) {
    OrderRun run;
    run.name = w.name;
    const tn::Network net =
        core::amplitude_network(w.circuit.num_qubits(), w.circuit.gates(), 0, 0);
    run.nodes = net.num_nodes();
    std::optional<tn::ContractionPlan> greedy_plan, portfolio_plan;
    // Guard the two compiles SEPARATELY: greedy memory-outing while the
    // portfolio survives is a result (the feasibility win on the 4x5
    // grid), not an aborted row. Interleaved best-of-3 compile timings:
    // plans are deterministic, so repeats differ only in wall time and
    // the kept plans are from the final round without loss of generality.
    for (int round = 0; round < 3; ++round) {
      const auto g0 = Clock::now();
      const bench::RunOutcome g = bench::run_guarded([&] {
        greedy_plan = tn::ContractionPlan::compile(net, greedy_opts);
        return 0.0;
      });
      const auto g1 = Clock::now();
      run.portfolio_stats = tn::ContractStats{};
      const bench::RunOutcome p = bench::run_guarded([&] {
        portfolio_plan = tn::ContractionPlan::compile(net, portfolio_opts, &run.portfolio_stats);
        return 0.0;
      });
      const auto p1 = Clock::now();
      run.greedy_ok = g.ok();
      run.portfolio_ok = p.ok();
      const double gs = std::chrono::duration<double>(g1 - g0).count();
      const double ps = std::chrono::duration<double>(p1 - g1).count();
      if (round == 0 || gs < run.greedy_plan_seconds) run.greedy_plan_seconds = gs;
      if (round == 0 || ps < run.portfolio_plan_seconds) run.portfolio_plan_seconds = ps;
      if (!run.greedy_ok && !run.portfolio_ok) break;
    }
    if (run.greedy_ok) {
      run.greedy_flops = greedy_plan->total_flops();
      run.greedy_peak = greedy_plan->peak_elems();
    }
    if (run.portfolio_ok) {
      run.portfolio_flops = portfolio_plan->total_flops();
      run.portfolio_peak = portfolio_plan->peak_elems();
      run.chosen = portfolio_plan->chosen_strategy();
    }
    // Kept-cheapest: the greedy ladder is an Auto candidate, so whenever
    // greedy compiles Auto must compile too and never cost more; a greedy
    // MO that Auto survives is the outright feasibility win.
    if (run.greedy_ok && (!run.portfolio_ok || run.portfolio_flops > run.greedy_flops))
      cheapest_ok = false;
    if (run.portfolio_ok &&
        (!run.greedy_ok || run.portfolio_flops < run.greedy_flops))
      strict_win = true;
    if (run.greedy_ok && run.portfolio_ok) {
      // Schedule-sanity: both plans contract to the same amplitude (up to
      // float reordering). Guarded: an execution MO under the laptop-scale
      // budget skips the check, the flop gates above still apply.
      const bench::RunOutcome exec = bench::run_guarded([&] {
        tn::PlanWorkspace ws;
        const tsr::Tensor g = greedy_plan->execute(net, ws);
        const tsr::Tensor p = portfolio_plan->execute(net, ws);
        const double denom = std::max(std::abs(g[0]), 1e-300);
        return std::abs(g[0] - p[0]) / denom;
      });
      run.value_checked = exec.ok();
      run.value_agrees = !exec.ok() || exec.value < 1e-6;
    }
    runs.push_back(std::move(run));
  }

  bench::Table table({"workload", "nodes", "greedy flops", "portfolio flops", "ratio", "chosen",
                      "greedy plan(s)", "portfolio plan(s)", "value"});
  for (const OrderRun& r : runs) {
    const bool both = r.greedy_ok && r.portfolio_ok;
    const double ratio = both && r.greedy_flops > 0
                             ? static_cast<double>(r.portfolio_flops) /
                                   static_cast<double>(r.greedy_flops)
                             : 0.0;
    table.add_row({r.name, std::to_string(r.nodes),
                   r.greedy_ok ? std::to_string(r.greedy_flops) : "MO",
                   r.portfolio_ok ? std::to_string(r.portfolio_flops) : "MO",
                   both ? bench::fixed(ratio, 3) : "-",
                   r.portfolio_ok ? tn::order_strategy_name(r.chosen) : "-",
                   r.greedy_ok ? bench::sci(r.greedy_plan_seconds) : "-",
                   r.portfolio_ok ? bench::sci(r.portfolio_plan_seconds) : "-",
                   !both              ? "-"
                   : !r.value_checked ? "MO"
                   : r.value_agrees   ? "ok"
                                      : "DISAGREE"});
  }
  table.print(std::cout);
  std::cout << "\nportfolio_over_greedy_plan_seconds (informational, not gated):";
  for (const OrderRun& r : runs)
    std::cout << " " << r.name << "="
              << (r.greedy_ok && r.portfolio_ok ? bench::fixed(r.plan_seconds_ratio(), 2) : "-");
  std::cout << "\n";
  std::cout << "\nExpected shape: the portfolio never keeps a schedule costlier than the\n"
            << "greedy ladder's (kept-cheapest under strict comparisons) and beats it\n"
            << "outright where greedy is weak: the randomized restarts find cheaper\n"
            << "orders on the deeper hf_vqe / qaoa grids, and on the 4x5 supremacy\n"
            << "grid the portfolio still compiles where pure greedy memory-outs.\n";

  // Baseline gate (CI): plan selection is a pure function of topology +
  // options, so the flop counts must match the committed baseline EXACTLY
  // on any machine. Plan times are informational (same-CPU note only).
  bool baseline_ok = true;
  bool values_ok = true;
  if (!baseline_path.empty()) {
    const std::string base_cpu = baseline_cpu_model(baseline_path);
    const bool same_machine = base_cpu == bench::cpu_model();
    if (!same_machine)
      std::cout << "baseline recorded on \"" << base_cpu
                << "\" (different CPU) -- plan-time comparison informational only\n";
    for (const OrderRun& r : runs) {
      double base_flops = 0.0;
      if (!r.portfolio_ok || !baseline_field(baseline_path, r.name, "portfolio_flops", &base_flops))
        continue;
      const bool drifted =
          static_cast<double>(r.portfolio_flops) != base_flops;
      std::cout << "baseline " << r.name << ": portfolio flops " << r.portfolio_flops
                << " vs committed " << static_cast<std::size_t>(base_flops)
                << (drifted ? "  DRIFT (plan selection changed)" : "  ok") << "\n";
      baseline_ok = baseline_ok && !drifted;
      double base_seconds = 0.0;
      if (same_machine &&
          baseline_field(baseline_path, r.name, "portfolio_plan_seconds", &base_seconds) &&
          base_seconds > 0.0)
        std::cout << "         " << r.name << ": portfolio plan time "
                  << bench::sci(r.portfolio_plan_seconds) << "s vs committed "
                  << bench::sci(base_seconds) << "s (informational)\n";
    }
  }
  for (const OrderRun& r : runs) values_ok = values_ok && r.value_agrees;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"ablation_orders\",\n"
      << "  \"machine\": " << bench::machine_json() << ",\n"
      << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const OrderRun& r = runs[i];
    out << "    {\"name\": \"" << r.name << "\", \"nodes\": " << r.nodes
        << ", \"greedy_ok\": " << (r.greedy_ok ? "true" : "false")
        << ", \"portfolio_ok\": " << (r.portfolio_ok ? "true" : "false")
        << ", \"greedy_flops\": " << r.greedy_flops
        << ", \"portfolio_flops\": " << r.portfolio_flops
        << ",\n     \"greedy_peak_elems\": " << r.greedy_peak
        << ", \"portfolio_peak_elems\": " << r.portfolio_peak
        << ", \"chosen_strategy\": \"" << tn::order_strategy_name(r.chosen) << "\""
        << ",\n     \"greedy_plan_seconds\": " << bench::sci(r.greedy_plan_seconds)
        << ", \"portfolio_plan_seconds\": " << bench::sci(r.portfolio_plan_seconds)
        << ", \"portfolio_over_greedy_plan_seconds\": " << bench::fixed(r.plan_seconds_ratio(), 3)
        << ", \"value_agrees\": " << (r.value_agrees ? "true" : "false")
        << ",\n     \"portfolio_stats\": " << bench::stats_json(r.portfolio_stats) << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!cheapest_ok)
    std::cout << "FAIL: portfolio kept a schedule costlier than greedy (kept-cheapest broken)\n";
  if (!strict_win)
    std::cout << "FAIL: portfolio never beat greedy outright (fewer flops or surviving a\n"
                 "      greedy MO was expected on at least one workload)\n";
  if (!values_ok) std::cout << "FAIL: greedy and portfolio plans disagree on an amplitude\n";
  if (!baseline_ok)
    std::cout << "FAIL: portfolio flop counts drifted from the committed baseline\n";
  return cheapest_ok && strict_win && values_ok && baseline_ok ? 0 : 1;
}
