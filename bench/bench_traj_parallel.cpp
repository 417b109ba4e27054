// Parallel trajectory engine: wall-clock scaling of trajectories_sv on the
// Fig. 5 workload (hardware-grid QAOA with sparse depolarizing noise, the
// regime where the paper compares its approximation against trajectory
// sampling), plus the state-vector engine's per-operation costs: seconds
// per trajectory sample and the noise-free ns per amplitude per gate.
//
// Runs the same (seed-fixed) estimate serially and at several thread
// counts, checks the results are bit-identical (the engine's
// reproducibility contract), and writes machine-readable results to
// BENCH_traj_parallel.json (or the first non-flag argument). Estimates are
// written with %.17g, so they round-trip exactly.
//
//   bench_traj_parallel [out.json] [--baseline <json>]
//
// --baseline fails (exit 1) unless the serial and the threaded estimates'
// mean and std_error carry exactly the bits recorded in <json>: any kernel,
// sampling or runner change that moves an estimate fails the gate. Without
// it the exit code reflects only the cross-thread bit-identity check.
// Timings are recorded, never gated.

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "sim/trajectories.hpp"

namespace {

using namespace noisim;
using Clock = std::chrono::steady_clock;

double time_seconds(const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The number following the first `"<key>": ` in `text` (false when absent).
bool scan_field(const std::string& text, const std::string& key, double* out) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) return false;
  *out = std::strtod(text.c_str() + at + tag.size(), nullptr);
  return true;
}

/// Bitwise comparison of one recorded estimate field; prints the verdict.
bool same_bits(const std::string& baseline, const std::string& key, double got) {
  double want = 0.0;
  if (!scan_field(baseline, key, &want)) {
    std::cout << "baseline: field \"" << key << "\" missing\n";
    return false;
  }
  const bool same = want == got && std::signbit(want) == std::signbit(got);
  std::cout << "baseline " << key << ": " << bench::g17(want) << " vs " << bench::g17(got)
            << (same ? " (same bits)" : " (DIFFERENT)") << "\n";
  return same;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_traj_parallel.json";
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

  bench::print_header("Parallel trajectories: thread scaling on the Fig. 5 workload",
                      "paper Fig. 5 baseline");

  const int grid = bench::large_mode() ? 5 : 4;
  const std::size_t noises = 12;
  const double p = 0.001;
  const std::size_t samples = bench::large_mode() ? 2000 : 400;
  const std::uint64_t seed = 2024;

  const qc::Circuit c = bench::qaoa_grid(grid, grid, 1, 7);
  const ch::NoisyCircuit nc = bench::insert_noises(c, noises, bench::depolarizing_noise(p), 11);

  // Noise-free evolution, gate by gate: the engine's per-operation cost.
  // Best of a few repetitions, so a descheduled run does not count.
  double evolve_seconds = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    sim::Statevector sv(c.num_qubits());
    const double t = time_seconds([&] { sv.apply_circuit(c); });
    evolve_seconds = rep == 0 ? t : std::min(evolve_seconds, t);
  }
  const double ns_per_amp_gate =
      evolve_seconds * 1e9 /
      (std::ldexp(1.0, c.num_qubits()) * static_cast<double>(c.gates().size()));

  // Serial baseline: the original single-stream estimator.
  std::mt19937_64 rng(seed);
  sim::TrajectoryResult serial_result;
  const double serial_seconds =
      time_seconds([&] { serial_result = sim::trajectories_sv(nc, 0, 0, samples, rng); });
  const double n_samples = static_cast<double>(samples);

  const std::size_t hw = sim::resolve_threads(0);
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  bench::Table table(
      {"threads", "seconds", "s/sample", "speedup vs serial", "mean", "std_error"});
  table.add_row({"serial", bench::fixed(serial_seconds, 3), bench::sci(serial_seconds / n_samples),
                 "1.00", bench::sci(serial_result.mean), bench::sci(serial_result.std_error)});

  struct Row {
    std::size_t threads;
    double seconds;
    sim::TrajectoryResult result;
  };
  std::vector<Row> rows;
  bool deterministic = true;
  for (const std::size_t t : thread_counts) {
    sim::ParallelOptions opts;
    opts.threads = t;
    Row row;
    row.threads = t;
    row.seconds =
        time_seconds([&] { row.result = sim::trajectories_sv(nc, 0, 0, samples, seed, opts); });
    if (!rows.empty() &&
        (row.result.mean != rows.front().result.mean ||
         row.result.std_error != rows.front().result.std_error))
      deterministic = false;
    table.add_row({std::to_string(t), bench::fixed(row.seconds, 3),
                   bench::sci(row.seconds / n_samples),
                   bench::fixed(serial_seconds / row.seconds, 2), bench::sci(row.result.mean),
                   bench::sci(row.result.std_error)});
    rows.push_back(row);
  }
  table.print(std::cout);
  const sim::TrajectoryResult& estimate = rows.front().result;
  std::cout << "noise-free evolution: " << bench::fixed(ns_per_amp_gate, 3)
            << " ns per amplitude per gate (" << c.gates().size() << " gates, "
            << c.num_qubits() << " qubits)\n"
            << "hardware threads: " << hw << "\n"
            << "deterministic across thread counts: " << (deterministic ? "yes" : "NO") << "\n";

  bool baseline_ok = true;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cout << "baseline: cannot read " << baseline_path << "\n";
      baseline_ok = false;
    } else {
      std::stringstream buf;
      buf << in.rdbuf();
      const std::string baseline = buf.str();
      // Evaluate every field (no short-circuit) so each verdict prints.
      const bool m = same_bits(baseline, "mean", estimate.mean);
      const bool e = same_bits(baseline, "std_error", estimate.std_error);
      const bool sm = same_bits(baseline, "serial_mean", serial_result.mean);
      const bool se = same_bits(baseline, "serial_std_error", serial_result.std_error);
      baseline_ok = m && e && sm && se;
    }
  }

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"traj_parallel\",\n"
      << "  \"workload\": \"qaoa_grid(" << grid << "x" << grid << ", 1 round) + " << noises
      << " depolarizing(p=" << p << ") noises (Fig. 5 regime)\",\n"
      << "  \"qubits\": " << nc.num_qubits() << ",\n"
      << "  \"gates\": " << c.gates().size() << ",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"machine\": " << bench::machine_json() << ",\n"
      << "  \"deterministic_across_threads\": " << (deterministic ? "true" : "false") << ",\n"
      << "  \"mean\": " << bench::g17(estimate.mean) << ",\n"
      << "  \"std_error\": " << bench::g17(estimate.std_error) << ",\n"
      << "  \"serial_mean\": " << bench::g17(serial_result.mean) << ",\n"
      << "  \"serial_std_error\": " << bench::g17(serial_result.std_error) << ",\n"
      << "  \"noise_free_ns_per_amp_gate\": " << ns_per_amp_gate << ",\n"
      << "  \"serial_seconds\": " << serial_seconds << ",\n"
      << "  \"serial_seconds_per_sample\": " << serial_seconds / n_samples << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"threads\": " << r.threads << ", \"seconds\": " << r.seconds
        << ", \"seconds_per_sample\": " << r.seconds / n_samples
        << ", \"speedup_vs_serial\": " << serial_seconds / r.seconds
        << ", \"mean\": " << bench::g17(r.result.mean) << ", \"std_error\": " << bench::g17(r.result.std_error)
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  if (!baseline_ok) std::cout << "FAIL: estimate bits differ from the baseline\n";
  return deterministic && baseline_ok ? 0 : 1;
}
