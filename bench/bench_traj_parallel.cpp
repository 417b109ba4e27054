// Parallel trajectory engine: wall-clock scaling of trajectories_sv on the
// Fig. 5 workload (hardware-grid QAOA with sparse depolarizing noise, the
// regime where the paper compares its approximation against trajectory
// sampling), plus the state-vector engine's per-operation costs: seconds
// per trajectory sample and the noise-free ns per amplitude per gate.
//
// Two noise levels run on the same circuit. At the Fig. 5 level
// (depolarizing 1e-3) almost every sample is the noise-free trajectory,
// which each worker evolves once and then reuses; the high-noise row
// (depolarizing 0.3) draws an error in almost every sample, so it times and
// gates the path that evolves each sample with its drawn branches.
//
// Runs each (seed-fixed) estimate serially and at several thread counts,
// checks the results are bit-identical (the engine's reproducibility
// contract), and writes machine-readable results to
// BENCH_traj_parallel.json (or the first non-flag argument). Estimates are
// written with %.17g, so they round-trip exactly.
//
//   bench_traj_parallel [out.json] [--baseline <json>]
//
// --baseline fails (exit 1) unless, for both noise levels, the serial and
// the threaded estimates' mean and std_error carry exactly the bits
// recorded in <json> (the high-noise fields carry a "high_noise_" prefix):
// any kernel, sampling or runner change that moves an estimate fails the
// gate. Without it the exit code reflects only the cross-thread
// bit-identity check. Timings are recorded, never gated.

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

/// Bitwise comparison of one recorded estimate field; prints the verdict.
bool same_bits(const std::string& baseline, const std::string& key, double got) {
  double want = 0.0;
  if (!bench::scan_field(baseline, key, &want)) {
    std::cout << "baseline: field \"" << key << "\" missing\n";
    return false;
  }
  const bool same = want == got && std::signbit(want) == std::signbit(got);
  std::cout << "baseline " << key << ": " << bench::g17(want) << " vs " << bench::g17(got)
            << (same ? " (same bits)" : " (DIFFERENT)") << "\n";
  return same;
}

struct Run {
  std::size_t threads;
  double seconds;
  sim::TrajectoryResult result;
};

/// One noise level: the serial estimate off std::mt19937_64(seed) and the
/// seeded estimate at each thread count.
struct Workload {
  std::string prefix;  // JSON field prefix
  std::string description;
  std::size_t samples = 0;
  double serial_seconds = 0.0;
  sim::TrajectoryResult serial;
  std::vector<Run> runs;
  bool deterministic = true;

  const sim::TrajectoryResult& estimate() const { return runs.front().result; }
};

Workload run_workload(const std::string& prefix, const std::string& description,
                      const ch::NoisyCircuit& nc, std::size_t samples, std::uint64_t seed,
                      const std::vector<std::size_t>& thread_counts) {
  Workload w;
  w.prefix = prefix;
  w.description = description;
  w.samples = samples;
  std::mt19937_64 rng(seed);
  w.serial_seconds = time_seconds([&] { w.serial = sim::trajectories_sv(nc, 0, 0, samples, rng); });
  const double n_samples = static_cast<double>(samples);

  bench::Table table(
      {"threads", "seconds", "s/sample", "speedup vs serial", "mean", "std_error"});
  table.add_row({"serial", bench::fixed(w.serial_seconds, 3),
                 bench::sci(w.serial_seconds / n_samples), "1.00", bench::sci(w.serial.mean),
                 bench::sci(w.serial.std_error)});
  for (const std::size_t t : thread_counts) {
    sim::ParallelOptions opts;
    opts.threads = t;
    Run row;
    row.threads = t;
    row.seconds =
        time_seconds([&] { row.result = sim::trajectories_sv(nc, 0, 0, samples, seed, opts); });
    if (!w.runs.empty() && (row.result.mean != w.runs.front().result.mean ||
                            row.result.std_error != w.runs.front().result.std_error))
      w.deterministic = false;
    table.add_row({std::to_string(t), bench::fixed(row.seconds, 3),
                   bench::sci(row.seconds / n_samples),
                   bench::fixed(w.serial_seconds / row.seconds, 2), bench::sci(row.result.mean),
                   bench::sci(row.result.std_error)});
    w.runs.push_back(row);
  }
  std::cout << description << "\n";
  table.print(std::cout);
  return w;
}

/// The four gated estimate fields of one workload, all compared (no
/// short-circuit) so each verdict prints.
bool same_estimates(const std::string& baseline, const Workload& w) {
  const bool m = same_bits(baseline, w.prefix + "mean", w.estimate().mean);
  const bool e = same_bits(baseline, w.prefix + "std_error", w.estimate().std_error);
  const bool sm = same_bits(baseline, w.prefix + "serial_mean", w.serial.mean);
  const bool se = same_bits(baseline, w.prefix + "serial_std_error", w.serial.std_error);
  return m && e && sm && se;
}

/// The workload's JSON fields, each line led by two spaces; the caller
/// writes the separator after the closing bracket of its runs.
void write_fields(std::ostream& out, const Workload& w) {
  const double n_samples = static_cast<double>(w.samples);
  const std::string& p = w.prefix;
  out << "  \"" << p << "mean\": " << bench::g17(w.estimate().mean) << ",\n"
      << "  \"" << p << "std_error\": " << bench::g17(w.estimate().std_error) << ",\n"
      << "  \"" << p << "serial_mean\": " << bench::g17(w.serial.mean) << ",\n"
      << "  \"" << p << "serial_std_error\": " << bench::g17(w.serial.std_error) << ",\n"
      << "  \"" << p << "serial_seconds\": " << w.serial_seconds << ",\n"
      << "  \"" << p << "serial_seconds_per_sample\": " << w.serial_seconds / n_samples << ",\n"
      << "  \"" << p << "runs\": [\n";
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    const Run& r = w.runs[i];
    out << "    {\"threads\": " << r.threads << ", \"seconds\": " << r.seconds
        << ", \"seconds_per_sample\": " << r.seconds / n_samples
        << ", \"speedup_vs_serial\": " << w.serial_seconds / r.seconds
        << ", \"mean\": " << bench::g17(r.result.mean)
        << ", \"std_error\": " << bench::g17(r.result.std_error) << "}"
        << (i + 1 < w.runs.size() ? "," : "") << "\n";
  }
  out << "  ]";
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
  const double p = 0.001, p_high = 0.3;
  const std::size_t samples = bench::large_mode() ? 2000 : 400;
  const std::size_t samples_high = bench::large_mode() ? 1024 : 256;
  const std::uint64_t seed = 2024;

  const qc::Circuit c = bench::qaoa_grid(grid, grid, 1, 7);
  const ch::NoisyCircuit nc = bench::insert_noises(c, noises, bench::depolarizing_noise(p), 11);
  const ch::NoisyCircuit nc_high =
      bench::insert_noises(c, noises, bench::depolarizing_noise(p_high), 11);

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

  const std::size_t hw = sim::resolve_threads(0);
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  const auto describe = [&](double noise) {
    std::ostringstream os;
    os << "qaoa_grid(" << grid << "x" << grid << ", 1 round) + " << noises
       << " depolarizing(p=" << noise << ") noises";
    return os.str();
  };
  const Workload low =
      run_workload("", describe(p) + " (Fig. 5 regime)", nc, samples, seed, thread_counts);
  const Workload high = run_workload("high_noise_", describe(p_high) + " (most samples evolve)",
                                     nc_high, samples_high, seed, thread_counts);
  const bool deterministic = low.deterministic && high.deterministic;
  std::cout << "noise-free evolution: " << bench::fixed(ns_per_amp_gate, 3)
            << " ns per amplitude per gate (" << c.gates().size() << " gates, "
            << c.num_qubits() << " qubits)\n"
            << "hardware threads: " << hw << "\n"
            << "deterministic across thread counts: " << (deterministic ? "yes" : "NO") << "\n";

  bool baseline_ok = true;
  if (!baseline_path.empty()) {
    const std::string baseline = bench::read_text(baseline_path);
    if (baseline.empty()) {
      std::cout << "baseline: cannot read " << baseline_path << "\n";
      baseline_ok = false;
    } else {
      const bool l = same_estimates(baseline, low);
      const bool h = same_estimates(baseline, high);
      baseline_ok = l && h;
    }
  }

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"traj_parallel\",\n"
      << "  \"workload\": \"" << low.description << "\",\n"
      << "  \"high_noise_workload\": \"" << high.description << "\",\n"
      << "  \"qubits\": " << nc.num_qubits() << ",\n"
      << "  \"gates\": " << c.gates().size() << ",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"high_noise_samples\": " << samples_high << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"machine\": " << bench::machine_json() << ",\n"
      << "  \"deterministic_across_threads\": " << (deterministic ? "true" : "false") << ",\n"
      << "  \"noise_free_ns_per_amp_gate\": " << ns_per_amp_gate << ",\n";
  write_fields(out, low);
  out << ",\n";
  write_fields(out, high);
  out << "\n}\n";
  std::cout << "wrote " << out_path << "\n";
  if (!baseline_ok) std::cout << "FAIL: estimate bits differ from the baseline\n";
  return deterministic && baseline_ok ? 0 : 1;
}
