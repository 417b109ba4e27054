#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>

#include "bench_support/generators.hpp"
#include "bench_support/harness.hpp"
#include "core/approx.hpp"
#include "core/backend.hpp"
#include "core/circuit_network.hpp"
#include "core/plan_cache.hpp"
#include "core/superop.hpp"
#include "linalg/complex.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectories.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace noisim;
using Clock = std::chrono::steady_clock;

// --- workload parameters ----------------------------------------------------
// fig4_cold and xeb_warm: qaoa_64 (8x8 grid, 1 round) + 8 realistic noises.
constexpr int kQaoaQubits = 64;
constexpr std::size_t kQaoaNoises = 8;
constexpr double kFig4ErrorBudget = 1e-2;  // the TnApprox level-1 bid wins
constexpr std::size_t kFig4Placements = 32;
constexpr std::uint64_t kFig4PoolSeed = 2024;
constexpr std::size_t kXebLevel = 1;
constexpr std::size_t kXebBitstrings = 256;
constexpr std::size_t kXebBatches = 2;  // input slots: bitstring batches
// fig5_traj: qaoa_grid 4x4 (1 round) + 12 depolarizing(p) noises.
constexpr int kGridSide = 4;
constexpr std::size_t kGridNoises = 12;
constexpr double kDepolarizingP = 1e-3;
constexpr std::size_t kSamplesPerThread = 32;  // one RNG chunk per thread
constexpr std::size_t kFig5RefLevel = 2;
constexpr std::size_t kFig5SamplerSeeds = 2;  // input slots: sampler seeds
// xeb_sweep's batch shape (core/approx.cpp): outputs per chunk, and the cap
// on (term, output) pairs per batched traversal.
constexpr std::size_t kSweepOutputChunk = 32;
constexpr std::size_t kSweepMaxPairs = 256;

// Set-up repetitions (setup_s is their median) and correctness samples.
constexpr std::size_t kFig4SetupReps = 25;
constexpr std::size_t kSetupReps = 3;
// Typical call times on a 4-vCPU Xeon @ 2.1 GHz (AVX-512): they only space
// the set-up repetitions over a run.
constexpr double kFig4CallSeconds = 0.035;
constexpr double kXebCallSeconds = 0.6;
constexpr double kFig5CallSeconds = 2.0;
// Capacity reserved for the per-call records before the timed loop. A
// record vector that grows mid-run puts a long-lived block on top of the
// heap at a call that depends on timing, and later calls' temporaries then
// grow the heap past it: in 10 s runs of fig4_cold the peak memory moved
// between 15.4 and 18.2 MB from run to run, and with the records reserved
// (and Setup placed by call index) it stayed within 0.1 MB. 2^16 calls is
// ~40 minutes of fig4_cold.
constexpr std::size_t kMaxCalls = std::size_t{1} << 16;
constexpr std::size_t kFig4Checks = 16;
constexpr std::size_t kXebCheckCalls = 4;
constexpr std::size_t kXebCheckBits = 4;
// Where traced runs write their spans, relative to the checkout root.
constexpr const char* kTraceDir = ".bench_out";
// A call slower than this counts as timed out (failed).
constexpr double kCallTimeoutSeconds = 60.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of input stream `stream`, item `index`, derived from the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream, std::uint64_t index = 0) {
  return mix(mix(seed ^ mix(stream)) ^ index);
}

/// Quantile with linear interpolation between order statistics; 0 if empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::size_t resolve_threads(const Options& opts) {
  return opts.threads > 0 ? opts.threads : sim::resolve_threads(0);
}

/// k indices spread evenly over [0, n).
std::vector<std::size_t> spread(std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  if (n == 0) return out;
  k = std::min(k, n);
  for (std::size_t j = 0; j < k; ++j) out.push_back(k == 1 ? 0 : j * (n - 1) / (k - 1));
  return out;
}

/// Algorithm-1 term count at `level` over `sites` 1-qubit sites:
/// sum_u C(sites, u) 3^u.
std::size_t term_count(std::size_t sites, std::size_t level) {
  std::size_t total = 0, choose = 1, pow3 = 1;
  for (std::size_t u = 0; u <= std::min(level, sites); ++u) {
    total += choose * pow3;
    choose = choose * (sites - u) / (u + 1);
    pow3 *= 3;
  }
  return total;
}

// --- correctness checks -------------------------------------------------------
// Pure functions of (answer, reference), so self_test() can feed them fake
// answers. Every reference is computed outside the timed loop.

/// fig4_cold: relative agreement with the per-term replay path. A 64-qubit
/// output probability is ~1e-19, so both sides must also be nonzero: an
/// absolute bound alone would pass a zero answer.
bool relative_match(double got, double ref, double rtol) {
  return std::isfinite(got) && ref != 0.0 && got != 0.0 &&
         std::abs(got - ref) <= rtol * std::abs(ref);
}
constexpr double kFig4Rtol = 1e-9;

/// xeb_warm: bitwise equality with per-bitstring approximate_fidelity.
bool bitwise_match(cplx got, cplx ref) {
  return ref != cplx{0.0, 0.0} && std::memcmp(&got, &ref, sizeof(cplx)) == 0;
}

/// fig5_traj: the sampled mean within 5 standard errors of the Algorithm-1
/// reference, plus the reference's own error bound, plus twice the noise's
/// shift of the value (|ref - ideal|): when a call draws few or no noise
/// events the mean sits at the noise-free value and its standard error is
/// ~0. A zero or constant answer is farther away than that.
bool trajectory_match(double mean, double std_error, double ref, double ref_bound,
                      double ideal) {
  const double tol = 5.0 * std_error + 2.0 * std::abs(ref - ideal) + ref_bound;
  return std::isfinite(mean) && std::abs(mean - ref) <= tol;
}

// --- input generators ---------------------------------------------------------

/// fig4_cold's circuit: the committed Fig. 4 qaoa_64 (angle seed 77, as
/// bench_contract_plan builds it). Fixed, like the placement pool and its
/// order below: with those seeded, the peak memory moved by up to 25% from
/// seed to seed.
qc::Circuit fig4_circuit() { return bench::qaoa(kQaoaQubits, 1, 77); }

/// fig4_cold call `i`: the circuit with placement i mod kFig4Placements
/// of a fixed pool of seeded noise placements, probed at an output
/// bitstring the seed draws for that call. The pool and its order are part
/// of the workload, not of the seed, because placements set the cost: a
/// run visits every placement several times, so the call-time tail and the
/// peak memory (set by the costliest placement, and by the order the
/// allocator sees them in) repeat from run to run. The output bitstring
/// changes every value, not the cost.
class Fig4Inputs {
 public:
  explicit Fig4Inputs(std::uint64_t seed) : circuit_(fig4_circuit()), seed_(seed) {}
  static std::size_t slot(std::size_t i) { return i % kFig4Placements; }
  ch::NoisyCircuit circuit(std::size_t i) const {
    return bench::insert_noises(circuit_, kQaoaNoises, bench::realistic_noise(),
                                derive(kFig4PoolSeed, 2, slot(i)));
  }
  std::uint64_t output(std::size_t i) const { return derive(seed_, 3, i); }

 private:
  qc::Circuit circuit_;
  std::uint64_t seed_;
};

core::SimulateOptions fig4_options() {
  core::SimulateOptions o;
  o.error_budget = kFig4ErrorBudget;
  o.threads = 1;
  return o;
}

/// xeb_warm's one circuit: the committed Fig. 4 instance (qaoa_64 with
/// angle seed 77, noise seed 508, as bench_contract_plan builds it). It is
/// fixed rather than seeded because the batched plan's cost depends
/// strongly on where the 8 noises sit (0.2-1.4 s per call across seeds);
/// the seed draws the bitstrings.
ch::NoisyCircuit xeb_circuit() {
  return bench::insert_noises(fig4_circuit(), kQaoaNoises, bench::realistic_noise(),
                              500 + kQaoaNoises);
}

/// xeb_warm input slot `i`: a batch of seeded 64-bit output bitstrings.
std::vector<std::uint64_t> xeb_bitstrings(std::uint64_t seed, std::size_t i,
                                          std::size_t k = kXebBitstrings) {
  std::mt19937_64 rng(derive(seed, 3, i));
  std::vector<std::uint64_t> v(k);
  for (auto& b : v) b = rng();
  return v;
}

core::SweepOptions xeb_options(std::size_t threads, core::PlanCache* cache) {
  core::SweepOptions o;
  o.approx.level = kXebLevel;
  o.approx.threads = threads;
  o.approx.plan_cache = cache;
  return o;
}

ch::NoisyCircuit fig5_input(std::uint64_t seed) {
  return bench::insert_noises(bench::qaoa_grid(kGridSide, kGridSide, 1, derive(seed, 1)),
                              kGridNoises, bench::depolarizing_noise(kDepolarizingP),
                              derive(seed, 2));
}

/// Most likely output of the noise-free circuit and its probability: the
/// fig5_traj probe output, so the estimated value is far from zero.
std::pair<std::uint64_t, double> fig5_output(const ch::NoisyCircuit& nc) {
  sim::Statevector sv(nc.num_qubits());
  const qc::Circuit ideal = nc.gates_only();
  for (const qc::Gate& g : ideal.gates()) sv.apply_gate(g);
  std::uint64_t best = 0;
  double best_p = -1.0;
  for (std::uint64_t b = 0; b < sv.size(); ++b) {
    const double p = std::norm(sv.amplitude(b));
    if (p > best_p) best_p = p, best = b;
  }
  return {best, best_p};
}

// --- layer probes ---------------------------------------------------------------
// The span names are the layers' modules plus the public function called.

/// Gate list of the Algorithm-1 single-layer networks: the circuit's gates
/// with a 1-qubit placeholder gate at every noise site (only shapes enter
/// planning, so any 2x2 matrix yields the same plan).
struct Skeleton {
  std::vector<qc::Gate> gates;
  std::vector<std::size_t> site_gate;
};

Skeleton skeleton_of(const ch::NoisyCircuit& nc) {
  Skeleton s;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      s.gates.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    s.site_gate.push_back(s.gates.size());
    s.gates.push_back(qc::u1q(noise.qubit, la::Matrix{{2.0, 0.0}, {0.0, 3.0}}));
  }
  return s;
}

double probe_split(Tracer& tr, const ch::NoisyCircuit& nc) {
  Tracer::Scope s(tr, "core.superop.split_noise");
  const double t0 = tr.now();
  for (const ch::Op& op : nc.ops())
    if (const ch::NoiseOp* noise = std::get_if<ch::NoiseOp>(&op)) core::split_noise(noise->channel);
  return tr.now() - t0;
}

struct CompileProbe {
  double build_s = 0.0, compile_s = 0.0, batched_s = 0.0;
  double schedule_flops = 0.0;
};

/// Build, plan, and batch-compile both single-layer networks of an
/// Algorithm-1 sweep the way the sweep itself does: the noise sites are
/// varying slots promising `level` deviations; with `output_caps` the n
/// output caps are extra unconstrained slots (the xeb_sweep layout).
CompileProbe probe_compile(Tracer& tr, const ch::NoisyCircuit& nc, std::uint64_t v_bits,
                           std::size_t level, std::size_t capacity, bool output_caps) {
  CompileProbe out;
  const int n = nc.num_qubits();
  const Skeleton sk = skeleton_of(nc);
  const core::EvalOptions eval = core::resolved_eval_options(n, sk.gates, core::EvalOptions{});
  std::vector<std::size_t> slots, counts;
  std::vector<char> unconstrained;
  for (const std::size_t g : sk.site_gate) {
    slots.push_back(static_cast<std::size_t>(n) + g);
    counts.push_back(4);
    unconstrained.push_back(0);
  }
  if (output_caps) {
    for (int q = 0; q < n; ++q) {
      slots.push_back(static_cast<std::size_t>(n) + sk.gates.size() + static_cast<std::size_t>(q));
      counts.push_back(2);
      unconstrained.push_back(1);
    }
  }
  for (const bool conjugate : {false, true}) {
    double t0 = tr.now();
    std::optional<tn::Network> net;
    {
      Tracer::Scope s(tr, "core.circuit_network.amplitude_network");
      net.emplace(core::amplitude_network(n, sk.gates, 0, v_bits, conjugate));
    }
    out.build_s += tr.now() - t0;
    t0 = tr.now();
    std::optional<tn::ContractionPlan> plan;
    {
      Tracer::Scope s(tr, "tn.plan.compile");
      plan.emplace(tn::ContractionPlan::compile(*net, eval.tn));
    }
    out.compile_s += tr.now() - t0;
    if (!conjugate) out.schedule_flops = static_cast<double>(plan->total_flops());
    t0 = tr.now();
    {
      Tracer::Scope s(tr, "tn.plan.compile_batched");
      plan->compile_batched(slots, capacity, eval.tn, nullptr, counts, level, unconstrained);
    }
    out.batched_s += tr.now() - t0;
  }
  return out;
}

// --- metric tables ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. A workload reports 0 for a layer
/// that does no work on it.
const std::vector<MetricDef>& layer_defs() {
  static const std::vector<MetricDef> defs{
      {"backend.estimate_s", "s"},
      {"backend.flops_pred_over_exec", "ratio"},
      {"backend.escalations", "count"},
      {"superop.split_s", "s"},
      {"network.build_s", "s"},
      {"plan.compile_s", "s"},
      {"plan.batched_compile_s", "s"},
      {"plan.compiles", "count"},
      {"plan.schedule_flops", "MAC"},
      {"plan_cache.hit_ratio", "ratio"},
      {"exec.s", "s"},
      {"exec.flops", "MAC"},
      {"exec.bytes_moved", "B"},
      {"exec.kernel_calls", "count"},
      {"exec.gmacs", "GMAC/s"},
      {"sweep.plan_s", "s"},
      {"sweep.eval_s", "s"},
      {"sweep.overhead_s", "s"},
      {"sweep.flops_per_output", "MAC"},
      {"sweep.thread_eff", "ratio"},
      {"sv.ns_per_amp_gate", "ns"},
      {"traj.sample_s", "s"},
      {"traj.noise_share", "ratio"},
      {"parallel.thread_eff", "ratio"},
      {"trace.overhead_s", "s"},
  };
  return defs;
}

/// Per-call samples of each per-layer metric; reported as medians.
using Samples = std::map<std::string, std::vector<double>>;

std::vector<Metric> layer_metrics(const Samples& samples) {
  std::vector<Metric> out;
  for (const MetricDef& d : layer_defs()) {
    const auto it = samples.find(d.name);
    out.push_back({d.name, it == samples.end() ? 0.0 : median(it->second), d.unit});
  }
  return out;
}

void add_exec_samples(Samples& s, const tn::ContractStats& st, double outputs) {
  s["exec.s"].push_back(st.elapsed_seconds);
  s["exec.flops"].push_back(static_cast<double>(st.flops));
  s["exec.bytes_moved"].push_back(static_cast<double>(st.bytes_moved));
  s["exec.kernel_calls"].push_back(static_cast<double>(st.num_pairwise));
  s["exec.gmacs"].push_back(
      st.elapsed_seconds > 0.0 ? static_cast<double>(st.flops) / st.elapsed_seconds / 1e9 : 0.0);
  s["sweep.flops_per_output"].push_back(static_cast<double>(st.flops) / outputs);
}

double hit_ratio(std::size_t hits, std::size_t misses) {
  return hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
}

/// Closed-loop bookkeeping: one client, each call waits for the previous.
/// Every workload cycles through a small pool of inputs (input slots), so a
/// run repeats each input several times; a slot's time is its fastest
/// untraced call. Interference from other tenants of a shared host only
/// ever slows a call down, and the fastest of several repetitions of the
/// same call filters it out.
struct Loop {
  std::map<std::size_t, double> best;  // fastest untraced call per input slot
  std::vector<double> call_s;          // every successful untraced call
  std::vector<double> traced_call_s;   // every successful traced call
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double setup_s = 0.0;      // median set-up repetition
  double peak_rss_mb = 0.0;  // peak memory of set-up and calls, before any check

  Loop() {
    call_s.reserve(kMaxCalls);
    traced_call_s.reserve(kMaxCalls);
  }

  /// Time one call on input `slot`; an exception or a call past the
  /// timeout counts as a failure. Returns false on failure.
  bool timed(const std::function<void()>& call, bool traced, std::size_t slot) {
    ++attempted;
    const auto t0 = Clock::now();
    try {
      call();
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "call failed: " << e.what() << "\n";
      return false;
    }
    const double s = seconds_since(t0);
    if (s > kCallTimeoutSeconds) {
      ++failed;
      return false;
    }
    if (traced) {
      traced_call_s.push_back(s);
      return true;
    }
    call_s.push_back(s);
    const auto [it, fresh] = best.emplace(slot, s);
    if (!fresh) it->second = std::min(it->second, s);
    return true;
  }
};

/// Timed repetitions of a workload's set-up; setup_s is their median. The
/// first runs at construction and keeps what it builds for the calls
/// (`fn(true)`); the rest build into temporaries (`fn(false)`).
///
/// Repetition r > 0 runs just before call r * every of the timed loop, so
/// the repetitions spread over the run: a burst of them lands in one phase
/// of a shared host, and across runs its median jumped between the slow and
/// the fast phase by up to 45%. They are placed by call index, not by
/// clock, for the reason kMaxCalls gives: placed by clock, the peak memory
/// of 10 s fig4_cold runs still moved between 15.1 and 18.7 MB. Repetitions
/// the loop did not reach run after it.
class Setup {
 public:
  /// `every`: calls between repetitions, for a run of `seconds` whose calls
  /// take about `call_seconds` each.
  static std::size_t spacing(double seconds, double call_seconds, std::size_t reps) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds / (call_seconds * static_cast<double>(reps))));
  }

  Setup(std::size_t reps, std::size_t every, std::function<void(bool keep)> fn)
      : reps_(reps), every_(every), fn_(std::move(fn)) {
    rep();
  }

  /// Run the repetition due before loop call `i`, if any.
  void before_call(std::size_t i) {
    if (seconds_.size() < reps_ && i >= seconds_.size() * every_) rep();
  }

  /// Median repetition time, after running any repetition still due.
  double median_seconds() {
    while (seconds_.size() < reps_) rep();
    return median(seconds_);
  }

 private:
  void rep() {
    const auto t0 = Clock::now();
    fn_(seconds_.empty());
    seconds_.push_back(seconds_since(t0));
  }

  std::size_t reps_;
  std::size_t every_;
  std::function<void(bool)> fn_;
  std::vector<double> seconds_;
};

/// Run iterations until `seconds` of wall time have passed; at least two,
/// so a traced run always holds one untraced and one traced call. Then
/// finish the set-up repetitions and take the peak memory, so neither the
/// checks nor the traced extras that follow count in it.
void run_for(double seconds, Setup& setup, Loop& loop,
             const std::function<void(std::size_t)>& iteration) {
  const auto start = Clock::now();
  for (std::size_t i = 1; i <= 2 || seconds_since(start) < seconds; ++i) {
    setup.before_call(i);
    iteration(i);
  }
  loop.setup_s = setup.median_seconds();
  loop.peak_rss_mb = peak_rss_mb();
}

/// Percentiles over input slots of each slot's fastest call; throughput is
/// work units per second over one fastest call per slot.
std::vector<Metric> end_to_end(const Loop& loop, double units_per_call) {
  std::vector<double> times;
  for (const auto& [slot, t] : loop.best) times.push_back(t);
  const double busy = std::accumulate(times.begin(), times.end(), 0.0);
  return {
      {"throughput", busy > 0.0 ? units_per_call * static_cast<double>(times.size()) / busy : 0.0,
       "1/s"},
      {"call_s.p50", median(times), "s"},
      {"call_s.p90", quantile(times, 0.9), "s"},
      {"setup_s", loop.setup_s, "s"},
      {"peak_rss_mb", loop.peak_rss_mb, "MB"},
  };
}

void finish(Report& rep, const Loop& loop, Samples& samples, Tracer& tr, const Options& opts,
            double units_per_call) {
  rep.attempted = loop.attempted;
  rep.failed = loop.failed;
  if (!opts.trace) {
    rep.metrics = end_to_end(loop, units_per_call);
    return;
  }
  samples["trace.overhead_s"].push_back(median(loop.traced_call_s) - median(loop.call_s));
  rep.metrics = layer_metrics(samples);
  rep.trace_shape = tr.shape();

  std::filesystem::create_directories(kTraceDir);
  const std::string path = std::string(kTraceDir) + "/trace-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  std::ofstream out(path);
  out << "{\"record\": " << rep.record << ",\n\"self_seconds\": {";
  bool first = true;
  for (const auto& [name, s] : tr.self_by_name()) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << s;
    first = false;
  }
  std::string shape = rep.trace_shape;
  std::replace(shape.begin(), shape.end(), '\n', '|');
  out << "},\n\"shape\": \"" << shape << "\",\n\"spans\": " << tr.json() << "}\n";
  std::cout << "trace written to " << path << "\n";
}

std::string record_json(const Options& opts, std::size_t threads, const std::string& inputs) {
  return "{\"workload\": \"" + opts.workload + "\", \"seed\": " + std::to_string(opts.seed) +
         ", \"run_seconds\": " + std::to_string(opts.seconds) +
         ", \"trace\": " + (opts.trace ? "true" : "false") +
         ", \"threads\": " + std::to_string(threads) + ", \"machine\": " + bench::machine_json() +
         ", \"compiler\": \"" + PERFBENCH_COMPILER + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"inputs\": \"" + inputs + "\"}";
}

// --- fig4_cold -------------------------------------------------------------------

struct Fig4Answer {
  std::size_t call = 0;
  std::uint64_t output = 0;
  double value = 0.0;
  core::BackendKind backend = core::BackendKind::Density;
  std::size_t level = 0;
  double error_bound = 0.0;
};

/// The per-term replay path (batch_terms = 1, no plan cache) at the level
/// simulate() picked: the fig4_cold oracle.
double fig4_reference(const ch::NoisyCircuit& nc, std::uint64_t v, std::size_t level) {
  core::ApproxOptions o = core::tn_approx_options(fig4_options(), level);
  o.batch_terms = 1;
  o.plan_cache = nullptr;
  return core::approximate_fidelity(nc, 0, v, o).value;
}

bool fig4_ok(const Fig4Answer& a, double ref) {
  return a.backend == core::BackendKind::TnApprox && a.error_bound <= kFig4ErrorBudget &&
         relative_match(a.value, ref, kFig4Rtol);
}

/// core::simulate() taken apart into the public calls it makes: every
/// backend's estimate(), then the winner's run -- for TnApprox that is
/// approximate_fidelity under tn_approx_options, exactly as the adapter
/// runs it. Same call-local PlanCache, same selection order, same value.
Fig4Answer traced_simulate(Tracer& tr, const ch::NoisyCircuit& nc, std::uint64_t v,
                           Samples& samples) {
  const core::SimulateOptions opts = fig4_options();
  core::validate_simulate_options(opts);
  core::SimulateOptions ropts = opts;
  core::PlanCache local(8);
  ropts.plan_cache = &local;

  const std::vector<const core::Backend*>& pool = core::default_backends();
  std::vector<core::CostEstimate> bids(pool.size());
  double estimate_s = 0.0;
  {
    Tracer::Scope s(tr, "core.backend.estimate");
    const double t0 = tr.now();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      Tracer::Scope e(tr, std::string("estimate.") + core::backend_name(pool[i]->kind()));
      try {
        bids[i] = pool[i]->estimate(nc, 0, v, ropts);
      } catch (const std::exception& ex) {
        bids[i] = core::CostEstimate{};
        bids[i].reason = ex.what();
      }
    }
    estimate_s = tr.now() - t0;
  }
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (bids[a].feasible != bids[b].feasible) return bids[a].feasible;
    return bids[a].feasible && bids[a].flops < bids[b].flops;
  });

  Fig4Answer ans;
  std::size_t escalations = 0;
  bool ran = false;
  tn::ContractStats stats;
  {
    Tracer::Scope run(tr, "core.backend.run");
    for (const std::size_t i : order) {
      if (!bids[i].feasible || ran) break;
      const core::BackendKind kind = pool[i]->kind();
      try {
        if (kind == core::BackendKind::TnApprox) {
          Tracer::Scope a(tr, "core.approx.approximate_fidelity");
          const double t0 = tr.now();
          const core::ApproxResult r = core::approximate_fidelity(
              nc, 0, v, core::tn_approx_options(ropts, bids[i].level));
          const double sweep_s = tr.now() - t0;
          tr.derived("approx.plan", a.start(), r.plan_seconds);
          tr.derived("approx.eval", a.start() + r.plan_seconds, r.eval_seconds);
          ans.value = r.value;
          ans.error_bound = r.tight_error_bound;
          stats = r.contract_stats;
          samples["sweep.plan_s"].push_back(r.plan_seconds);
          samples["sweep.eval_s"].push_back(r.eval_seconds);
          samples["sweep.overhead_s"].push_back(sweep_s - stats.elapsed_seconds);
        } else {
          Tracer::Scope a(tr, std::string("run.") + core::backend_name(kind));
          core::SimResult sr;
          pool[i]->run(nc, 0, v, ropts, bids[i], sr);
          ans.value = sr.value;
          ans.error_bound = sr.error_bound;
          stats = sr.stats;
        }
        ans.backend = kind;
        ans.level = bids[i].level;
        ran = true;
        if (stats.flops > 0)
          samples["backend.flops_pred_over_exec"].push_back(bids[i].flops /
                                                            static_cast<double>(stats.flops));
      } catch (const MemoryOutError&) {
        ++escalations;
      } catch (const TimeoutError&) {
        ++escalations;
      }
    }
  }
  if (!ran) throw std::runtime_error("fig4_cold: no backend met the budgets");
  samples["backend.estimate_s"].push_back(estimate_s);
  samples["backend.escalations"].push_back(static_cast<double>(escalations));
  // Every compile of the call is a miss of its call-local cache.
  samples["plan.compiles"].push_back(static_cast<double>(local.misses()));
  samples["plan_cache.hit_ratio"].push_back(hit_ratio(local.hits(), local.misses()));
  add_exec_samples(samples, stats, 1.0);
  return ans;
}

Report run_fig4(const Options& opts, Report rep) {
  Tracer tr(opts.trace);
  Samples samples;
  const core::SimulateOptions sopts = fig4_options();

  std::optional<Fig4Inputs> inputs;
  const auto set_up = [&](bool keep) {
    Fig4Inputs fresh(opts.seed);
    const core::SimResult r = core::simulate(fresh.circuit(0), 0, fresh.output(0), sopts);
    if (r.backend != core::BackendKind::TnApprox)
      throw std::runtime_error("fig4_cold: TnApprox did not win the first call");
    if (keep) inputs.emplace(std::move(fresh));
  };
  Setup setup(kFig4SetupReps, Setup::spacing(opts.seconds, kFig4CallSeconds, kFig4SetupReps),
              set_up);

  Loop loop;
  std::vector<Fig4Answer> answers;
  answers.reserve(kMaxCalls);
  run_for(opts.seconds, setup, loop, [&](std::size_t i) {
    const ch::NoisyCircuit nc = inputs->circuit(i);
    const std::uint64_t v = inputs->output(i);
    Fig4Answer ans;
    const bool traced = opts.trace && i % 2 == 0;
    tr.begin_call(i);
    bool ok = false;
    if (traced) {
      ok = loop.timed(
          [&] {
            Tracer::Scope call(tr, "call");
            ans = traced_simulate(tr, nc, v, samples);
          },
          true, Fig4Inputs::slot(i));
      // Layer probes on the same input, outside the call span: the work
      // the cold call did in each layer, timed call by call.
      Tracer::Scope probe(tr, "probe");
      samples["superop.split_s"].push_back(probe_split(tr, nc));
      const std::size_t batch =
          std::min(core::ApproxOptions{}.batch_terms, term_count(kQaoaNoises, ans.level));
      const CompileProbe cp = probe_compile(tr, nc, 0, ans.level, batch, false);
      samples["network.build_s"].push_back(cp.build_s);
      samples["plan.compile_s"].push_back(cp.compile_s);
      samples["plan.batched_compile_s"].push_back(cp.batched_s);
      samples["plan.schedule_flops"].push_back(cp.schedule_flops);
    } else {
      ok = loop.timed(
          [&] {
            const core::SimResult r = core::simulate(nc, 0, v, sopts);
            ans.value = r.value;
            ans.backend = r.backend;
            ans.level = r.config.level;
            ans.error_bound = r.error_bound;
          },
          false, Fig4Inputs::slot(i));
    }
    ans.call = i;
    ans.output = v;
    if (ok) answers.push_back(ans);
  });

  // Correctness, outside the timed loop: a spread sample of the calls
  // against the per-term replay oracle.
  for (const std::size_t j : spread(answers.size(), kFig4Checks)) {
    const Fig4Answer& a = answers[j];
    const double ref = fig4_reference(inputs->circuit(a.call), a.output, a.level);
    if (!fig4_ok(a, ref)) {
      ++loop.failed;
      rep.correct = false;
      std::cerr << "fig4_cold call " << a.call << ": value " << a.value << " vs per-term "
                << ref << "\n";
    }
  }
  finish(rep, loop, samples, tr, opts, 1.0);
  return rep;
}

// --- xeb_warm --------------------------------------------------------------------

struct XebAnswer {
  std::size_t call = 0;
  std::vector<cplx> raw;
};

Report run_xeb(const Options& opts, Report rep) {
  Tracer tr(opts.trace);
  Samples samples;
  const std::size_t threads = resolve_threads(opts);

  ch::NoisyCircuit nc;
  core::PlanCache cache;  // shared by every call, warmed by the first set-up
  const auto set_up = [&](bool keep) {
    ch::NoisyCircuit fresh = xeb_circuit();
    const std::vector<std::uint64_t> bits = xeb_bitstrings(opts.seed, 0);
    core::PlanCache cold;
    core::xeb_sweep(fresh, 0, bits, xeb_options(threads, keep ? &cache : &cold));
    if (keep) nc = std::move(fresh);
  };
  Setup setup(kSetupReps, Setup::spacing(opts.seconds, kXebCallSeconds, kSetupReps), set_up);
  const core::SweepOptions sopts = xeb_options(threads, &cache);

  if (opts.trace) {
    // What set-up paid and the warm calls skip: split, build, plan, and
    // batch-compile in the xeb_sweep layout (noise sites + output caps).
    tr.begin_call(0);
    Tracer::Scope probe(tr, "probe");
    const std::size_t term_batch =
        std::min({core::ApproxOptions{}.batch_terms, term_count(kQaoaNoises, kXebLevel),
                  kSweepMaxPairs / kSweepOutputChunk});
    const CompileProbe cp =
        probe_compile(tr, nc, 0, kXebLevel, term_batch * kSweepOutputChunk, true);
    samples["network.build_s"].push_back(cp.build_s);
    samples["plan.compile_s"].push_back(cp.compile_s);
    samples["plan.batched_compile_s"].push_back(cp.batched_s);
    samples["plan.schedule_flops"].push_back(cp.schedule_flops);
  }

  Loop loop;
  std::vector<XebAnswer> answers;
  answers.reserve(kMaxCalls);
  run_for(opts.seconds, setup, loop, [&](std::size_t i) {
    const std::vector<std::uint64_t> bits = xeb_bitstrings(opts.seed, i % kXebBatches);
    const bool traced = opts.trace && i % 2 == 0;
    tr.begin_call(i);
    XebAnswer ans;
    ans.call = i;
    const bool ok = loop.timed(
        [&] {
          std::optional<Tracer::Scope> call, sweep;
          if (traced) call.emplace(tr, "call");
          if (traced) sweep.emplace(tr, "core.approx.xeb_sweep");
          const double t0 = tr.now();
          core::ApproxBatchResult r = core::xeb_sweep(nc, 0, bits, sopts);
          if (traced) {
            const double sweep_s = tr.now() - t0;
            tr.derived("approx.plan", sweep->start(), r.plan_seconds);
            tr.derived("approx.eval", sweep->start() + r.plan_seconds, r.eval_seconds);
            samples["sweep.plan_s"].push_back(r.plan_seconds);
            samples["sweep.eval_s"].push_back(r.eval_seconds);
            samples["sweep.overhead_s"].push_back(
                sweep_s - r.contract_stats.elapsed_seconds / static_cast<double>(threads));
            samples["plan.compiles"].push_back(
                static_cast<double>(r.contract_stats.plans_compiled));
            samples["plan_cache.hit_ratio"].push_back(
                hit_ratio(r.contract_stats.plan_cache_hits, r.contract_stats.plan_cache_misses));
            add_exec_samples(samples, r.contract_stats, static_cast<double>(bits.size()));
          }
          ans.raw = std::move(r.raw);
        },
        traced, i % kXebBatches);
    if (ok) answers.push_back(std::move(ans));
    if (!traced) return;
    // Every call splits the noise sites again (the cache holds plans, not
    // splits): probed on the same input, outside the call span.
    Tracer::Scope probe(tr, "probe");
    samples["superop.split_s"].push_back(probe_split(tr, nc));
  });

  if (opts.trace) {
    // sweep.thread_eff: one single-threaded call against the untraced
    // T-thread median.
    tr.begin_call(0);
    Tracer::Scope s(tr, "serial_baseline");
    const auto t0 = Clock::now();
    core::xeb_sweep(nc, 0, xeb_bitstrings(opts.seed, 1), xeb_options(1, &cache));
    const double one = seconds_since(t0);
    const double many = median(loop.call_s);
    if (many > 0.0)
      samples["sweep.thread_eff"].push_back(one / (static_cast<double>(threads) * many));
  }

  // Correctness: sampled bitstrings of sampled calls, bitwise against
  // per-bitstring approximate_fidelity without a plan cache.
  core::ApproxOptions ref_opts;
  ref_opts.level = kXebLevel;
  for (const std::size_t j : spread(answers.size(), kXebCheckCalls)) {
    const XebAnswer& a = answers[j];
    const std::vector<std::uint64_t> bits = xeb_bitstrings(opts.seed, a.call % kXebBatches);
    bool ok = a.raw.size() == bits.size();
    for (const std::size_t o : spread(bits.size(), kXebCheckBits)) {
      if (!ok) break;
      const core::ApproxResult ref = core::approximate_fidelity(nc, 0, bits[o], ref_opts);
      ok = bitwise_match(a.raw[o], ref.raw);
    }
    if (!ok) {
      ++loop.failed;
      rep.correct = false;
      std::cerr << "xeb_warm call " << a.call << ": not bitwise equal to approximate_fidelity\n";
    }
  }
  finish(rep, loop, samples, tr, opts, static_cast<double>(kXebBitstrings));
  return rep;
}

// --- fig5_traj -------------------------------------------------------------------

struct Fig5Reference {
  double value = 0.0;
  double bound = 0.0;
  double ideal = 0.0;
};

Fig5Reference fig5_reference(const ch::NoisyCircuit& nc, std::uint64_t v, double ideal,
                             std::size_t threads) {
  core::ApproxOptions o;
  o.level = kFig5RefLevel;
  o.threads = threads;
  const core::ApproxResult r = core::approximate_fidelity(nc, 0, v, o);
  return {r.value, r.tight_error_bound, ideal};
}

Report run_fig5(const Options& opts, Report rep) {
  Tracer tr(opts.trace);
  Samples samples;
  const std::size_t threads = resolve_threads(opts);
  const std::size_t samples_per_call = kSamplesPerThread * threads;
  sim::ParallelOptions popts;
  popts.threads = threads;

  ch::NoisyCircuit nc;
  std::uint64_t v = 0;
  double ideal = 0.0;
  const auto set_up = [&](bool keep) {
    ch::NoisyCircuit fresh = fig5_input(opts.seed);
    const auto [output, p_ideal] = fig5_output(fresh);
    sim::trajectories_sv(fresh, 0, output, samples_per_call, derive(opts.seed, 3, 0), popts);
    if (!keep) return;
    nc = std::move(fresh);
    v = output;
    ideal = p_ideal;
  };
  Setup setup(kSetupReps, Setup::spacing(opts.seconds, kFig5CallSeconds, kSetupReps), set_up);

  Loop loop;
  std::vector<sim::TrajectoryResult> answers;
  answers.reserve(kMaxCalls);
  run_for(opts.seconds, setup, loop, [&](std::size_t i) {
    const bool traced = opts.trace && i % 2 == 0;
    tr.begin_call(i);
    sim::TrajectoryResult ans;
    const bool ok = loop.timed(
        [&] {
          std::optional<Tracer::Scope> call, traj;
          if (traced) call.emplace(tr, "call");
          if (traced) traj.emplace(tr, "sim.trajectories_sv");
          ans = sim::trajectories_sv(nc, 0, v, samples_per_call,
                                     derive(opts.seed, 3, i % kFig5SamplerSeeds), popts);
        },
        traced, i % kFig5SamplerSeeds);
    if (ok) answers.push_back(ans);
    if (!traced) return;
    // Layer probes: one noise-free evolution gate by gate, and a few
    // single-threaded trajectory samples on the same circuit.
    Tracer::Scope probe(tr, "probe");
    const qc::Circuit ideal_circuit = nc.gates_only();
    const std::vector<qc::Gate>& gates = ideal_circuit.gates();
    double evolve_s = 0.0;
    {
      Tracer::Scope s(tr, "sim.statevector.apply_gate");
      const double t0 = tr.now();
      sim::Statevector sv(nc.num_qubits());
      for (const qc::Gate& g : gates) sv.apply_gate(g);
      evolve_s = tr.now() - t0;
    }
    samples["sv.ns_per_amp_gate"].push_back(
        evolve_s * 1e9 /
        (std::ldexp(1.0, nc.num_qubits()) * static_cast<double>(gates.size())));
    double sample_s = 0.0;
    {
      Tracer::Scope s(tr, "sim.trajectories.sample_trajectory_sv");
      std::mt19937_64 rng(derive(opts.seed, 4, i));
      constexpr int kProbeSamples = 4;
      const double t0 = tr.now();
      for (int k = 0; k < kProbeSamples; ++k) sim::sample_trajectory_sv(nc, 0, v, rng);
      sample_s = (tr.now() - t0) / kProbeSamples;
    }
    samples["traj.sample_s"].push_back(sample_s);
    samples["traj.noise_share"].push_back(sample_s > 0.0 ? (sample_s - evolve_s) / sample_s
                                                         : 0.0);
  });

  if (opts.trace) {
    // parallel.thread_eff: one RNG chunk on one thread against the
    // untraced T-thread median call.
    tr.begin_call(0);
    Tracer::Scope s(tr, "serial_baseline");
    sim::ParallelOptions one;
    one.threads = 1;
    const auto t0 = Clock::now();
    sim::trajectories_sv(nc, 0, v, kSamplesPerThread, derive(opts.seed, 3, 1), one);
    const double per_sample_1 = seconds_since(t0) / static_cast<double>(kSamplesPerThread);
    const double per_sample_t = median(loop.call_s) / static_cast<double>(samples_per_call);
    if (per_sample_t > 0.0)
      samples["parallel.thread_eff"].push_back(per_sample_1 /
                                               (static_cast<double>(threads) * per_sample_t));
  }

  // Correctness: every call against the Algorithm-1 reference.
  const Fig5Reference ref = fig5_reference(nc, v, ideal, threads);
  for (const sim::TrajectoryResult& a : answers) {
    if (!trajectory_match(a.mean, a.std_error, ref.value, ref.bound, ref.ideal)) {
      ++loop.failed;
      rep.correct = false;
      std::cerr << "fig5_traj: mean " << a.mean << " +- " << a.std_error << " vs reference "
                << ref.value << "\n";
    }
  }
  std::cout << "fig5_traj reference: A(" << kFig5RefLevel << ") = " << ref.value << " (bound "
            << ref.bound << "), noise-free " << ref.ideal << ", output " << v << "\n";
  finish(rep, loop, samples, tr, opts, static_cast<double>(samples_per_call));
  return rep;
}

// --- input digests ---------------------------------------------------------------

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 0x100000001b3ULL;
  }
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  void matrix(const la::Matrix& m) { bytes(m.data(), m.rows() * m.cols() * sizeof(cplx)); }
  void circuit(const ch::NoisyCircuit& nc) {
    value(nc.num_qubits());
    for (const ch::Op& op : nc.ops()) {
      if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
        value(g->kind);
        value(g->qubits);
        for (const double p : g->params) value(p);
        matrix(g->custom);
      } else {
        const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
        value(noise.qubit);
        value(noise.qubit2);
        for (const la::Matrix& k : noise.channel.kraus()) matrix(k);
      }
    }
  }
};

}  // namespace

Report run_workload(const Options& opts) {
  const std::size_t threads = resolve_threads(opts);
  Report rep;
  if (opts.workload == "fig4_cold") {
    rep.record = record_json(opts, 1,
                             "simulate(): qaoa_64 + 8 realistic noises, placement pool of 32, "
                             "error_budget 1e-2, no shared PlanCache");
    return run_fig4(opts, std::move(rep));
  }
  if (opts.workload == "xeb_warm") {
    rep.record = record_json(opts, threads,
                             "xeb_sweep(): fixed qaoa_64 + 8 realistic noises, level 1, "
                             "K=256 fresh bitstrings per call, warm shared PlanCache");
    return run_xeb(opts, std::move(rep));
  }
  if (opts.workload == "fig5_traj") {
    rep.record = record_json(opts, threads,
                             "trajectories_sv(): qaoa_grid 4x4 + 12 depolarizing(1e-3), " +
                                 std::to_string(kSamplesPerThread * threads) +
                                 " samples per call");
    return run_fig5(opts, std::move(rep));
  }
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

std::string input_digest(const std::string& workload, std::uint64_t seed) {
  Digest d;
  if (workload == "fig4_cold") {
    const Fig4Inputs inputs(seed);
    for (std::size_t i = 0; i < 4; ++i) {
      d.circuit(inputs.circuit(i));
      d.value(inputs.output(i));
    }
  } else if (workload == "xeb_warm") {
    d.circuit(xeb_circuit());
    for (std::size_t i = 0; i < 2; ++i)
      for (const std::uint64_t b : xeb_bitstrings(seed, i)) d.value(b);
  } else if (workload == "fig5_traj") {
    const ch::NoisyCircuit nc = fig5_input(seed);
    d.circuit(nc);
    d.value(fig5_output(nc).first);
    for (std::size_t i = 0; i < 2; ++i) d.value(derive(seed, 3, i));
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(d.h));
  return buf;
}

int self_test() {
  int misjudged = 0;
  auto expect = [&](bool accepted, bool want, const std::string& what) {
    const bool right = accepted == want;
    if (!right) ++misjudged;
    std::cout << (right ? "ok    " : "WRONG ") << what << ": check "
              << (accepted ? "accepts" : "rejects") << "\n";
  };
  const std::uint64_t seed = 1;
  const std::size_t threads = sim::resolve_threads(0);

  {  // fig4_cold: genuine answers pass; zero and a reused answer fail.
    const Fig4Inputs inputs(seed);
    std::vector<Fig4Answer> got(2);
    std::vector<double> ref(2);
    for (std::size_t i = 0; i < 2; ++i) {
      const ch::NoisyCircuit nc = inputs.circuit(i + 1);
      const std::uint64_t v = inputs.output(i + 1);
      const core::SimResult r = core::simulate(nc, 0, v, fig4_options());
      got[i] = {i + 1, v, r.value, r.backend, r.config.level, r.error_bound};
      ref[i] = fig4_reference(nc, v, r.config.level);
    }
    expect(fig4_ok(got[0], ref[0]) && fig4_ok(got[1], ref[1]), true, "fig4_cold genuine");
    Fig4Answer zero = got[0];
    zero.value = 0.0;
    expect(fig4_ok(zero, ref[0]), false, "fig4_cold zero answer");
    Fig4Answer constant = got[1];
    constant.value = got[0].value;
    expect(fig4_ok(constant, ref[1]), false, "fig4_cold constant answer");
  }
  {  // xeb_warm: bitwise against per-bitstring approximate_fidelity.
    const ch::NoisyCircuit nc = xeb_circuit();
    const std::vector<std::uint64_t> bits = xeb_bitstrings(seed, 1, 2);
    const core::ApproxBatchResult r = core::xeb_sweep(nc, 0, bits, xeb_options(threads, nullptr));
    core::ApproxOptions ro;
    ro.level = kXebLevel;
    const cplx ref0 = core::approximate_fidelity(nc, 0, bits[0], ro).raw;
    const cplx ref1 = core::approximate_fidelity(nc, 0, bits[1], ro).raw;
    expect(bitwise_match(r.raw[0], ref0) && bitwise_match(r.raw[1], ref1), true,
           "xeb_warm genuine");
    expect(bitwise_match(cplx{0.0, 0.0}, ref0), false, "xeb_warm zero answer");
    expect(bitwise_match(r.raw[0], ref1), false, "xeb_warm constant answer");
  }
  {  // fig5_traj: within the trajectory tolerance of Algorithm 1.
    const ch::NoisyCircuit nc = fig5_input(seed);
    const auto [v, ideal] = fig5_output(nc);
    const Fig5Reference ref = fig5_reference(nc, v, ideal, threads);
    sim::ParallelOptions popts;
    popts.threads = threads;
    const sim::TrajectoryResult t =
        sim::trajectories_sv(nc, 0, v, kSamplesPerThread * threads, derive(seed, 3, 1), popts);
    expect(trajectory_match(t.mean, t.std_error, ref.value, ref.bound, ref.ideal), true,
           "fig5_traj genuine");
    expect(trajectory_match(0.0, 0.0, ref.value, ref.bound, ref.ideal), false,
           "fig5_traj zero answer");
    expect(trajectory_match(0.5, 0.0, ref.value, ref.bound, ref.ideal), false,
           "fig5_traj constant answer");
  }
  return misjudged;
}

}  // namespace perfbench
