// Output-bitstring batching: linear cross-entropy benchmarking (XEB) over
// N sampled bitstrings through the three output-batched paths.
//
// Sampling workloads evaluate ONE circuit skeleton at MANY output
// bitstrings. This bench scores K sampled bitstrings (uniform random here;
// a real XEB run would use device measurements) three ways:
//
//  * ideal amplitudes p(x) = |<x|C|0>|^2 -- per-bitstring plan replay
//    (a core::ReplayEvaluator with no batched plan, the pre-batching
//    reference) vs ONE output-batched traversal (the batched plan of a
//    core::ReplayLayout with no sites and K outputs per traversal): the
//    caps are varying slots, steps outside every cap cone run once per
//    batch, cap-cone rows are shared between bitstrings that agree on the
//    cone's qubits;
//  * noisy probabilities A(l) = <x|E(rho)|x> via Algorithm 1 --
//    per-bitstring approximate_fidelity vs approximate_fidelity_outputs
//    (terms x outputs batched in one traversal per chunk);
//  * trajectory estimates -- per-bitstring trajectories_tn vs
//    trajectories_tn_sweep with one K-wide shard (every sample scores all K
//    bitstrings on one sampled circuit).
//
// Every batched value must equal its per-bitstring reference BIT FOR BIT;
// the bench exits non-zero on any mismatch, or when the amplitude phase's
// batched eval throughput stays below 2x the per-bitstring reference for
// every K >= 16 row. --baseline <json> adds a > 20% regression gate on the
// batched per-bitstring amplitude throughput vs the committed
// BENCH_xeb.json (enforced only on the same CPU model, like
// bench_contract_plan). Results land in BENCH_xeb.json (or the first
// non-flag argument).

// --sweep additionally runs the sharded-sweep / plan-cache ladder: three
// XEB batches (fresh bitstring sets) scored back to back, uncached vs
// through one core::PlanCache -- the cached ladder must finish >= 2x faster
// (calls 2-3 skip every template and batched-plan compile; their stats must
// report plan_cache_hits > 0 and plans_compiled == 0) and core::xeb_sweep
// must reproduce the ladder's values bit for bit at several shard sizes
// and thread counts. With --baseline, the cached ladder time also joins
// the > 20% same-CPU regression gates.

#include <chrono>
#include <cmath>
#include <fstream>
#include <random>

#include "bench_common.hpp"
#include "core/approx.hpp"
#include "core/plan_cache.hpp"
#include "core/trajectories_tn.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace noisim;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct KRun {
  std::size_t k = 0;
  double ref_eval_seconds = 0.0;      // per-bitstring plan replay, best round
  double batched_eval_seconds = 0.0;  // one batched traversal, best round
  double xeb_ideal = 0.0;             // 2^n * mean p(x) - 1 over the K samples
  double xeb_noisy = 0.0;             // same statistic on the A(l) values
  double approx_ref_eval_seconds = 0.0;
  double approx_batched_eval_seconds = 0.0;
  double approx_ref_total_seconds = 0.0;      // plan + eval, per-bitstring sweeps
  double approx_batched_total_seconds = 0.0;  // plan once + batched eval
  double traj_ref_seconds = 0.0;
  double traj_batched_seconds = 0.0;
  bool amp_identical = false;
  bool approx_identical = false;
  bool traj_identical = false;
  double speedup() const {
    return batched_eval_seconds > 0.0 ? ref_eval_seconds / batched_eval_seconds : 0.0;
  }
};

/// Minimal field scan: the number following `"<key>": ` in the object for
/// `"k": <k>` inside `path`. Returns false when absent.
bool baseline_field(const std::string& path, std::size_t k, const std::string& key,
                    double* out) {
  const std::string text = bench::read_text(path);
  const std::size_t at = text.find("\"k\": " + std::to_string(k));
  return at != std::string::npos && bench::scan_field(text, key, out, at);
}

std::string baseline_cpu(const std::string& path) {
  const std::string text = bench::read_text(path);
  const std::string tag = "\"cpu_model\": \"";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t end = text.find('"', at + tag.size());
  if (end == std::string::npos) return {};
  return text.substr(at + tag.size(), end - at - tag.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_xeb.json";
  std::string baseline_path;
  bool sweep_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline") {
      if (i + 1 >= argc) {
        std::cerr << "error: --baseline requires a path\n";
        return 2;
      }
      baseline_path = argv[++i];
    } else if (arg == "--sweep") {
      sweep_mode = true;
    } else {
      out_path = arg;
    }
  }

  bench::print_header("Output-bitstring batching: linear XEB over sampled bitstrings",
                      "Fig. 5-style sampling workload, Porter-Thomas / XEB regime");

  const int n = 36;  // 6x6 grid; the output-batched regime the ROADMAP names
  const std::size_t noises = bench::large_mode() ? 12 : 6;
  const std::size_t traj_samples = bench::large_mode() ? 256 : 64;
  const qc::Circuit circuit = bench::qaoa(n, 1, 77);
  // Depolarizing noise: a unitary mixture, so the SAME circuit feeds all
  // three paths (Algorithm 1 and the trajectory baseline, like Fig. 5).
  const ch::NoisyCircuit nc =
      bench::insert_noises(circuit, noises, bench::depolarizing_noise(0.008), 900 + noises);
  std::cout << "circuit qaoa_" << n << " (" << circuit.size() << " gates, depth "
            << circuit.depth() << ", " << noises << " noises)\n\n";

  core::EvalOptions eval;
  eval.backend = core::EvalOptions::Backend::TensorNetwork;
  eval.tn.max_tensor_elems = bench::memory_budget();

  core::ApproxOptions aopts;
  aopts.level = 1;
  aopts.eval = eval;

  sim::ParallelOptions popts;
  popts.threads = 1;

  std::vector<std::size_t> ks{4, 16, 32};
  if (bench::large_mode()) {
    ks.push_back(64);
    ks.push_back(128);
  }

  // One template serves every K: the reference path replays its plan per
  // bitstring, the batched path compiles an output-batched plan on top.
  const core::AmplitudeTemplate tmpl(n, circuit.gates(), 0, 0, eval);

  std::mt19937_64 sample_rng(2024);
  const std::uint64_t mask = n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  const double pow2n = std::ldexp(1.0, n);

  std::vector<KRun> runs;
  bool all_identical = true;
  bool speedup_gate_ok = false;  // needs ONE K >= 16 row at >= 2x
  for (const std::size_t K : ks) {
    KRun run;
    run.k = K;
    // One wall-clock budget for the whole row: every path below polls it.
    const bench::Deadline budget(bench::timeout_large());
    aopts.control = &budget;
    popts.control = &budget;
    std::vector<std::uint64_t> vb(K);
    for (auto& v : vb) v = sample_rng() & mask;

    // --- ideal amplitudes: per-bitstring replay vs one batched traversal.
    // Interleaved best-of rounds (deterministic repeats), like
    // bench_contract_plan, so a slow machine window hits both paths alike.
    // A batched traversal takes well under a millisecond, so it takes many
    // rounds before the best one is clear of host noise; the --baseline
    // gate reads it. 256 rounds take ~1 s for the three rows; with 32, the
    // K = 16 best on a shared 4-vCPU host spread up to 1.7x between runs.
    const core::ReplayLayout layout(tmpl, {}, {}, 1, K, K);
    const tn::BatchedPlan bplan = layout.compile(tmpl);
    core::ReplayEvaluator per_bitstring(tmpl, layout, nullptr, &budget);
    core::ReplayEvaluator batched(tmpl, layout, &bplan, &budget);
    std::vector<cplx> ref_amp(K), bat_amp(K);
    run.ref_eval_seconds = run.batched_eval_seconds = 1e300;
    for (int round = 0; round < 256; ++round) {
      auto t0 = Clock::now();
      per_bitstring.amplitudes({}, 1, vb, ref_amp);
      run.ref_eval_seconds = std::min(run.ref_eval_seconds, secs(t0, Clock::now()));
      t0 = Clock::now();
      batched.amplitudes({}, 1, vb, bat_amp);
      run.batched_eval_seconds = std::min(run.batched_eval_seconds, secs(t0, Clock::now()));
    }
    run.amp_identical = true;
    double mean_p = 0.0;
    for (std::size_t o = 0; o < K; ++o) {
      run.amp_identical = run.amp_identical && ref_amp[o] == bat_amp[o];
      mean_p += std::norm(bat_amp[o]);
    }
    mean_p /= static_cast<double>(K);
    run.xeb_ideal = pow2n * mean_p - 1.0;

    // --- noisy probabilities A(l): per-bitstring Algorithm-1 sweeps vs the
    // terms x outputs batched sweep. Interleaved best-of-2 rounds (repeats
    // are deterministic) to keep the informational timings stable.
    core::ApproxBatchResult abatch;
    run.approx_ref_eval_seconds = run.approx_batched_eval_seconds = 1e300;
    run.approx_ref_total_seconds = run.approx_batched_total_seconds = 1e300;
    run.approx_identical = true;
    for (int round = 0; round < 2; ++round) {
      abatch = core::approximate_fidelity_outputs(nc, 0, vb, aopts);
      run.approx_batched_eval_seconds =
          std::min(run.approx_batched_eval_seconds, abatch.eval_seconds);
      run.approx_batched_total_seconds =
          std::min(run.approx_batched_total_seconds, abatch.plan_seconds + abatch.eval_seconds);
      double ref_eval = 0.0, ref_total = 0.0;
      for (std::size_t o = 0; o < K; ++o) {
        const core::ApproxResult ref = core::approximate_fidelity(nc, 0, vb[o], aopts);
        ref_eval += ref.eval_seconds;
        ref_total += ref.plan_seconds + ref.eval_seconds;
        run.approx_identical = run.approx_identical && ref.raw == abatch.raw[o] &&
                               ref.level_values == abatch.level_values[o];
      }
      run.approx_ref_eval_seconds = std::min(run.approx_ref_eval_seconds, ref_eval);
      run.approx_ref_total_seconds = std::min(run.approx_ref_total_seconds, ref_total);
    }
    double mean_noisy = 0.0;
    for (std::size_t o = 0; o < K; ++o) mean_noisy += abatch.values[o];
    mean_noisy /= static_cast<double>(K);
    run.xeb_noisy = pow2n * mean_noisy - 1.0;

    // --- trajectory estimates: shared noise samples scored at all K
    // bitstrings vs K standalone runs with the same seed.
    run.traj_ref_seconds = run.traj_batched_seconds = 1e300;
    run.traj_identical = true;
    for (int round = 0; round < 2; ++round) {
      auto t0 = Clock::now();
      const std::vector<sim::TrajectoryResult> tbatch =
          core::trajectories_tn_sweep(nc, 0, vb, traj_samples, 7, popts, eval.tn, K);
      run.traj_batched_seconds = std::min(run.traj_batched_seconds, secs(t0, Clock::now()));
      t0 = Clock::now();
      for (std::size_t o = 0; o < K; ++o) {
        const sim::TrajectoryResult ref =
            core::trajectories_tn(nc, 0, vb[o], traj_samples, 7, popts, eval.tn);
        run.traj_identical = run.traj_identical && ref.mean == tbatch[o].mean &&
                             ref.std_error == tbatch[o].std_error;
      }
      run.traj_ref_seconds = std::min(run.traj_ref_seconds, secs(t0, Clock::now()));
    }

    all_identical =
        all_identical && run.amp_identical && run.approx_identical && run.traj_identical;
    if (K >= 16 && run.speedup() >= 2.0) speedup_gate_ok = true;
    runs.push_back(run);
  }

  bench::Table table({"K", "amp ref(s)", "amp batched(s)", "amp speedup", "approx eval",
                      "approx total", "traj", "xeb_ideal", "xeb_noisy", "bit-identical"});
  for (const KRun& r : runs) {
    const double s_approx = r.approx_batched_eval_seconds > 0.0
                                ? r.approx_ref_eval_seconds / r.approx_batched_eval_seconds
                                : 0.0;
    const double s_approx_total =
        r.approx_batched_total_seconds > 0.0
            ? r.approx_ref_total_seconds / r.approx_batched_total_seconds
            : 0.0;
    const double s_traj =
        r.traj_batched_seconds > 0.0 ? r.traj_ref_seconds / r.traj_batched_seconds : 0.0;
    table.add_row({std::to_string(r.k), bench::sci(r.ref_eval_seconds),
                   bench::sci(r.batched_eval_seconds), bench::fixed(r.speedup(), 2),
                   bench::fixed(s_approx, 2), bench::fixed(s_approx_total, 2),
                   bench::fixed(s_traj, 2), bench::fixed(r.xeb_ideal, 4),
                   bench::fixed(r.xeb_noisy, 4),
                   r.amp_identical && r.approx_identical && r.traj_identical ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\ncpu: " << bench::cpu_model() << "\n"
            << "Uniformly sampled bitstrings give XEB ~ 0 (the unconverged-device\n"
            << "baseline); the bench's contract is the bitwise equality of every batched\n"
            << "value against its per-bitstring reference and the >= 2x amplitude\n"
            << "eval-throughput gate at K >= 16. The approx sweep's eval phase beats its\n"
            << "per-bitstring reference by ~1.2-1.5x at K = 16 and 32 on a 4-vCPU\n"
            << "AVX-512 Xeon -- both take their level-1 terms from one environment pass\n"
            << "per output, so little is left to share across outputs -- and wins\n"
            << "further on total time by planning once instead of once per bitstring.\n";

  // --- sharded sweep + plan-cache ladder (--sweep) ----------------------------
  struct SweepRun {
    double uncached_seconds = 1e300;
    double cached_seconds = 1e300;
    std::size_t plan_cache_hits = 0;
    bool hits_every_round = true;
    bool identical = true;
    double speedup() const {
      return cached_seconds > 0.0 ? uncached_seconds / cached_seconds : 0.0;
    }
  };
  SweepRun sweep;
  bool sweep_gate_ok = true;
  if (sweep_mode) {
    // Three small XEB batches arriving over time on a 5x5 grid: each call
    // scores a fresh kLadderK-bitstring batch, so per-call planning
    // dominates -- exactly the regime ApproxOptions::plan_cache targets.
    // Every cached round starts COLD (fresh cache): the measured win is
    // the 3-call ladder's own amortization, not a pre-warmed cache.
    const int sn = 25;
    const qc::Circuit scirc = bench::qaoa(sn, 1, 177);
    const ch::NoisyCircuit snc =
        bench::insert_noises(scirc, 2, bench::depolarizing_noise(0.008), 911);
    const bench::Deadline budget(bench::timeout_large());
    core::ApproxOptions sopts;
    sopts.level = 1;
    sopts.eval = eval;
    sopts.control = &budget;
    const std::uint64_t smask = (std::uint64_t{1} << sn) - 1;
    constexpr std::size_t kLadderK = 3;
    std::vector<std::vector<std::uint64_t>> sets(3, std::vector<std::uint64_t>(kLadderK));
    for (auto& set : sets)
      for (auto& v : set) v = sample_rng() & smask;

    std::vector<core::ApproxBatchResult> uncached_results(sets.size());
    // Interleaved best-of rounds; the --baseline gate reads the speedup.
    for (int round = 0; round < 16; ++round) {
      auto t0 = Clock::now();
      for (std::size_t s = 0; s < sets.size(); ++s)
        uncached_results[s] = core::approximate_fidelity_outputs(snc, 0, sets[s], sopts);
      sweep.uncached_seconds = std::min(sweep.uncached_seconds, secs(t0, Clock::now()));

      core::PlanCache cache;
      core::ApproxOptions copts = sopts;
      copts.plan_cache = &cache;
      std::size_t hits = 0, compiled_after_first = 0;
      t0 = Clock::now();
      for (std::size_t s = 0; s < sets.size(); ++s) {
        const core::ApproxBatchResult r =
            core::approximate_fidelity_outputs(snc, 0, sets[s], copts);
        hits += r.contract_stats.plan_cache_hits;
        if (s > 0) compiled_after_first += r.contract_stats.plans_compiled;
        for (std::size_t o = 0; o < kLadderK; ++o)
          sweep.identical = sweep.identical && r.raw[o] == uncached_results[s].raw[o];
      }
      sweep.cached_seconds = std::min(sweep.cached_seconds, secs(t0, Clock::now()));
      sweep.plan_cache_hits = hits;
      // Calls 2-3 must be served ENTIRELY from the cache: hits recorded,
      // zero plans compiled.
      sweep.hits_every_round =
          sweep.hits_every_round && hits > 0 && compiled_after_first == 0;
    }

    // xeb_sweep must reproduce the ladder's values bit for bit at several
    // shard sizes and thread counts (warm cache included).
    core::PlanCache xcache;
    for (const std::size_t shard : {std::size_t{1}, std::size_t{2}, kLadderK}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        core::SweepOptions xopts;
        xopts.approx = sopts;
        xopts.approx.threads = threads;
        xopts.approx.plan_cache = &xcache;
        xopts.shard_outputs = shard;
        for (std::size_t s = 0; s < sets.size(); ++s) {
          const core::ApproxBatchResult r = core::xeb_sweep(snc, 0, sets[s], xopts);
          for (std::size_t o = 0; o < kLadderK; ++o)
            sweep.identical = sweep.identical && r.raw[o] == uncached_results[s].raw[o];
        }
      }
    }

    std::cout << "\nsweep ladder (3 XEB batches, qaoa_" << sn << " + 2 noises, K "
              << kLadderK << "): uncached " << bench::sci(sweep.uncached_seconds)
              << "s, cached " << bench::sci(sweep.cached_seconds) << "s -> "
              << bench::fixed(sweep.speedup(), 2) << "x (plan-cache hits "
              << sweep.plan_cache_hits << ", bit-identical "
              << (sweep.identical ? "yes" : "NO") << ")\n";

    sweep_gate_ok = sweep.identical && sweep.hits_every_round && sweep.speedup() >= 2.0;
  }

  // Baseline regression gate (CI): > 20% batched per-bitstring amplitude
  // throughput loss vs the committed BENCH_xeb.json, same CPU model only.
  bool baseline_ok = true;
  if (!baseline_path.empty()) {
    const std::string base_cpu = baseline_cpu(baseline_path);
    const bool same_machine = base_cpu == bench::cpu_model();
    if (!same_machine)
      std::cout << "baseline recorded on \"" << base_cpu
                << "\" (different CPU) -- regression check informational only\n";
    for (const KRun& r : runs) {
      double base_per_bits = 0.0;
      if (!baseline_field(baseline_path, r.k, "batched_per_bitstring_seconds",
                          &base_per_bits) ||
          base_per_bits <= 0.0)
        continue;
      const double cur = r.batched_eval_seconds / static_cast<double>(r.k);
      const bool regressed = cur > base_per_bits * 1.25;
      std::cout << "baseline K " << r.k << ": batched per-bitstring " << bench::sci(cur)
                << "s vs committed " << bench::sci(base_per_bits) << "s"
                << (regressed ? "  REGRESSION > 20%" : "  ok") << "\n";
      baseline_ok = baseline_ok && (!regressed || !same_machine);
    }
    // Sweep ladder regression gate on the CACHE SPEEDUP (dimensionless --
    // both sides of the ratio are measured in the same run, so machine
    // load cancels; the ~4ms absolute ladder time is too noisy to gate):
    // > 20% speedup loss vs the committed run fails.
    double base_speedup = 0.0;
    if (sweep_mode && bench::scan_field(bench::read_text(baseline_path), "sweep_cache_speedup",
                                     &base_speedup) &&
        base_speedup > 0.0) {
      const bool regressed = sweep.speedup() < base_speedup * 0.8;
      std::cout << "baseline sweep ladder: cache speedup "
                << bench::fixed(sweep.speedup(), 2) << "x vs committed "
                << bench::fixed(base_speedup, 2) << "x"
                << (regressed ? "  REGRESSION > 20%" : "  ok") << "\n";
      baseline_ok = baseline_ok && (!regressed || !same_machine);
    }
  }

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"xeb\",\n"
      << "  \"workload\": \"qaoa_" << n << " + " << noises
      << " realistic noises, uniform sampled bitstrings\",\n"
      << "  \"qubits\": " << n << ",\n"
      << "  \"level\": " << aopts.level << ",\n"
      << "  \"traj_samples\": " << traj_samples << ",\n"
      << "  \"machine\": " << bench::machine_json() << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const KRun& r = runs[i];
    out << "    {\"k\": " << r.k << ", \"amp_ref_eval_seconds\": " << r.ref_eval_seconds
        << ", \"amp_batched_eval_seconds\": " << r.batched_eval_seconds
        << ", \"batched_per_bitstring_seconds\": "
        << r.batched_eval_seconds / static_cast<double>(r.k)
        << ", \"amp_speedup\": " << r.speedup()
        << ",\n     \"approx_ref_eval_seconds\": " << r.approx_ref_eval_seconds
        << ", \"approx_batched_eval_seconds\": " << r.approx_batched_eval_seconds
        << ", \"approx_ref_total_seconds\": " << r.approx_ref_total_seconds
        << ", \"approx_batched_total_seconds\": " << r.approx_batched_total_seconds
        << ", \"traj_ref_seconds\": " << r.traj_ref_seconds
        << ", \"traj_batched_seconds\": " << r.traj_batched_seconds
        << ",\n     \"xeb_ideal\": " << r.xeb_ideal << ", \"xeb_noisy\": " << r.xeb_noisy
        << ", \"amp_identical\": " << (r.amp_identical ? "true" : "false")
        << ", \"approx_identical\": " << (r.approx_identical ? "true" : "false")
        << ", \"traj_identical\": " << (r.traj_identical ? "true" : "false") << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]";
  if (sweep_mode) {
    out << ",\n  \"sweep_uncached_seconds\": " << sweep.uncached_seconds
        << ",\n  \"sweep_cached_seconds\": " << sweep.cached_seconds
        << ",\n  \"sweep_cache_speedup\": " << sweep.speedup()
        << ",\n  \"sweep_plan_cache_hits\": " << sweep.plan_cache_hits
        << ",\n  \"sweep_identical\": " << (sweep.identical ? "true" : "false");
  }
  out << "\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!all_identical) std::cout << "FAIL: batched / per-bitstring values not bit-identical\n";
  if (!speedup_gate_ok)
    std::cout << "FAIL: no K >= 16 row reached the 2x amplitude eval-throughput gate\n";
  if (!baseline_ok) std::cout << "FAIL: batched per-bitstring throughput regressed > 20%\n";
  if (!sweep_gate_ok)
    std::cout << "FAIL: sweep ladder missed the 2x plan-cache gate (or hits/bit-identity)\n";
  return all_identical && speedup_gate_ok && baseline_ok && sweep_gate_ok ? 0 : 1;
}
