// Plan/execute engine: re-plan vs per-term replay vs batched replay
// throughput on the Fig. 4 workload (hardware-grid QAOA with injected
// realistic noise).
//
// Every Algorithm-1 term contracts 2 single-layer networks that share one
// topology, so the engine compiles each layer's contraction plan once and
// replays it per term; batched replay executes a whole chunk of terms in
// ONE plan traversal (shared-cone steps once per batch, duplicate slices
// memcpy'd, per-step dispatch amortized). This bench runs the same A(l)
// sweep through all three paths -- re-planning is the test-side oracle
// bench::replanned_fidelity -- checks the two replay paths are
// bit-identical to each other and match the oracle as
// bench::replay_mismatch states (the sweep's level-1 terms come from
// environment passes, which differ from re-planning at roundoff), and
// records per-term throughput plus the plan/flops counters to
// BENCH_contract_plan.json (or the first non-flag argument).
//
// Per-term throughput is terms / eval_seconds -- the evaluation phase of
// core::approximate_fidelity, excluding the per-sweep planning that both
// paths pay once and that vanishes as the term count grows with the
// level. Total wall-clock seconds are recorded alongside.
//
// A kernel-tier section then re-runs the level-1 batched sweep with the
// scalar tier forced vs the runtime-dispatched tier (tensor/kernels.hpp),
// checks the two agree bitwise, and gates the dispatched tier's eval
// throughput: >= 1.5x over scalar whenever the host detects AVX2 or
// better (on scalar-only hosts the tiers are the same table, so the gate
// passes trivially).
//
// Exit status is non-zero when any path disagrees (as above), when the
// level-1 batched path fails the >= 2x per-term eval-throughput gate over
// the per-term replay path, when the dispatched kernel tier misses its
// speedup gate, or when --baseline <json> shows a > 20% batched per-term
// throughput regression against the committed baseline.

#include <chrono>
#include <cstdlib>
#include <functional>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "bench_support/oracle.hpp"
#include "core/approx.hpp"
#include "sim/parallel.hpp"
#include "tensor/kernels.hpp"

namespace {

using namespace noisim;

struct LevelRun {
  std::size_t level = 0;
  std::size_t terms = 0;
  std::size_t contractions = 0;
  bench::RunOutcome replan, reuse, batched;
  core::ApproxResult replan_result, reuse_result, batched_result, threaded_result;
  bool bit_identical = false;
  bool threaded_identical = false;
};

bool same_bits(const core::ApproxResult& a, const core::ApproxResult& b) {
  if (a.raw != b.raw || a.level_values.size() != b.level_values.size()) return false;
  for (std::size_t i = 0; i < a.level_values.size(); ++i)
    if (a.level_values[i] != b.level_values[i]) return false;
  return true;
}

/// Minimal field scan: the number following `"<key>": ` in the object for
/// `"level": <level>` inside `path`. Returns false when absent.
bool baseline_field(const std::string& path, std::size_t level, const std::string& key,
                    double* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::string level_tag = "\"level\": " + std::to_string(level);
  std::size_t at = text.find(level_tag);
  if (at == std::string::npos) return false;
  const std::string key_tag = "\"" + key + "\": ";
  at = text.find(key_tag, at);
  if (at == std::string::npos) return false;
  *out = std::strtod(text.c_str() + at + key_tag.size(), nullptr);
  return true;
}

double per_term_eval_seconds(const core::ApproxResult& r, std::size_t terms) {
  return terms > 0 ? r.eval_seconds / static_cast<double>(terms) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_contract_plan.json";
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

  bench::print_header("Plan/execute engine: replan vs per-term replay vs batched replay",
                      "paper Fig. 4 workload, Theorem 1 cost model");

  const int n = bench::large_mode() ? 100 : 64;
  const std::size_t noises = bench::large_mode() ? 16 : 8;
  const qc::Circuit circuit = bench::qaoa(n, 1, 77);
  const ch::NoisyCircuit nc =
      bench::insert_noises(circuit, noises, bench::realistic_noise(), 500 + noises);
  std::cout << "circuit qaoa_" << n << " (" << circuit.size() << " gates, depth "
            << circuit.depth() << ", " << noises << " noises)\n\n";

  std::vector<std::size_t> levels{0, 1};
  if (bench::large_mode()) levels.push_back(2);
  const std::size_t hw = sim::resolve_threads(0);
  const std::size_t batch_terms = core::ApproxOptions{}.batch_terms;

  auto make_opts = [&](std::size_t level, std::size_t threads, std::size_t batch) {
    core::ApproxOptions opts;
    opts.level = level;
    opts.threads = threads;
    opts.batch_terms = batch;
    opts.eval.backend = core::EvalOptions::Backend::TensorNetwork;
    opts.eval.tn.max_tensor_elems = bench::memory_budget();
    return opts;
  };

  std::vector<LevelRun> runs;
  bool all_identical = true;
  bool speedup_gate_ok = true;
  for (const std::size_t level : levels) {
    LevelRun run;
    run.level = level;
    // The three serial paths run in INTERLEAVED rounds and each keeps its
    // fastest eval phase (repeats are deterministic, so the kept results
    // are interchangeable): single-shot timings on small levels are
    // noise-dominated, and interleaving means a slow machine window (CPU
    // steal on shared boxes) hits all paths alike instead of skewing the
    // gated ratios.
    // Each guarded run gets its own wall-clock budget.
    auto run_once = [&](core::ApproxResult& result,
                        const std::function<core::ApproxResult(const core::RunControl*)>& sweep,
                        bool first) {
      return bench::run_guarded_stats([&](tn::ContractStats& stats) {
        const bench::Deadline budget(bench::timeout_large());
        core::ApproxResult attempt = sweep(&budget);
        if (first || attempt.eval_seconds < result.eval_seconds) result = std::move(attempt);
        stats = result.contract_stats;
        return result.value;
      });
    };
    // The per-term replay path (plan reuse, batches of one): the speedup
    // baseline the batched executor is gated against.
    const core::ApproxOptions reuse_opts = make_opts(level, 1, 1);
    const core::ApproxOptions batched_opts = make_opts(level, 1, batch_terms);
    // The re-planning oracle (bench_support/oracle.hpp) under the same
    // evaluation options.
    auto replan = [&](const core::RunControl* budget) {
      core::EvalOptions eval = reuse_opts.eval;
      eval.tn.control = budget;
      return bench::replanned_fidelity(nc, 0, 0, level, eval);
    };
    auto sweep = [&](const core::ApproxOptions& opts) {
      return [&nc, opts](const core::RunControl* budget) {
        core::ApproxOptions guarded = opts;
        guarded.control = budget;
        return core::approximate_fidelity(nc, 0, 0, guarded);
      };
    };
    for (int round = 0; round < 4; ++round) {
      run.replan = run_once(run.replan_result, replan, round == 0);
      run.reuse = run_once(run.reuse_result, sweep(reuse_opts), round == 0);
      run.batched = run_once(run.batched_result, sweep(batched_opts), round == 0);
      if (!run.replan.ok() || !run.reuse.ok() || !run.batched.ok()) break;
    }
    // Report each path's best single-run wall time, not the repeat total --
    // *_seconds in the JSON stays comparable across commits.
    auto single_seconds = [](bench::RunOutcome& out, const core::ApproxResult& result) {
      if (out.ok()) out.seconds = result.plan_seconds + result.eval_seconds;
    };
    single_seconds(run.replan, run.replan_result);
    single_seconds(run.reuse, run.reuse_result);
    single_seconds(run.batched, run.batched_result);
    // Batched replay must be thread-safe: per-worker workspaces,
    // bit-identical reduction at any thread count. Guarded so a
    // budget-constrained box still emits its MO/TO rows and the JSON
    // instead of crashing.
    const bench::RunOutcome threaded = bench::run_guarded([&] {
      const bench::Deadline budget(bench::timeout_large());
      core::ApproxOptions opts = make_opts(level, hw, batch_terms);
      opts.control = &budget;
      run.threaded_result = core::approximate_fidelity(nc, 0, 0, opts);
      return run.threaded_result.value;
    });

    run.contractions = run.reuse_result.contractions;
    run.terms = run.contractions;
    run.bit_identical = run.replan.ok() && run.reuse.ok() && run.batched.ok() &&
                        bench::replay_mismatch(run.reuse_result, run.replan_result).empty() &&
                        same_bits(run.reuse_result, run.batched_result);
    run.threaded_identical = threaded.ok() && same_bits(run.batched_result, run.threaded_result);
    all_identical = all_identical && run.bit_identical && run.threaded_identical;
    if (level >= 1 && run.reuse.ok() && run.batched.ok() &&
        run.batched_result.eval_seconds * 2.0 > run.reuse_result.eval_seconds)
      speedup_gate_ok = false;
    runs.push_back(std::move(run));
  }

  // --- kernel-tier gate: forced scalar vs runtime-dispatched -------------
  // Same interleaved best-of-rounds discipline as the path comparison, on
  // the level-1 batched configuration (the production path). Results must
  // be bit-identical -- the tiers' entire contract -- and on AVX2+ hosts
  // the dispatched tier must deliver >= 1.5x eval throughput.
  const tsr::KernelTier detected = tsr::detected_kernel_tier();
  const std::size_t tier_level = 1;
  core::ApproxResult scalar_result, dispatched_result;
  bench::RunOutcome scalar_run, dispatched_run;
  {
    const core::ApproxOptions tier_opts = make_opts(tier_level, 1, batch_terms);
    auto run_tier = [&](tsr::KernelTier tier, core::ApproxResult& result, bool first) {
      const tsr::KernelTier prev = tsr::set_kernel_tier(tier);
      bench::RunOutcome out = bench::run_guarded_stats([&](tn::ContractStats& stats) {
        const bench::Deadline budget(bench::timeout_large());
        core::ApproxOptions opts = tier_opts;
        opts.control = &budget;
        core::ApproxResult attempt = core::approximate_fidelity(nc, 0, 0, opts);
        if (first || attempt.eval_seconds < result.eval_seconds) result = std::move(attempt);
        stats = result.contract_stats;
        return result.value;
      });
      tsr::set_kernel_tier(prev);
      return out;
    };
    for (int round = 0; round < 4; ++round) {
      scalar_run = run_tier(tsr::KernelTier::Scalar, scalar_result, round == 0);
      dispatched_run = run_tier(detected, dispatched_result, round == 0);
      if (!scalar_run.ok() || !dispatched_run.ok()) break;
    }
  }
  const bool tier_identical = !scalar_run.ok() || !dispatched_run.ok() ||
                              same_bits(scalar_result, dispatched_result);
  all_identical = all_identical && tier_identical;
  const double tier_speedup = dispatched_result.eval_seconds > 0.0
                                  ? scalar_result.eval_seconds / dispatched_result.eval_seconds
                                  : 0.0;
  // MO/TO boxes skip the gate (they already failed the workload, and the
  // table rows say so); scalar-only hosts compare a table against itself.
  const bool tier_gate_ok = !scalar_run.ok() || !dispatched_run.ok() ||
                            detected == tsr::KernelTier::Scalar || tier_speedup >= 1.5;

  bench::Table table({"level", "terms", "replan(s)", "reuse eval(s)", "batched eval(s)",
                      "eval reuse/replan", "eval batched/reuse", "bit-identical"});
  for (const LevelRun& r : runs) {
    const double s_reuse = r.reuse_result.eval_seconds > 0.0
                               ? r.replan_result.eval_seconds / r.reuse_result.eval_seconds
                               : 0.0;
    const double s_batched = r.batched_result.eval_seconds > 0.0
                                 ? r.reuse_result.eval_seconds / r.batched_result.eval_seconds
                                 : 0.0;
    table.add_row({std::to_string(r.level), std::to_string(r.terms),
                   bench::fixed(r.replan.seconds, 3),
                   bench::fixed(r.reuse_result.eval_seconds, 3),
                   bench::fixed(r.batched_result.eval_seconds, 3), bench::fixed(s_reuse, 2),
                   bench::fixed(s_batched, 2),
                   r.bit_identical && r.threaded_identical ? "yes" : "NO"});
  }
  table.print(std::cout);

  bench::Table tier_table(
      {"kernel tier", "eval(s)", "speedup vs scalar", "bit-identical"});
  tier_table.add_row({"scalar (forced)",
                      scalar_run.ok() ? bench::fixed(scalar_result.eval_seconds, 3)
                                      : bench::format_time(scalar_run),
                      "1.00", "yes"});
  tier_table.add_row({std::string(tsr::kernel_tier_name(detected)) + " (dispatched)",
                      dispatched_run.ok() ? bench::fixed(dispatched_result.eval_seconds, 3)
                                          : bench::format_time(dispatched_run),
                      bench::fixed(tier_speedup, 2), tier_identical ? "yes" : "NO"});
  std::cout << "\n";
  tier_table.print(std::cout);
  std::cout << "\ncpu: " << bench::cpu_model() << " (" << hw << " hardware threads)\n"
            << "batch_terms: " << batch_terms << "\n"
            << "Expected shape: batched replay pays dispatch/permutations once per step and\n"
            << "runs shared-cone steps once per batch, so level >= 1 per-term throughput\n"
            << "must rise >= 2x over per-term replay while staying bit-identical.\n";

  // Baseline regression gate (CI): fail on > 20% batched per-term
  // throughput loss vs the committed BENCH_contract_plan.json. Absolute
  // wall times only compare like for like, so on a different CPU model
  // than the baseline's the comparison is reported but not enforced (the
  // ratio-based 2x gate above carries the cross-machine contract).
  bool baseline_ok = true;
  if (!baseline_path.empty()) {
    std::string baseline_cpu;
    {
      std::ifstream in(baseline_path);
      std::stringstream buf;
      buf << in.rdbuf();
      const std::string text = buf.str();
      const std::string tag = "\"cpu_model\": \"";
      const std::size_t at = text.find(tag);
      if (at != std::string::npos) {
        const std::size_t end = text.find('"', at + tag.size());
        if (end != std::string::npos) baseline_cpu = text.substr(at + tag.size(), end - at - tag.size());
      }
    }
    const bool same_machine = baseline_cpu == bench::cpu_model();
    if (!same_machine)
      std::cout << "baseline recorded on \"" << baseline_cpu
                << "\" (different CPU) -- regression check informational only\n";
    for (const LevelRun& r : runs) {
      double base_per_term = 0.0;
      if (!r.batched.ok() || r.level < 1 ||
          !baseline_field(baseline_path, r.level, "batched_per_term_seconds", &base_per_term) ||
          base_per_term <= 0.0)
        continue;
      const double cur = per_term_eval_seconds(r.batched_result, r.terms);
      const bool regressed = cur > base_per_term * 1.25;
      std::cout << "baseline level " << r.level << ": batched per-term " << bench::sci(cur)
                << "s vs committed " << bench::sci(base_per_term) << "s"
                << (regressed ? "  REGRESSION > 20%" : "  ok") << "\n";
      baseline_ok = baseline_ok && (!regressed || !same_machine);
    }
  }

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"contract_plan\",\n"
      << "  \"workload\": \"qaoa_" << n << " + " << noises
      << " realistic noises (Fig. 4 workload)\",\n"
      << "  \"qubits\": " << nc.num_qubits() << ",\n"
      << "  \"machine\": " << bench::machine_json() << ",\n"
      << "  \"batch_terms\": " << batch_terms << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const LevelRun& r = runs[i];
    const double s_reuse = r.reuse_result.eval_seconds > 0.0
                               ? r.replan_result.eval_seconds / r.reuse_result.eval_seconds
                               : 0.0;
    const double s_batched = r.batched_result.eval_seconds > 0.0
                                 ? r.reuse_result.eval_seconds / r.batched_result.eval_seconds
                                 : 0.0;
    out << "    {\"level\": " << r.level << ", \"terms\": " << r.terms
        << ", \"contractions\": " << r.contractions
        << ", \"replan_seconds\": " << r.replan.seconds
        << ", \"reuse_seconds\": " << r.reuse.seconds
        << ", \"batched_seconds\": " << r.batched.seconds
        << ",\n     \"reuse_plan_seconds\": " << r.reuse_result.plan_seconds
        << ", \"reuse_eval_seconds\": " << r.reuse_result.eval_seconds
        << ", \"batched_plan_seconds\": " << r.batched_result.plan_seconds
        << ", \"batched_eval_seconds\": " << r.batched_result.eval_seconds
        << ", \"batched_per_term_seconds\": " << per_term_eval_seconds(r.batched_result, r.terms)
        << ",\n     \"speedup_reuse_vs_replan\": " << s_reuse
        << ", \"speedup_batched_vs_reuse\": " << s_batched
        << ", \"value\": " << r.batched.value
        << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false")
        << ", \"threaded_identical\": " << (r.threaded_identical ? "true" : "false")
        << ",\n     \"replan_stats\": " << bench::stats_json(r.replan.contract_stats)
        << ",\n     \"reuse_stats\": " << bench::stats_json(r.reuse.contract_stats)
        << ",\n     \"batched_stats\": " << bench::stats_json(r.batched.contract_stats) << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"kernel_tiers\": {\"detected\": \"" << tsr::kernel_tier_name(detected)
      << "\", \"level\": " << tier_level
      << ", \"scalar_eval_seconds\": " << scalar_result.eval_seconds
      << ", \"dispatched_eval_seconds\": " << dispatched_result.eval_seconds
      << ",\n    \"speedup_dispatched_vs_scalar\": " << tier_speedup
      << ", \"bit_identical\": " << (tier_identical ? "true" : "false")
      << ",\n    \"scalar_stats\": " << bench::stats_json(scalar_run.contract_stats)
      << ",\n    \"dispatched_stats\": " << bench::stats_json(dispatched_run.contract_stats)
      << "}\n";
  out << "}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!all_identical)
    std::cout << "FAIL: batched / per-term results not bit-identical, or per-term replay off "
                 "the re-planning oracle\n";
  if (!speedup_gate_ok)
    std::cout << "FAIL: batched replay below the 2x per-term eval-throughput gate at level >= 1\n";
  if (!tier_gate_ok)
    std::cout << "FAIL: dispatched kernel tier below the 1.5x eval-throughput gate vs scalar\n";
  if (!baseline_ok) std::cout << "FAIL: batched per-term throughput regressed > 20%\n";
  return all_identical && speedup_gate_ok && tier_gate_ok && baseline_ok ? 0 : 1;
}
