#include "core/backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "core/plan_cache.hpp"
#include "core/trajectories_tn.hpp"
#include "fault/fault.hpp"
#include "sim/density.hpp"
#include "sim/trajectories.hpp"

namespace noisim::core {

namespace {

// Deadline checks convert modeled flops to modeled seconds with one
// deliberately conservative throughput constant: selection only needs the
// RELATIVE ordering of backends (all estimates share the scale), and a low
// constant rejects configurations near the wire instead of discovering the
// timeout mid-run.
constexpr double kModelFlopsPerSecond = 2e8;

// Highest Algorithm-1 level the TnApprox ladder searches.
constexpr std::size_t kMaxLevel = 8;
// Sample-count cap of the trajectory backends; a budget needing more
// samples than this marks them infeasible.
constexpr std::size_t kMaxSamples = std::size_t{1} << 24;
// Forward-pass equivalents a level <= 1 sweep replays its plan for: one
// layer x one environment pass (a forward plus a backward) per output.
constexpr std::size_t kOnePassReplays = 2;

std::string format_double(double x) {
  std::ostringstream os;
  os.precision(3);
  os << x;
  return os.str();
}

// Shared memory/deadline gate: marks the estimate feasible, or infeasible
// with the violated budget named. Call after flops/peak_elems are filled.
void check_budgets(CostEstimate& est, const SimulateOptions& opts) {
  if (est.peak_elems > opts.memory_budget) {
    est.feasible = false;
    est.reason = "modeled peak " + std::to_string(est.peak_elems) +
                 " elems exceeds memory_budget " + std::to_string(opts.memory_budget);
    return;
  }
  if (opts.deadline > 0.0 && est.flops / kModelFlopsPerSecond > opts.deadline) {
    est.feasible = false;
    est.reason = "modeled time " + format_double(est.flops / kModelFlopsPerSecond) +
                 "s exceeds deadline " + format_double(opts.deadline) + "s";
    return;
  }
  est.feasible = true;
  est.reason.clear();
}

// Shared sampler sizing: Hoeffding sample count for the error budget,
// capped by kMaxSamples, times the engine's per-sample cost model, plus its
// once-per-call cost. Peak memory scales with the worker count (each worker
// owns its state).
CostEstimate sampler_estimate(const sim::TrajectoryCost& cost, const SimulateOptions& opts) {
  CostEstimate est;
  const std::size_t needed = sim::hoeffding_samples(opts.error_budget, opts.failure_prob);
  if (needed > kMaxSamples) {
    est.reason = "needs " + std::to_string(needed) + " samples, above the sampler cap " +
                 std::to_string(kMaxSamples);
    return est;
  }
  est.samples = needed;
  est.achievable_error = sim::hoeffding_accuracy(needed, opts.failure_prob);
  const std::size_t workers =
      std::max<std::size_t>(std::min<std::size_t>(sim::resolve_threads(opts.threads), needed), 1);
  est.flops = cost.per_sample_flops * static_cast<double>(needed) + cost.per_call_flops;
  est.peak_elems = cost.peak_elems * workers;
  check_budgets(est, opts);
  return est;
}

sim::ParallelOptions parallel_options(const SimulateOptions& opts) {
  sim::ParallelOptions popts;
  popts.threads = opts.threads;
  popts.control = opts.control;
  return popts;
}

class DensityBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::Density; }

  CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t, std::uint64_t,
                        const SimulateOptions& opts) const override {
    CostEstimate est;
    const int n = nc.num_qubits();
    if (n > sim::kDensityMaxQubits) {
      est.reason = "circuit has " + std::to_string(n) + " qubits, density matrices cap at " +
                   std::to_string(sim::kDensityMaxQubits);
      return est;
    }
    est.flops = sim::density_evolution_flops(nc);
    // rho plus the local-update scratch buffer, each 4^n elements.
    est.peak_elems = std::size_t{2} << (2 * n);
    check_budgets(est, opts);
    return est;
  }

  void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
           const SimulateOptions&, const CostEstimate&, SimResult& out) const override {
    out.value = sim::exact_fidelity_mm(nc, psi_bits, v_bits);
    out.error_bound = 0.0;
  }
};

class TnApproxBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::TnApprox; }

  CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                        std::uint64_t, const SimulateOptions& opts) const override {
    CostEstimate est;
    // Walk the level ladder to the cheapest (lowest) level meeting the
    // error budget; cost grows combinatorially with the level, so the
    // first hit is the best bid. Bounds and term counts do not depend on
    // the plan, so the level is picked first and only the plans its run
    // replays are compiled (tn_approx_options prices the order search
    // against replays at level <= 1 only). The bid's peak is the largest
    // arena that run commits, which its memory ceiling meets.
    const ApproxCostModel bounds = approx_bound_model(nc);
    const std::size_t top = std::min(kMaxLevel, bounds.num_sites);
    double best_bound = std::numeric_limits<double>::infinity();
    for (std::size_t level = 0; level <= top; ++level) {
      if (bounds.term_count(level) > opts.max_terms) {
        est.reason = "level " + std::to_string(level) + " needs " +
                     format_double(bounds.term_count(level)) +
                     " terms, above max_terms (best bound " + format_double(best_bound) + ")";
        return est;
      }
      const double bound = bounds.error_bound(level);
      best_bound = std::min(best_bound, bound);
      if (bound > opts.error_budget) continue;
      const ApproxCostModel model = approx_run_model(nc, psi_bits, tn_approx_options(opts, level));
      est.level = level;
      est.achievable_error = bound;
      est.peak_elems = model.run_peak_elems;
      est.flops = model.sweep_flops(level);
      check_budgets(est, opts);
      return est;
    }
    est.reason = "error bound " + format_double(best_bound) + " at level " +
                 std::to_string(top) + " still above error_budget " +
                 format_double(opts.error_budget);
    return est;
  }

  void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
           const SimulateOptions& opts, const CostEstimate& config,
           SimResult& out) const override {
    const ApproxResult r =
        approximate_fidelity(nc, psi_bits, v_bits, tn_approx_options(opts, config.level));
    out.value = r.value;
    out.error_bound = r.tight_error_bound;
    out.stats = r.contract_stats;
  }
};

class TnTrajectoriesBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::TnTrajectories; }

  CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t psi_bits,
                        std::uint64_t, const SimulateOptions& opts) const override {
    CostEstimate est;
    if (!trajectories_tn_eligible(nc)) {
      est.reason = "a channel is not a normalized mixture of unitaries";
      return est;
    }
    // The tensor-network crossover that routes TnApprox's layers: below it
    // (or with eval.backend = StateVector) the sv-trajectories bid covers
    // the same samples on the state vector.
    const int n = nc.num_qubits();
    if (!uses_tensor_network(opts.eval, n)) {
      est.reason = "eval resolves to the state vector at " + std::to_string(n) +
                   " qubits, below the tensor-network crossover (Auto contracts past " +
                   std::to_string(kSvMaxQubits) + ")";
      return est;
    }
    if (opts.eval.simplify) {
      est.reason = "eval.simplify is not applied by the trajectories skeleton";
      return est;
    }
    // Each trajectory is ONE single-layer amplitude evaluation of the same
    // topology Algorithm 1 contracts, so the cost model's layer figures
    // apply verbatim. The trajectory run compiles its own template under
    // the caller's eval.tn and never reads the plan cache, so the bid
    // prices a plan of those options (not the adapter's one-pass search).
    ApproxOptions model_opts = tn_approx_options(opts, 0);
    model_opts.eval.tn = opts.eval.tn;
    const ApproxCostModel model = approx_cost_model(nc, psi_bits, model_opts);
    sim::TrajectoryCost cost;
    cost.per_sample_flops = model.layer_flops;
    cost.peak_elems = model.peak_elems;
    return sampler_estimate(cost, opts);
  }

  void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
           const SimulateOptions& opts, const CostEstimate& config,
           SimResult& out) const override {
    out.traj = trajectories_tn(nc, psi_bits, v_bits, config.samples, kSimulateSeed,
                               parallel_options(opts), opts.eval.tn);
    out.value = out.traj.mean;
    out.error_bound = config.achievable_error;
  }
};

class SvTrajectoriesBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::SvTrajectories; }

  CostEstimate estimate(const ch::NoisyCircuit& nc, std::uint64_t, std::uint64_t,
                        const SimulateOptions& opts) const override {
    return sampler_estimate(sim::sv_trajectory_cost(nc), opts);
  }

  void run(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
           const SimulateOptions& opts, const CostEstimate& config,
           SimResult& out) const override {
    out.traj = sim::trajectories_sv(nc, psi_bits, v_bits, config.samples, kSimulateSeed,
                                    parallel_options(opts));
    out.value = out.traj.mean;
    out.error_bound = config.achievable_error;
  }
};

}  // namespace

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::Density: return "density";
    case BackendKind::TnApprox: return "tn-approx";
    case BackendKind::TnTrajectories: return "tn-trajectories";
    case BackendKind::SvTrajectories: return "sv-trajectories";
  }
  return "unknown";
}

const std::vector<const Backend*>& default_backends() {
  static const DensityBackend density;
  static const TnApproxBackend tn_approx;
  static const TnTrajectoriesBackend tn_trajectories;
  static const SvTrajectoriesBackend sv_trajectories;
  static const std::vector<const Backend*> all{&density, &tn_approx, &tn_trajectories,
                                               &sv_trajectories};
  return all;
}

ApproxOptions tn_approx_options(const SimulateOptions& opts, std::size_t level) {
  ApproxOptions a;
  a.level = level;
  a.eval = opts.eval;
  // A level <= 1 sweep replays its plan a known few times; let Auto price
  // its order search against them unless the caller chose otherwise.
  if (level <= 1 && a.eval.tn.strategy == tn::OrderStrategy::Auto && a.eval.tn.replays == 0)
    a.eval.tn.replays = kOnePassReplays;
  a.threads = opts.threads;
  a.plan_cache = opts.plan_cache;
  a.control = opts.control;
  return a;
}

void validate_simulate_options(const SimulateOptions& opts) {
  la::detail::require(std::isfinite(opts.error_budget) && opts.error_budget > 0.0,
                      "simulate: error_budget must be positive and finite");
  la::detail::require(opts.memory_budget != 0, "simulate: memory_budget must be nonzero");
  la::detail::require(std::isfinite(opts.deadline) && opts.deadline >= 0.0,
                      "simulate: deadline must be finite and nonnegative");
  la::detail::require(opts.failure_prob > 0.0 && opts.failure_prob < 1.0,
                      "simulate: failure_prob must be in (0, 1)");
  la::detail::require(std::isfinite(opts.max_terms) && opts.max_terms >= 1.0,
                      "simulate: max_terms must be at least 1");
}

SimResult simulate(const ch::NoisyCircuit& nc, std::uint64_t psi_bits, std::uint64_t v_bits,
                   const SimulateOptions& opts) {
  validate_simulate_options(opts);
  require_basis_label(psi_bits, nc.num_qubits(), "simulate");
  require_basis_label(v_bits, nc.num_qubits(), "simulate");
  // A pre-cancelled or pre-expired control fails fast, before any backend
  // bids (estimation can compile plans, which is real work).
  if (opts.control) opts.control->poll();

  // A call-local plan cache keeps estimation's compiled templates alive for
  // the run even when the caller shares none; results are bit-identical
  // with or without one (the PlanCache contract), so this is free accuracy.
  SimulateOptions ropts = opts;
  PlanCache local_cache(8);
  if (!ropts.plan_cache) ropts.plan_cache = &local_cache;
  // One call-scoped control, chained to the caller's so its cancel and
  // ceiling still apply. The wall-clock budget is one deadline for the
  // whole call: every bid's estimation and every run, escalations
  // included, spend the same clock. memory_budget is its memory ceiling:
  // every arena a run commits meets the budget its bid was priced against.
  RunControl call_control(opts.control);
  call_control.set_memory_ceiling_elems(opts.memory_budget);
  if (opts.deadline > 0.0) call_control.set_deadline_after(opts.deadline);
  ropts.control = &call_control;

  const std::vector<const Backend*>& pool = default_backends();
  std::vector<BackendChoice> bids(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    bids[i].kind = pool[i]->kind();
    try {
      bids[i].estimate = pool[i]->estimate(nc, psi_bits, v_bits, ropts);
    } catch (const CancelledError&) {
      throw;  // a caller decision, never a reason to try another backend
    } catch (const std::exception& e) {
      // Plan-time MO/TO (or an engine precondition) rules the backend out;
      // selection proceeds with the others.
      bids[i].estimate = CostEstimate{};
      bids[i].estimate.reason = e.what();
    }
  }

  // Selection order: feasible bids by modeled flops (BackendKind order
  // breaking ties -- deterministic engines first), then the ruled-out bids
  // for the audit trail.
  std::vector<std::size_t> order(bids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const CostEstimate& ea = bids[a].estimate;
    const CostEstimate& eb = bids[b].estimate;
    if (ea.feasible != eb.feasible) return ea.feasible;
    if (!ea.feasible) return false;
    return ea.flops < eb.flops;
  });

  SimResult out;
  for (const std::size_t i : order) out.considered.push_back(bids[i]);

  for (const std::size_t i : order) {
    if (!bids[i].estimate.feasible) break;  // order is feasible-first
    try {
      // Injection site at the winner's entry (run-density, run-tn-approx, ...):
      // fires before the engine touches its state, so escalation recovers
      // through the next bid exactly as a real first-instruction failure
      // would. The enabled() guard keeps the disarmed path allocation-free.
      if (fault::enabled()) fault::poke(std::string("run-") + backend_name(bids[i].kind));
      pool[i]->run(nc, psi_bits, v_bits, ropts, bids[i].estimate, out);
      out.backend = bids[i].kind;
      out.config = bids[i].estimate;
      return out;
    } catch (const MemoryOutError& e) {
      out.escalations.emplace_back(bids[i].kind, e.what());
    } catch (const TimeoutError& e) {
      out.escalations.emplace_back(bids[i].kind, e.what());
    }
  }

  std::string msg = "simulate: no backend meets the budgets --";
  for (const BackendChoice& c : out.considered) {
    std::string why = c.estimate.reason;
    for (const auto& [kind, err] : out.escalations)
      if (kind == c.kind) why = "run escalated: " + err;
    if (why.empty()) why = "feasible but not reached";
    msg += std::string(" ") + backend_name(c.kind) + ": " + why + ";";
  }
  la::detail::fail(msg);
}

}  // namespace noisim::core
