// Backend-selection coverage: SimulateOptions validation (each bad field
// named in the thrown message), known-best picks on seeded circuits (tiny
// circuits go exact, low-noise wide circuits take the Algorithm-1 level
// ladder, high-noise loose budgets go to a sampler), budget adherence
// against the exact density-matrix reference, and the bit-identity contract
// (simulate()'s value equals direct invocation of the chosen backend with
// the reported config).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "bench_support/generators.hpp"
#include "channels/catalog.hpp"
#include "core/atpg.hpp"
#include "core/backend.hpp"
#include "core/plan_cache.hpp"
#include "core/trajectories_tn.hpp"
#include "sim/density.hpp"
#include "sim/trajectories.hpp"
#include "tdd/tdd_sim.hpp"

namespace noisim::core {
namespace {

// Thrown message must name the offending field.
void expect_throw_naming(const SimulateOptions& opts, const std::string& field) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(4, 1, 5), 1, bench::depolarizing_noise(0.01), 7);
  try {
    simulate(nc, 0, 0, opts);
    FAIL() << "expected LinalgError naming " << field;
  } catch (const LinalgError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(SimulateOptionsValidation, BadBudgetsThrowNamingTheField) {
  SimulateOptions opts;
  opts.error_budget = 0.0;
  expect_throw_naming(opts, "error_budget");
  opts.error_budget = -1e-3;
  expect_throw_naming(opts, "error_budget");
  opts.error_budget = std::numeric_limits<double>::quiet_NaN();
  expect_throw_naming(opts, "error_budget");

  opts = SimulateOptions{};
  opts.memory_budget = 0;
  expect_throw_naming(opts, "memory_budget");

  opts = SimulateOptions{};
  opts.deadline = -1.0;
  expect_throw_naming(opts, "deadline");
  opts.deadline = std::numeric_limits<double>::infinity();
  expect_throw_naming(opts, "deadline");

  opts = SimulateOptions{};
  opts.failure_prob = 0.0;
  expect_throw_naming(opts, "failure_prob");
  opts.failure_prob = 1.0;
  expect_throw_naming(opts, "failure_prob");
  opts.failure_prob = 1.5;
  expect_throw_naming(opts, "failure_prob");
  opts.failure_prob = 2.0;
  expect_throw_naming(opts, "failure_prob");

  opts = SimulateOptions{};
  opts.max_terms = 0.0;
  expect_throw_naming(opts, "max_terms");
}

TEST(BackendSelection, TinyCircuitPicksAnExactBackend) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::hf_vqe(6, 11), 2, bench::depolarizing_noise(0.05), 13);
  SimulateOptions opts;
  opts.error_budget = 1e-9;  // only provably-exact configs can bid
  const SimResult r = simulate(nc, 0, 0, opts);
  EXPECT_EQ(r.config.achievable_error, 0.0);
  EXPECT_EQ(r.error_bound, 0.0);
  EXPECT_EQ(r.config.samples, 0u);
  EXPECT_NEAR(r.value, sim::exact_fidelity_mm(nc, 0, 0), 1e-9);
  EXPECT_EQ(r.considered.size(), default_backends().size());
  EXPECT_EQ(default_backends().size(), 4u);  // density, tn-approx, both samplers
}

TEST(BackendSelection, LowNoiseWideCircuitTakesTheLevelLadder) {
  // 16 qubits is past the density-matrix cap; 3 weak depolarizing sites
  // keep the level-ladder bound far below what any affordable sampler
  // offers at this budget.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 601);
  SimulateOptions loose;
  loose.error_budget = 2e-2;
  const SimResult rl = simulate(nc, 0, 0, loose);
  EXPECT_EQ(rl.backend, BackendKind::TnApprox);
  EXPECT_LE(rl.error_bound, loose.error_budget);

  SimulateOptions tight = loose;
  tight.error_budget = 1e-5;
  const SimResult rt = simulate(nc, 0, 0, tight);
  EXPECT_EQ(rt.backend, BackendKind::TnApprox);
  EXPECT_LE(rt.error_bound, tight.error_budget);
  // Tightening the budget climbs the ladder.
  EXPECT_GT(rt.config.level, rl.config.level);
}

TEST(BackendSelection, HighNoiseLooseBudgetGoesToASampler) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::hf_vqe(13, 21), 10, bench::depolarizing_noise(0.1), 23);
  SimulateOptions opts;
  opts.error_budget = 5e-2;
  const SimResult r = simulate(nc, 0, 0, opts);
  EXPECT_GT(r.config.samples, 0u) << "picked " << backend_name(r.backend);
  EXPECT_LE(r.config.achievable_error, opts.error_budget);
  EXPECT_EQ(r.traj.samples, r.config.samples);
}

TEST(BackendSelection, SvSamplerBidPaysTheCleanEvolutionOncePerCall) {
  // Mixture-only noise: the call evolves the noise-free trajectory once,
  // whatever its worker count, so only the state memory scales with it.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::hf_vqe(8, 21), 6, bench::depolarizing_noise(1e-3), 23);
  const Backend* sv = nullptr;
  for (const Backend* b : default_backends())
    if (b->kind() == BackendKind::SvTrajectories) sv = b;
  ASSERT_NE(sv, nullptr);
  SimulateOptions opts;
  opts.error_budget = 5e-2;
  opts.threads = 1;
  const CostEstimate one = sv->estimate(nc, 0, 0, opts);
  opts.threads = 4;
  const CostEstimate four = sv->estimate(nc, 0, 0, opts);
  const sim::TrajectoryCost cost = sim::sv_trajectory_cost(nc);
  ASSERT_GT(cost.per_call_flops, 0.0);
  EXPECT_EQ(one.flops, cost.per_sample_flops * static_cast<double>(one.samples) +
                           cost.per_call_flops);
  EXPECT_EQ(four.flops, one.flops);
  EXPECT_EQ(four.peak_elems, 4 * one.peak_elems);
}

TEST(BackendSelection, RuledOutBidsNameTheirReason) {
  auto density_bid = [](const SimResult& r) {
    for (const BackendChoice& c : r.considered)
      if (c.kind == BackendKind::Density) return c.estimate;
    ADD_FAILURE() << "no density bid";
    return CostEstimate{};
  };
  // A memory budget below the 2 * 4^6 density footprint: the bid names it.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::hf_vqe(6, 11), 2, bench::depolarizing_noise(0.05), 13);
  SimulateOptions squeezed;
  squeezed.error_budget = 5e-2;
  squeezed.memory_budget = 1000;
  const CostEstimate squeezed_bid = density_bid(simulate(nc, 0, 0, squeezed));
  EXPECT_FALSE(squeezed_bid.feasible);
  EXPECT_NE(squeezed_bid.reason.find("memory_budget"), std::string::npos) << squeezed_bid.reason;

  // Wider than the density cap: the bid names the qubit limit.
  const ch::NoisyCircuit wide =
      bench::insert_noises(bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 601);
  SimulateOptions opts;
  opts.error_budget = 2e-2;
  const CostEstimate wide_bid = density_bid(simulate(wide, 0, 0, opts));
  EXPECT_FALSE(wide_bid.feasible);
  EXPECT_NE(wide_bid.reason.find("density matrices cap at"), std::string::npos)
      << wide_bid.reason;
}

TEST(BackendSelection, NonMixtureNoiseRulesOutTnTrajectories) {
  ch::NoisyCircuit nc(bench::hf_vqe(8, 3));
  nc.add_noise(2, ch::amplitude_damping(0.25));
  SimulateOptions opts;
  opts.error_budget = 5e-2;
  const SimResult r = simulate(nc, 0, 0, opts);
  bool saw_tn_traj = false;
  for (const BackendChoice& c2 : r.considered) {
    if (c2.kind != BackendKind::TnTrajectories) continue;
    saw_tn_traj = true;
    EXPECT_FALSE(c2.estimate.feasible);
    EXPECT_NE(c2.estimate.reason.find("mixture"), std::string::npos) << c2.estimate.reason;
  }
  EXPECT_TRUE(saw_tn_traj);
  EXPECT_NE(r.backend, BackendKind::TnTrajectories);
}

// tn-trajectories bids on the crossover that routes tn-approx's layers: at
// 6 qubits Auto resolves to the state vector, where sv-trajectories samples
// the same mixture, so the bid is ruled out naming the crossover; forcing
// the tensor network makes it feasible.
TEST(BackendSelection, TnTrajectoriesBidsOnlyOnTheTensorNetworkPath) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::hf_vqe(6, 11), 2, bench::depolarizing_noise(0.05), 13);
  auto tn_trajectories_bid = [&](const SimulateOptions& opts) {
    const SimResult r = simulate(nc, 0, 0, opts);
    for (const BackendChoice& c : r.considered)
      if (c.kind == BackendKind::TnTrajectories) return c.estimate;
    ADD_FAILURE() << "no tn-trajectories bid";
    return CostEstimate{};
  };
  SimulateOptions opts;
  opts.error_budget = 5e-2;
  const CostEstimate auto_bid = tn_trajectories_bid(opts);
  EXPECT_FALSE(auto_bid.feasible);
  EXPECT_NE(auto_bid.reason.find("crossover"), std::string::npos) << auto_bid.reason;

  opts.eval.backend = EvalOptions::Backend::TensorNetwork;
  const CostEstimate tn_bid = tn_trajectories_bid(opts);
  EXPECT_TRUE(tn_bid.feasible) << tn_bid.reason;
}

// The bit-identity contract: simulate()'s value must equal invoking the
// chosen engine directly with the reported configuration.
double direct_invocation(const ch::NoisyCircuit& nc, std::uint64_t psi, std::uint64_t v,
                         const SimulateOptions& opts, const SimResult& r) {
  sim::ParallelOptions popts;
  popts.threads = opts.threads;
  switch (r.backend) {
    case BackendKind::Density:
      return sim::exact_fidelity_mm(nc, psi, v);
    case BackendKind::TnApprox:
      return approximate_fidelity(nc, psi, v, tn_approx_options(opts, r.config.level)).value;
    case BackendKind::TnTrajectories:
      return trajectories_tn(nc, psi, v, r.config.samples, kSimulateSeed, popts, opts.eval.tn)
          .mean;
    case BackendKind::SvTrajectories:
      return sim::trajectories_sv(nc, psi, v, r.config.samples, kSimulateSeed, popts).mean;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

TEST(BackendSelection, ResultIsBitIdenticalToDirectInvocation) {
  struct Case {
    ch::NoisyCircuit nc;
    double budget;
  };
  const std::vector<Case> cases = {
      {bench::insert_noises(bench::hf_vqe(6, 11), 2, bench::depolarizing_noise(0.05), 13),
       1e-9},
      {bench::insert_noises(bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 601),
       2e-2},
      {bench::insert_noises(bench::hf_vqe(13, 21), 10, bench::depolarizing_noise(0.1), 23),
       5e-2},
      {bench::insert_noises(bench::supremacy_inst(3, 3, 8, 5), 4,
                            bench::realistic_noise(7e-3), 19),
       2e-2},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SimulateOptions opts;
    opts.error_budget = cases[i].budget;
    const SimResult r = simulate(cases[i].nc, 0, 0, opts);
    const double direct = direct_invocation(cases[i].nc, 0, 0, opts, r);
    EXPECT_EQ(r.value, direct) << "case " << i << " backend " << backend_name(r.backend);
  }
}

TEST(BackendSelection, NeverExceedsErrorBudgetAgainstExactReference) {
  // All circuits small enough for the density reference; fixed seeds make
  // the sampler picks deterministic.
  const std::vector<ch::NoisyCircuit> circuits = {
      bench::insert_noises(bench::hf_vqe(6, 11), 2, bench::depolarizing_noise(0.05), 13),
      bench::insert_noises(bench::hf_vqe(8, 3), 4, bench::realistic_noise(1e-2), 29),
      bench::insert_noises(bench::supremacy_inst(3, 3, 8, 5), 4, bench::depolarizing_noise(0.02),
                           19),
  };
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    SimulateOptions opts;
    opts.error_budget = 2e-2;
    const SimResult r = simulate(circuits[i], 0, 0, opts);
    const double ref = sim::exact_fidelity_mm(circuits[i], 0, 0);
    EXPECT_LE(r.error_bound, opts.error_budget) << "circuit " << i;
    // Deterministic picks obey the bound outright; sampler picks hold at
    // the Hoeffding confidence, checked here for the fixed seeds above.
    EXPECT_LE(std::abs(r.value - ref), opts.error_budget + 1e-12)
        << "circuit " << i << " backend " << backend_name(r.backend);
  }
}

TEST(BackendSelection, EstimationPrewarmsThePlanCacheForTheRun) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 601);
  PlanCache cache;
  SimulateOptions opts;
  opts.error_budget = 2e-2;
  opts.plan_cache = &cache;
  const SimResult r = simulate(nc, 0, 0, opts);
  EXPECT_EQ(r.backend, BackendKind::TnApprox);
  // The run fetched the template estimation compiled, which serves both
  // layers (only the batched plan is still compiled at run time), so it
  // plans strictly less than a cold direct invocation.
  EXPECT_GT(cache.hits(), 0u);
  SimulateOptions uncached = opts;
  uncached.plan_cache = nullptr;
  const ApproxResult cold =
      approximate_fidelity(nc, 0, 0, tn_approx_options(uncached, r.config.level));
  EXPECT_LT(r.stats.plans_compiled, cold.contract_stats.plans_compiled);
  EXPECT_EQ(r.value, cold.value);
}

TEST(BackendSelection, DeadlineValuesShareOnePlanCacheEntry) {
  // The deadline is run-time state, never part of a plan-cache key: a
  // second call under a different deadline compiles nothing new.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 601);
  PlanCache cache;
  SimulateOptions opts;
  opts.error_budget = 2e-2;
  opts.plan_cache = &cache;
  opts.deadline = 5.0;
  const SimResult first = simulate(nc, 0, 0, opts);
  EXPECT_EQ(first.backend, BackendKind::TnApprox);
  const std::size_t misses = cache.misses();
  const std::size_t entries = cache.size();
  opts.deadline = 6.0;
  const SimResult second = simulate(nc, 0, 0, opts);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.size(), entries);
  EXPECT_EQ(second.value, first.value);
}

TEST(BackendSelection, CallDeadlineKeepsTheCallersMemoryCeiling) {
  // With a deadline the engines poll a call-scoped child control; the
  // caller's ceiling must still reach every arena check through it.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 601);
  RunControl caller;
  caller.set_memory_ceiling_elems(1);
  SimulateOptions opts;
  opts.error_budget = 2e-2;
  opts.deadline = 60.0;
  opts.control = &caller;
  // The tn-approx pick escalates on the ceiling, as does every other
  // contraction; the state-vector sampler, which commits no contraction
  // arena, serves the call.
  const SimResult r = simulate(nc, 0, 0, opts);
  ASSERT_FALSE(r.escalations.empty());
  EXPECT_EQ(r.escalations[0].first, BackendKind::TnApprox);
  for (const auto& [kind, err] : r.escalations)
    EXPECT_NE(err.find("memory ceiling"), std::string::npos) << backend_name(kind) << ": " << err;
  EXPECT_EQ(r.backend, BackendKind::SvTrajectories);
}

TEST(BackendSelection, MemoryBudgetIsTheCeilingOfEveryArenaTheRunCommits) {
  // qaoa_64 + 8 realistic noises (seed 2024): the tn-approx level-1 run
  // commits the environment arena (12,272 elements), larger than the
  // per-term plan arena (11,880). The bid prices the largest arena its run
  // commits, so a budget between the two rules tn-approx out at bid time
  // with a reason naming the arena, and nothing escalates. No other bid is
  // feasible here, so the call fails listing that reason. (The run-time
  // ceiling itself is covered in test_run_control.)
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(64, 1, 77), 8, bench::realistic_noise(), 2024);
  SimulateOptions opts;
  opts.error_budget = 1e-2;
  opts.threads = 1;
  const SimResult roomy = simulate(nc, 0, 0, opts);
  ASSERT_EQ(roomy.backend, BackendKind::TnApprox);
  ASSERT_EQ(roomy.config.level, 1u);
  ASSERT_TRUE(roomy.escalations.empty());
  EXPECT_EQ(roomy.config.peak_elems, 12272u);
  // The bid compiled the environment schedule it priced; the run fetched
  // it and the template from the call's cache and compiled nothing.
  EXPECT_EQ(roomy.stats.plans_compiled, 0u);
  EXPECT_EQ(roomy.stats.plan_cache_hits, 2u);
  opts.memory_budget = 12076;
  const Backend* tn_approx = nullptr;
  for (const Backend* b : default_backends())
    if (b->kind() == BackendKind::TnApprox) tn_approx = b;
  ASSERT_NE(tn_approx, nullptr);
  const CostEstimate bid = tn_approx->estimate(nc, 0, 0, opts);
  EXPECT_FALSE(bid.feasible);
  const std::string reason = "modeled peak 12272 elems exceeds memory_budget 12076";
  EXPECT_EQ(bid.reason, reason);
  try {
    simulate(nc, 0, 0, opts);
    FAIL() << "expected every bid to be ruled out";
  } catch (const LinalgError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tn-approx: " + reason), std::string::npos) << what;
    EXPECT_EQ(what.find("escalated"), std::string::npos) << what;
  }
}

TEST(BackendSelection, ImpossibleBudgetsThrowListingEveryBackend) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::hf_vqe(6, 11), 2, bench::depolarizing_noise(0.05), 13);
  SimulateOptions opts;
  opts.memory_budget = 1;  // nothing fits in one complex element
  try {
    simulate(nc, 0, 0, opts);
    FAIL() << "expected LinalgError";
  } catch (const LinalgError& e) {
    const std::string what = e.what();
    for (const Backend* b : default_backends())
      EXPECT_NE(what.find(backend_name(b->kind())), std::string::npos) << what;
  }
}

TEST(BackendSelection, Fig4CircuitTakesLevelOneOfTheLadder) {
  // The committed Fig. 4 circuit (qaoa_64 + 8 realistic noises): past the
  // density cap, so the pick is the level ladder. The winner, its level
  // and every value bit are pinned.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(64, 1, 77), 8, bench::realistic_noise(), 508);
  SimulateOptions opts;
  opts.error_budget = 1e-2;
  opts.threads = 1;
  const SimResult r = simulate(nc, 0, 0, opts);
  EXPECT_EQ(r.backend, BackendKind::TnApprox);
  EXPECT_EQ(r.config.level, 1u);
  EXPECT_EQ(r.value, 0x1.de7bc4ba59626p-63);
  EXPECT_EQ(r.error_bound, 0x1.44f5e07a4c8p-10);
}

TEST(BackendSelection, Fig4RunSkipsTheRestartsAndReusesTheBidsTemplate) {
  // A level-1 Fig. 4 call replays its plan twice (one environment pass: a
  // forward and a backward), which cannot repay the RandomGreedy restarts:
  // the bid compiles the one template without them and the run fetches it.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(64, 1, 77), 8, bench::realistic_noise(), 508);
  PlanCache cache;
  SimulateOptions opts;
  opts.error_budget = 1e-2;
  opts.threads = 1;
  opts.plan_cache = &cache;
  const SimResult r = simulate(nc, 0, 0, opts);
  ASSERT_EQ(r.backend, BackendKind::TnApprox);
  ASSERT_EQ(r.config.level, 1u);
  const std::size_t rg = static_cast<std::size_t>(tn::OrderStrategy::RandomGreedy);
  EXPECT_EQ(r.stats.strategy_flops[rg], 0u);
  EXPECT_EQ(cache.size(), 1u);  // one template, compiled by the bid
  EXPECT_GT(r.stats.plan_cache_hits, 0u);

  // The same options without a cache compile that template themselves:
  // the greedy ladder ran, the restarts did not.
  SimulateOptions uncached = opts;
  uncached.plan_cache = nullptr;
  const ApproxResult direct = approximate_fidelity(nc, 0, 0, tn_approx_options(uncached, 1));
  EXPECT_GT(direct.contract_stats.strategy_flops[static_cast<std::size_t>(
                tn::OrderStrategy::Greedy)],
            0u);
  EXPECT_EQ(direct.contract_stats.strategy_flops[rg], 0u);
  EXPECT_EQ(direct.value, r.value);
}

TEST(BackendSelection, OnePassAndFullSearchTemplatesKeyApart) {
  // Level <= 1 prices the Auto search against 2 replays, level >= 2 keeps
  // the full search; the two plan classes never share a cache entry. A
  // pinned strategy is the caller's choice and is never priced.
  SimulateOptions opts;
  const tn::ContractOptions one_pass = tn_approx_options(opts, 1).eval.tn;
  const tn::ContractOptions full = tn_approx_options(opts, 2).eval.tn;
  EXPECT_EQ(tn_approx_options(opts, 0).eval.tn.replays, 2u);
  EXPECT_EQ(one_pass.replays, 2u);
  EXPECT_EQ(full.replays, 0u);
  const qc::Circuit c = bench::qaoa(16, 1, 77);
  EXPECT_NE(PlanCache::template_key(16, c.gates(), 0, 0, one_pass),
            PlanCache::template_key(16, c.gates(), 0, 0, full));
  opts.eval.tn.strategy = tn::OrderStrategy::Greedy;
  EXPECT_EQ(tn_approx_options(opts, 1).eval.tn.replays, 0u);
}

TEST(BackendSelection, TnTrajectoriesBidPricesTheSamplersFullSearchPlan) {
  // The sampler compiles under the caller's eval.tn (the full Auto search),
  // not the adapter's one-pass options, so its bid prices that template.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(64, 1, 77), 8, bench::depolarizing_noise(0.05), 508);
  SimulateOptions opts;
  opts.error_budget = 5e-2;
  const Backend* tn_traj = nullptr;
  for (const Backend* b : default_backends())
    if (b->kind() == BackendKind::TnTrajectories) tn_traj = b;
  ASSERT_NE(tn_traj, nullptr);
  const CostEstimate bid = tn_traj->estimate(nc, 0, 0, opts);
  ASSERT_TRUE(bid.feasible) << bid.reason;
  ApproxOptions full;
  full.eval = opts.eval;
  const double per_sample_flops = approx_cost_model(nc, 0, full).layer_flops;
  EXPECT_EQ(bid.flops, per_sample_flops * static_cast<double>(bid.samples));
  // The one-pass template differs here, so the check tells the two apart.
  EXPECT_NE(approx_cost_model(nc, 0, tn_approx_options(opts, 0)).layer_flops, per_sample_flops);
}

TEST(BackendSelection, SmallExactRegimeGoesToDensity) {
  // Small circuits at a tight budget: the ladder needs level 2, which bids
  // above the exact density engine. The value is exact_fidelity_mm's bit
  // for bit, and the TDD contraction of the doubled diagram agrees as an
  // independent exact oracle.
  const std::vector<ch::NoisyCircuit> circuits = {
      bench::insert_noises(bench::hf_vqe(4, 11), 6, bench::depolarizing_noise(1e-2), 13),
      bench::insert_noises(bench::qaoa_grid(2, 3, 1, 7), 6, bench::realistic_noise(1e-2), 13),
  };
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    SimulateOptions opts;
    opts.error_budget = 1e-3;
    const SimResult r = simulate(circuits[i], 0, 0, opts);
    EXPECT_EQ(r.backend, BackendKind::Density) << "circuit " << i << " picked "
                                               << backend_name(r.backend);
    EXPECT_EQ(r.value, sim::exact_fidelity_mm(circuits[i], 0, 0)) << "circuit " << i;
    EXPECT_LE(std::abs(r.value - tdd::exact_fidelity_tdd(circuits[i], 0, 0)), 1e-12)
        << "circuit " << i;
  }
}

TEST(Atpg, SimulateOverloadsMatchTheApproxPathSemantics) {
  qc::Circuit c = bench::hf_vqe(8, 5);
  ch::NoisyCircuit nc(c.num_qubits());
  int placed = 0;
  for (const qc::Gate& g : c.gates()) {
    nc.add_gate(g);
    if (++placed == 20) nc.add_noise(1, ch::amplitude_damping(0.25));
  }
  SimulateOptions opts;
  opts.error_budget = 2e-2;
  const double p = fault_detection_probability(nc, 0b10110010, opts);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);

  const std::vector<std::uint64_t> candidates = {0b00000000, 0b10110010, 0b11111111,
                                                 0b01010101};
  const TestPatternResult best = best_test_pattern(nc, candidates, opts);
  EXPECT_EQ(best.all.size(), candidates.size());
  double max_p = 0.0;
  for (const double x : best.all) max_p = std::max(max_p, x);
  EXPECT_EQ(best.detection_probability, max_p);
  EXPECT_THROW(best_test_pattern(nc, {}, opts), LinalgError);
}

}  // namespace
}  // namespace noisim::core
