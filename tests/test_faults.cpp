// Deterministic fault-injection coverage: NOISIM_FAULTS grammar, site
// firing semantics, run-* sites in lockstep with the backend registry, the
// simulate() escalation matrix (every feasible
// backend pair recovers bitwise-identical to direct invocation of the
// survivor), run-time (not plan-time) TimeoutError escalation for the
// TN-capable backends, sweep-queue and trajectory-runner worker throws
// (leak- and deadlock-free teardown, bitwise-clean reruns), and the
// EnvFaultDrill CI hook that tolerates any env-armed fault.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_support/generators.hpp"
#include "core/approx.hpp"
#include "core/backend.hpp"
#include "fault/fault.hpp"
#include "run_backend.hpp"
#include "sim/parallel.hpp"
#include "support/env.hpp"
#include "uneven_sampler.hpp"

namespace noisim::core {
namespace {

// Every fault armed in a test is disarmed on the way out, pass or fail, so
// cases stay independent (the fixture ends env-armed CI faults too -- the
// EnvFaultDrill below runs its faulted pass before this teardown).
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

struct EnvGuard {
  const char* name;
  std::string saved;
  bool had = false;
  explicit EnvGuard(const char* n) : name(n) {
    if (const char* v = support::env_get(n)) {
      saved = v;
      had = true;
    }
  }
  ~EnvGuard() {
    if (had)
      ::setenv(name, saved.c_str(), 1);
    else
      ::unsetenv(name);
  }
};

// Every backend bids feasible on this circuit at this budget (asserted in
// the matrix test), which is what lets the escalation ladder walk every
// pair.
ch::NoisyCircuit all_backends_circuit() {
  return bench::insert_noises(bench::hf_vqe(6, 11), 2, bench::depolarizing_noise(0.05), 13);
}

SimulateOptions all_backends_options() {
  SimulateOptions opts;
  opts.error_budget = 5e-2;
  // At 6 qubits Auto resolves to the state vector, which rules out the
  // tn-trajectories bid and never replays a contraction plan; the tensor
  // network keeps every backend bidding and puts the plan-compile and
  // exec-step fault sites on the TN winners' paths.
  opts.eval.backend = EvalOptions::Backend::TensorNetwork;
  return opts;
}

// TnTrajectories wins this one (TN layer replay is ~4 orders cheaper than
// the 2^16 state-vector sweep), with SvTrajectories as the only other
// feasible bid: density is past its qubit cap and TnApprox past max_terms.
ch::NoisyCircuit tn_traj_circuit() {
  return bench::insert_noises(bench::qaoa(16, 1, 77), 6, bench::depolarizing_noise(0.1), 31);
}

SimulateOptions tn_traj_options() {
  SimulateOptions opts;
  opts.error_budget = 0.15;
  opts.max_terms = 10.0;
  opts.threads = 2;
  return opts;
}

// --- arming & grammar ----------------------------------------------------

TEST_F(FaultTest, ArmValidatesSiteAndNth) {
  try {
    fault::arm("no-such-site", 1);
    FAIL() << "expected LinalgError";
  } catch (const LinalgError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-site"), std::string::npos) << what;
    // The message lists the valid sites.
    EXPECT_NE(what.find("exec-step-mo"), std::string::npos) << what;
  }
  EXPECT_THROW(fault::arm("sweep-worker", 0), LinalgError);
}

TEST_F(FaultTest, SitesFireOnTheNthPokeExactlyOnce) {
  fault::arm("sweep-worker", 2);
  EXPECT_FALSE(fault::fired("sweep-worker"));
  EXPECT_NO_THROW(fault::poke("sweep-worker"));
  EXPECT_EQ(fault::hits("sweep-worker"), 1u);
  EXPECT_THROW(fault::poke("sweep-worker"), fault::FaultError);
  EXPECT_TRUE(fault::fired("sweep-worker"));
  // Dormant after firing: further pokes count but never throw again.
  EXPECT_NO_THROW(fault::poke("sweep-worker"));
  EXPECT_EQ(fault::hits("sweep-worker"), 3u);

  // Site-specific error types.
  fault::arm("exec-step-mo", 1);
  EXPECT_THROW(fault::poke("exec-step-mo"), MemoryOutError);
  fault::arm("exec-step-to", 1);
  EXPECT_THROW(fault::poke("exec-step-to"), TimeoutError);
}

TEST_F(FaultTest, DisarmedPokesAreNoOps) {
  fault::disarm_all();
  EXPECT_FALSE(fault::enabled());
  for (const std::string_view site : fault::known_sites())
    EXPECT_NO_THROW(fault::poke(site));
  // Unknown site names poke as no-ops even while another site is armed.
  fault::arm("plan-mo", 1);
  EXPECT_NO_THROW(fault::poke("definitely-not-a-site"));
}

// The run-<backend> sites move in lockstep with simulate()'s registry:
// every run-* site names a backend in default_backends(), and every backend
// has its site. The escalation matrix only arms backend -> site; this also
// catches a site left behind by a retired backend.
TEST_F(FaultTest, RunSitesMatchTheBackendRegistry) {
  std::vector<std::string> backend_sites;
  for (const Backend* b : default_backends())
    backend_sites.push_back(std::string("run-") + backend_name(b->kind()));
  std::vector<std::string> run_sites;
  for (const std::string_view site : fault::known_sites())
    if (site.starts_with("run-")) run_sites.emplace_back(site);
  std::sort(backend_sites.begin(), backend_sites.end());
  std::sort(run_sites.begin(), run_sites.end());
  EXPECT_EQ(run_sites, backend_sites);
}

TEST_F(FaultTest, EnvGrammarErrorsNameTheVariable) {
  EnvGuard guard("NOISIM_FAULTS");
  for (const char* bad :
       {"exec-step-mo", "exec-step-mo:", ":3", "unknown-site:1", "exec-step-mo:0",
        "exec-step-mo:x", "plan-to:1,,"}) {
    ::setenv("NOISIM_FAULTS", bad, 1);
    try {
      fault::arm_from_env();
      FAIL() << "expected LinalgError for NOISIM_FAULTS=\"" << bad << "\"";
    } catch (const LinalgError& e) {
      EXPECT_NE(std::string(e.what()).find("NOISIM_FAULTS"), std::string::npos) << e.what();
    }
  }

  ::setenv("NOISIM_FAULTS", "exec-step-mo:2,plan-to:1", 1);
  fault::arm_from_env();
  EXPECT_TRUE(fault::enabled());
  EXPECT_NO_THROW(fault::poke("exec-step-mo"));  // hit 1 of 2
  EXPECT_THROW(fault::poke("exec-step-mo"), MemoryOutError);
  EXPECT_THROW(fault::poke("plan-to"), TimeoutError);

  // arm_from_env layers on top of whatever is armed (it only re-reads the
  // variable), so clear the sites above before checking the unset case.
  ::unsetenv("NOISIM_FAULTS");
  fault::disarm_all();
  fault::arm_from_env();
  EXPECT_FALSE(fault::enabled());
}

// --- simulate() escalation matrix ----------------------------------------

TEST_F(FaultTest, EscalationRecoversThroughEveryBackendPairBitIdentical) {
  const ch::NoisyCircuit nc = all_backends_circuit();
  const SimulateOptions opts = all_backends_options();
  const SimResult base = simulate(nc, 0, 0, opts);

  std::vector<BackendKind> feasible;
  for (const BackendChoice& c : base.considered)
    if (c.estimate.feasible) feasible.push_back(c.kind);
  ASSERT_EQ(feasible.size(), default_backends().size())
      << "the matrix workload must keep every backend feasible";

  for (std::size_t k = 1; k <= feasible.size(); ++k) {
    // Fail the first k winners at their run() entry.
    fault::disarm_all();
    for (std::size_t i = 0; i < k; ++i)
      fault::arm(std::string("run-") + backend_name(feasible[i]), 1);

    if (k == feasible.size()) {
      // Every backend down: the failure lists the injected escalations.
      try {
        simulate(nc, 0, 0, opts);
        FAIL() << "expected LinalgError when every backend is failed";
      } catch (const LinalgError& e) {
        EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos)
            << e.what();
      }
      break;
    }

    const SimResult r = simulate(nc, 0, 0, opts);
    EXPECT_EQ(r.backend, feasible[k]) << "k=" << k;
    ASSERT_EQ(r.escalations.size(), k) << "k=" << k;
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(r.escalations[i].first, feasible[i]);
      EXPECT_NE(r.escalations[i].second.find(std::string("run-") +
                                             backend_name(feasible[i])),
                std::string::npos)
          << r.escalations[i].second;
    }

    // Bit-identity with the survivor run on its own.
    fault::disarm_all();
    const SimResult direct = run_backend(feasible[k], nc, 0, 0, opts);
    EXPECT_EQ(r.value, direct.value) << "survivor " << backend_name(feasible[k]);
    EXPECT_EQ(r.error_bound, direct.error_bound);
    EXPECT_EQ(r.traj.samples, direct.traj.samples);
  }
}

// Satellite: run-time (not plan-time) TimeoutError. exec-step-to fires from
// inside ContractionPlan::execute / BatchedPlan::execute on the first
// executed step -- plans compiled clean, the timeout surfaces mid-replay --
// and simulate() must record the escalation and recover.
TEST_F(FaultTest, RunTimeTimeoutEscalatesTnApproxAndRecovers) {
  const ch::NoisyCircuit nc = all_backends_circuit();
  const SimulateOptions opts = all_backends_options();
  const SimResult base = simulate(nc, 0, 0, opts);
  ASSERT_EQ(base.backend, BackendKind::TnApprox) << "workload drifted";

  fault::arm("exec-step-to", 1);
  const SimResult r = simulate(nc, 0, 0, opts);
  EXPECT_TRUE(fault::fired("exec-step-to"));
  ASSERT_GE(r.escalations.size(), 1u);
  EXPECT_EQ(r.escalations[0].first, BackendKind::TnApprox);
  EXPECT_NE(r.escalations[0].second.find("exec-step-to"), std::string::npos)
      << r.escalations[0].second;

  fault::disarm_all();
  EXPECT_EQ(r.value, run_backend(r.backend, nc, 0, 0, opts).value);
}

TEST_F(FaultTest, RunTimeTimeoutEscalatesTnTrajectoriesAndRecovers) {
  const ch::NoisyCircuit nc = tn_traj_circuit();
  const SimulateOptions opts = tn_traj_options();
  const SimResult base = simulate(nc, 0, 0, opts);
  ASSERT_EQ(base.backend, BackendKind::TnTrajectories) << "workload drifted";

  fault::arm("exec-step-to", 1);
  const SimResult r = simulate(nc, 0, 0, opts);
  EXPECT_TRUE(fault::fired("exec-step-to"));
  EXPECT_EQ(r.backend, BackendKind::SvTrajectories);
  ASSERT_GE(r.escalations.size(), 1u);
  EXPECT_EQ(r.escalations[0].first, BackendKind::TnTrajectories);
  EXPECT_NE(r.escalations[0].second.find("exec-step-to"), std::string::npos)
      << r.escalations[0].second;

  fault::disarm_all();
  EXPECT_EQ(r.value, run_backend(BackendKind::SvTrajectories, nc, 0, 0, opts).value);
}

// Plan-time faults rule a backend out during ESTIMATION (the bid records
// the injected reason) and selection proceeds without it.
TEST_F(FaultTest, PlanTimeFaultRulesTheBidderOutDuringEstimation) {
  const ch::NoisyCircuit nc = all_backends_circuit();
  const SimulateOptions opts = all_backends_options();
  for (const char* site : {"plan-mo", "plan-to"}) {
    fault::disarm_all();
    fault::arm(site, 1);
    const SimResult r = simulate(nc, 0, 0, opts);
    EXPECT_TRUE(fault::fired(site)) << site;
    bool saw_injected_bid = false;
    for (const BackendChoice& c : r.considered)
      if (c.estimate.reason.find(site) != std::string::npos) saw_injected_bid = true;
    EXPECT_TRUE(saw_injected_bid) << site;
    EXPECT_TRUE(r.escalations.empty()) << site;  // ruled out, not escalated
  }
}

// The generic drill behind the CI matrix: for EVERY site, a simulate() call
// under an armed fault either recovers (escalation) or throws one of the
// documented error types -- never hangs, never corrupts state -- and a
// clean rerun is bitwise equal to the unfaulted baseline.
TEST_F(FaultTest, EverySiteEitherRecoversOrThrowsDocumentedAndRerunsClean) {
  const ch::NoisyCircuit nc = all_backends_circuit();
  const SimulateOptions opts = all_backends_options();
  fault::disarm_all();
  const SimResult base = simulate(nc, 0, 0, opts);

  for (const std::string_view site : fault::known_sites()) {
    for (const std::uint64_t nth : {std::uint64_t{1}, std::uint64_t{3}}) {
      fault::disarm_all();
      fault::arm(site, nth);
      try {
        simulate(nc, 0, 0, opts);
      } catch (const MemoryOutError&) {
      } catch (const TimeoutError&) {
      } catch (const fault::FaultError&) {
      } catch (const LinalgError&) {
      }
      fault::disarm_all();
      const SimResult clean = simulate(nc, 0, 0, opts);
      EXPECT_EQ(clean.value, base.value) << "after " << site << ":" << nth;
      EXPECT_EQ(clean.backend, base.backend) << "after " << site << ":" << nth;
    }
  }
}

// --- sweep queue under worker throw --------------------------------------

TEST_F(FaultTest, SweepWorkerThrowDrainsCleanAndRerunsBitIdentical) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 601);
  std::vector<std::uint64_t> outputs(16);
  for (std::size_t o = 0; o < outputs.size(); ++o) outputs[o] = o * 37 % 65536;
  SweepOptions sopts;
  sopts.approx.level = 1;
  sopts.approx.threads = 2;
  sopts.shard_outputs = 4;

  const ApproxBatchResult base = xeb_sweep(nc, 0, outputs, sopts);

  // First item and a mid-queue item: both must unwind without deadlock
  // (buffer-pool integrity is asserted inside the engine's teardown), and a
  // rerun on the SAME process state must be bitwise equal.
  for (const std::uint64_t nth : {std::uint64_t{1}, std::uint64_t{3}}) {
    fault::arm("sweep-worker", nth);
    EXPECT_THROW(xeb_sweep(nc, 0, outputs, sopts), fault::FaultError);
    EXPECT_TRUE(fault::fired("sweep-worker"));
    // The fired site is dormant now; no disarm needed for the rerun.
    const ApproxBatchResult rerun = xeb_sweep(nc, 0, outputs, sopts);
    EXPECT_FALSE(rerun.cancelled);
    ASSERT_EQ(rerun.values.size(), base.values.size());
    for (std::size_t o = 0; o < outputs.size(); ++o)
      EXPECT_EQ(rerun.values[o], base.values[o]) << "nth=" << nth << " output " << o;
    fault::disarm_all();
  }

  // approximate_fidelity is the one-output call of the same engine: with
  // batch_terms = 2 its 10 terms span 5 items over the 2 workers, so the
  // throw lands part-way through the output and must drain the same way.
  ApproxOptions single = sopts.approx;
  single.batch_terms = 2;
  const ApproxResult single_base = approximate_fidelity(nc, 0, outputs[1], single);
  for (const std::uint64_t nth : {std::uint64_t{1}, std::uint64_t{3}}) {
    fault::arm("sweep-worker", nth);
    EXPECT_THROW(approximate_fidelity(nc, 0, outputs[1], single), fault::FaultError);
    EXPECT_TRUE(fault::fired("sweep-worker"));
    const ApproxResult rerun = approximate_fidelity(nc, 0, outputs[1], single);
    EXPECT_EQ(rerun.raw, single_base.raw) << "nth=" << nth;
    EXPECT_EQ(rerun.level_values, single_base.level_values) << "nth=" << nth;
    fault::disarm_all();
  }
}

// Control errors (deadline, memory ceiling) firing inside a worker's plan
// executor go down the same abort path as generic worker throws; the sweep
// must surface the control error OBJECT that actually fired -- the queue
// stashes the explicit exception_ptr and finish() rethrows it -- never a
// generic "a worker stopped" failure, and a clean rerun stays bitwise
// equal.
TEST_F(FaultTest, SweepControlErrorTypeSurvivesTheAbortPath) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 601);
  std::vector<std::uint64_t> outputs(16);
  for (std::size_t o = 0; o < outputs.size(); ++o) outputs[o] = o * 37 % 65536;
  SweepOptions sopts;
  sopts.approx.level = 1;
  sopts.approx.threads = 2;
  sopts.shard_outputs = 4;

  const ApproxBatchResult base = xeb_sweep(nc, 0, outputs, sopts);

  struct Case {
    const char* site;
    void (*expect)(const ch::NoisyCircuit&, const std::vector<std::uint64_t>&,
                   const SweepOptions&);
  };
  const Case cases[] = {
      {"exec-step-to",
       [](const ch::NoisyCircuit& c, const std::vector<std::uint64_t>& out,
          const SweepOptions& so) { EXPECT_THROW(xeb_sweep(c, 0, out, so), TimeoutError); }},
      {"exec-step-mo",
       [](const ch::NoisyCircuit& c, const std::vector<std::uint64_t>& out,
          const SweepOptions& so) { EXPECT_THROW(xeb_sweep(c, 0, out, so), MemoryOutError); }},
  };
  for (const Case& kase : cases) {
    fault::arm(kase.site, 3);
    kase.expect(nc, outputs, sopts);
    EXPECT_TRUE(fault::fired(kase.site)) << kase.site;
    const ApproxBatchResult rerun = xeb_sweep(nc, 0, outputs, sopts);
    EXPECT_FALSE(rerun.cancelled);
    ASSERT_EQ(rerun.values.size(), base.values.size());
    for (std::size_t o = 0; o < outputs.size(); ++o)
      EXPECT_EQ(rerun.values[o], base.values[o]) << kase.site << " output " << o;
    fault::disarm_all();
  }
}

// --- trajectory runners under worker throw -------------------------------

TEST_F(FaultTest, TrajectoryChunkThrowPropagatesAndRerunsBitIdentical) {
  const sim::Sampler sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    return u(rng);
  };
  sim::ParallelOptions popts;
  popts.threads = 2;
  const sim::SamplerFactory factory = [&](std::size_t) { return sampler; };
  const sim::TrajectoryResult base = sim::run_trajectories(512, 7, factory, popts);

  for (const std::uint64_t nth : {std::uint64_t{1}, std::uint64_t{4}}) {
    fault::arm("traj-chunk", nth);
    EXPECT_THROW(sim::run_trajectories(512, 7, factory, popts), fault::FaultError);
    EXPECT_TRUE(fault::fired("traj-chunk"));
    const sim::TrajectoryResult rerun = sim::run_trajectories(512, 7, factory, popts);
    EXPECT_EQ(rerun.mean, base.mean) << "nth=" << nth;
    EXPECT_EQ(rerun.std_error, base.std_error) << "nth=" << nth;
    EXPECT_EQ(rerun.samples, base.samples) << "nth=" << nth;
    fault::disarm_all();
  }

  // Uneven per-item cost, 3 shards x 38 chunks at 4 threads: the fault
  // lands while earlier items are still running and later ones sit in the
  // stash, and the rerun must still find the pool whole.
  popts.threads = 4;
  popts.chunk_size = 8;
  const sim::ShardChunkSamplerFactory uneven = sim::uneven_sampler();
  const std::vector<sim::TrajectoryResult> sharded =
      sim::run_trajectories_sharded(300, 5, 2, 7, uneven, popts);
  for (const std::uint64_t nth : {std::uint64_t{1}, std::uint64_t{9}, std::uint64_t{60}}) {
    fault::arm("traj-chunk", nth);
    EXPECT_THROW(sim::run_trajectories_sharded(300, 5, 2, 7, uneven, popts),
                 fault::FaultError);
    EXPECT_TRUE(fault::fired("traj-chunk"));
    fault::disarm_all();
    const std::vector<sim::TrajectoryResult> rerun =
        sim::run_trajectories_sharded(300, 5, 2, 7, uneven, popts);
    for (std::size_t o = 0; o < sharded.size(); ++o) {
      EXPECT_EQ(rerun[o].mean, sharded[o].mean) << "nth=" << nth << " o=" << o;
      EXPECT_EQ(rerun[o].std_error, sharded[o].std_error) << "nth=" << nth << " o=" << o;
    }
  }
}

// --- CI drill ------------------------------------------------------------

// Run under NOISIM_FAULTS=<whatever> by the CI fault matrix: execute the
// standard workload tolerating any injected (documented) failure, then
// disarm and prove the process state is clean by matching the unfaulted
// reference bitwise. Also runnable with no env var at all.
TEST_F(FaultTest, EnvFaultDrill) {
  const ch::NoisyCircuit nc = all_backends_circuit();
  const SimulateOptions opts = all_backends_options();

  try {
    simulate(nc, 0, 0, opts);
  } catch (const MemoryOutError&) {
  } catch (const TimeoutError&) {
  } catch (const fault::FaultError&) {
  } catch (const LinalgError&) {
  }

  std::vector<std::uint64_t> outputs(8);
  for (std::size_t o = 0; o < outputs.size(); ++o) outputs[o] = o;
  SweepOptions sopts;
  sopts.approx.level = 1;
  sopts.approx.threads = 2;
  try {
    xeb_sweep(nc, 0, outputs, sopts);
  } catch (const MemoryOutError&) {
  } catch (const TimeoutError&) {
  } catch (const fault::FaultError&) {
  } catch (const LinalgError&) {
  }

  fault::disarm_all();
  const SimResult clean = simulate(nc, 0, 0, opts);
  const SimResult reference = simulate(nc, 0, 0, opts);
  EXPECT_EQ(clean.value, reference.value);
  EXPECT_EQ(clean.backend, reference.backend);
  const ApproxBatchResult sweep_a = xeb_sweep(nc, 0, outputs, sopts);
  const ApproxBatchResult sweep_b = xeb_sweep(nc, 0, outputs, sopts);
  ASSERT_EQ(sweep_a.values.size(), sweep_b.values.size());
  for (std::size_t o = 0; o < outputs.size(); ++o)
    EXPECT_EQ(sweep_a.values[o], sweep_b.values[o]);
}

}  // namespace
}  // namespace noisim::core
