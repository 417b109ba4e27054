// RunControl coverage: unit semantics (cancel -> CancelledError, deadline ->
// TimeoutError, memory ceiling -> MemoryOutError), run-time enforcement
// inside the plan executor (a deadline that expires AFTER compile throws
// from execute; a memory ceiling trips each executor's own arena),
// cooperative cancellation of the trajectory runners and the
// Algorithm-1 sweeps, xeb_sweep's salvage contract (valid outputs bitwise
// equal to the uncancelled run), the never-fires determinism contract, and
// NOISIM_THREADS validation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <random>
#include <thread>

#include "bench_support/generators.hpp"
#include "bench_support/harness.hpp"
#include "core/approx.hpp"
#include "core/backend.hpp"
#include "core/run_control.hpp"
#include "sim/parallel.hpp"
#include "support/env.hpp"
#include "tn/contractor.hpp"
#include "tn/plan.hpp"
#include "skeleton.hpp"
#include "uneven_sampler.hpp"

namespace noisim::core {
namespace {

TEST(RunControl, UnarmedPollIsANoOp) {
  RunControl c;
  EXPECT_NO_THROW(c.poll());
  EXPECT_FALSE(c.cancel_requested());
  EXPECT_FALSE(c.deadline_expired());
  EXPECT_NO_THROW(c.check_memory(std::size_t{1} << 40, "anything"));
}

TEST(RunControl, CancelIsStickyAndRaisesCancelledError) {
  RunControl c;
  c.request_cancel();
  EXPECT_TRUE(c.cancel_requested());
  EXPECT_THROW(c.poll(), CancelledError);
  EXPECT_THROW(c.poll(), CancelledError);  // sticky
  c.reset();
  EXPECT_NO_THROW(c.poll());
}

TEST(RunControl, ExpiredDeadlineRaisesTimeoutError) {
  RunControl c;
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(c.deadline_expired());
  EXPECT_THROW(c.poll(), TimeoutError);
  c.clear_deadline();
  EXPECT_NO_THROW(c.poll());
  // A far-future deadline never fires.
  c.set_deadline_after(3600.0);
  EXPECT_NO_THROW(c.poll());
  // <= 0 clears.
  c.set_deadline_after(0.0);
  EXPECT_FALSE(c.deadline_expired());
}

TEST(RunControl, DeadlineBeyondTheClockRangeSaturatesToNever) {
  // seconds * 1e9 past int64 nanoseconds must not wrap into the past.
  for (const double seconds : {1e9, 1e10, 1e12, 1e300}) {
    RunControl c;
    c.set_deadline_after(seconds);
    EXPECT_FALSE(c.deadline_expired()) << seconds;
    EXPECT_NO_THROW(c.poll()) << seconds;
  }
}

TEST(RunControl, ChildSeesItsParentsCancelDeadlineAndCeiling) {
  RunControl parent;
  RunControl child(&parent);
  EXPECT_NO_THROW(child.poll());

  parent.request_cancel();
  EXPECT_TRUE(child.cancel_requested());
  EXPECT_THROW(child.poll(), CancelledError);
  child.reset();  // the child's reset leaves the parent armed
  EXPECT_THROW(child.poll(), CancelledError);
  // Cancel anywhere in the chain wins over an expired deadline anywhere.
  child.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_THROW(child.poll(), CancelledError);
  child.reset();
  parent.reset();

  parent.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(child.deadline_expired());
  EXPECT_THROW(child.poll(), TimeoutError);
  parent.reset();

  parent.set_memory_ceiling_elems(100);
  EXPECT_NO_THROW(child.check_memory(100, "arena"));
  EXPECT_THROW(child.check_memory(101, "arena"), MemoryOutError);
  child.set_memory_ceiling_elems(10);  // the tighter of the two applies
  EXPECT_THROW(child.check_memory(11, "arena"), MemoryOutError);
  parent.reset();

  // Nothing flows upward: a fired child leaves its parent untouched.
  child.request_cancel();
  child.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_NO_THROW(parent.poll());
  EXPECT_NO_THROW(parent.check_memory(std::size_t{1} << 40, "arena"));
}

TEST(RunControl, CancelWinsOverExpiredDeadline) {
  RunControl c;
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  c.request_cancel();
  EXPECT_THROW(c.poll(), CancelledError);
}

TEST(RunControl, MemoryCeilingRaisesMemoryOutErrorNamingTheSubject) {
  RunControl c;
  c.set_memory_ceiling_elems(100);
  EXPECT_NO_THROW(c.check_memory(100, "small arena"));
  try {
    c.check_memory(101, "contraction arena");
    FAIL() << "expected MemoryOutError";
  } catch (const MemoryOutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("contraction arena"), std::string::npos) << what;
    EXPECT_NE(what.find("ceiling"), std::string::npos) << what;
  }
  c.set_memory_ceiling_elems(0);
  EXPECT_NO_THROW(c.check_memory(std::size_t{1} << 40, "anything"));
}

// --- run-time enforcement in the plan executor ---------------------------

tn::Network small_network(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss;
  auto random_tensor = [&](std::vector<std::size_t> shape) {
    tsr::Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = cplx{gauss(rng), gauss(rng)};
    return t;
  };
  tn::Network net;
  std::vector<tn::EdgeId> rail;
  for (int i = 0; i < 5; ++i) rail.push_back(net.new_edge());
  net.add_node(random_tensor({2, 2}), {rail[0], rail[1]});
  net.add_node(random_tensor({2, 2, 2}), {rail[1], rail[2], rail[3]});
  net.add_node(random_tensor({2, 2}), {rail[0], rail[2]});
  net.add_node(random_tensor({2, 2}), {rail[3], rail[4]});
  net.add_node(random_tensor({2}), {rail[4]});
  return net;
}

TEST(RunControl, RunTimeDeadlineThrowsFromExecuteNotCompile) {
  // Compile with no control: the deadline is pure run-time state, enforced
  // by the executor's per-step poll through the workspace.
  const tn::Network net = small_network(7);
  const tn::ContractionPlan plan = tn::ContractionPlan::compile(net);

  RunControl c;
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  tn::PlanWorkspace ws;
  ws.control = &c;
  EXPECT_THROW(plan.execute(net, ws), TimeoutError);

  // Same workspace, cancel instead of deadline.
  c.reset();
  c.request_cancel();
  EXPECT_THROW(plan.execute(net, ws), CancelledError);

  // Memory ceiling below the plan's arena footprint fires before the arena
  // is committed.
  c.reset();
  c.set_memory_ceiling_elems(1);
  EXPECT_THROW(plan.execute(net, ws), MemoryOutError);
}

TEST(RunControl, NeverFiringControlLeavesExecuteBitIdentical) {
  const tn::Network net = small_network(7);
  const tn::ContractionPlan plan = tn::ContractionPlan::compile(net);
  tn::PlanWorkspace bare_ws;
  const tsr::Tensor bare = plan.execute(net, bare_ws);

  RunControl c;
  c.set_deadline_after(3600.0);
  c.set_memory_ceiling_elems(std::size_t{1} << 40);
  tn::PlanWorkspace ws;
  ws.control = &c;
  const tsr::Tensor guarded = plan.execute(net, ws);
  ASSERT_EQ(bare.size(), guarded.size());
  for (std::size_t i = 0; i < bare.size(); ++i) EXPECT_EQ(bare[i], guarded[i]);
}

TEST(RunControl, ContractNetworkHonorsControlThroughContractOptions) {
  const tn::Network net = small_network(11);
  RunControl c;
  c.request_cancel();
  tn::ContractOptions opts;
  opts.control = &c;
  EXPECT_THROW(tn::contract_network(net, opts), CancelledError);
}

// --- trajectory runners --------------------------------------------------

TEST(RunControl, TrajectoryRunnersStopWithinOneChunk) {
  const sim::Sampler sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    return u(rng);
  };
  const sim::SamplerFactory factory = [&](std::size_t) { return sampler; };
  sim::ParallelOptions popts;
  popts.threads = 2;

  RunControl c;
  c.request_cancel();
  popts.control = &c;
  EXPECT_THROW(sim::run_trajectories(1024, 42, factory, popts), CancelledError);

  c.reset();
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_THROW(sim::run_trajectories(1024, 42, factory, popts), TimeoutError);

  // Never fires -> bit-identical to no control, at any thread count.
  c.reset();
  const sim::TrajectoryResult guarded = sim::run_trajectories(1024, 42, factory, popts);
  popts.control = nullptr;
  const sim::TrajectoryResult bare = sim::run_trajectories(1024, 42, factory, popts);
  EXPECT_EQ(guarded.mean, bare.mean);
  EXPECT_EQ(guarded.std_error, bare.std_error);
  EXPECT_EQ(guarded.samples, bare.samples);

  // A cancel raised from inside the sampler (as the TN sampler's replays
  // poll their control) at the 20th of 3 shards x 38 unevenly costed
  // chunks, 4 threads: the runner raises, and a rerun reproduces the base
  // bits.
  popts.threads = 4;
  popts.chunk_size = 8;
  c.reset();
  std::atomic<int> until_cancel{-1};  // items left before the cancel; < 0 never
  const sim::ShardChunkSamplerFactory uneven = sim::uneven_sampler([&] {
    if (until_cancel.fetch_sub(1) == 1) c.request_cancel();
    c.poll();
  });
  const std::vector<sim::TrajectoryResult> base =
      sim::run_trajectories_sharded(300, 5, 2, 42, uneven, popts);
  until_cancel = 20;
  EXPECT_THROW(sim::run_trajectories_sharded(300, 5, 2, 42, uneven, popts), CancelledError);
  EXPECT_TRUE(c.cancel_requested());
  c.reset();
  until_cancel = -1;
  const std::vector<sim::TrajectoryResult> rerun =
      sim::run_trajectories_sharded(300, 5, 2, 42, uneven, popts);
  for (std::size_t o = 0; o < base.size(); ++o) {
    EXPECT_EQ(rerun[o].mean, base[o].mean) << o;
    EXPECT_EQ(rerun[o].std_error, base[o].std_error) << o;
    EXPECT_EQ(rerun[o].samples, base[o].samples) << o;
  }
}

// --- Algorithm-1 sweeps --------------------------------------------------

ch::NoisyCircuit sweep_circuit() {
  return bench::insert_noises(bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 601);
}

TEST(RunControl, ApproximateFidelityRaisesOnCancelAndIsBitIdenticalOtherwise) {
  const ch::NoisyCircuit nc = sweep_circuit();
  ApproxOptions opts;
  opts.level = 1;
  opts.threads = 2;

  const ApproxResult bare = approximate_fidelity(nc, 0, 0, opts);

  RunControl c;
  opts.control = &c;
  const ApproxResult guarded = approximate_fidelity(nc, 0, 0, opts);
  EXPECT_EQ(guarded.value, bare.value);

  c.request_cancel();
  EXPECT_THROW(approximate_fidelity(nc, 0, 0, opts), CancelledError);

  c.reset();
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_THROW(approximate_fidelity(nc, 0, 0, opts), TimeoutError);
}

// The memory ceiling is the library's one arena budget. A ceiling at the
// per-term plan's arena sits below the batched plan's and the environment
// schedule's (the wider arenas the sweep runs), so those executors must
// raise MemoryOutError naming their arena while the per-term plan runs.

tn::Network sweep_network(const ch::NoisyCircuit& nc) {
  return amplitude_network(nc.num_qubits(), identity_skeleton(nc), 0, 0);
}

void expect_memory_out_naming(const std::function<void()>& run, const std::string& arena) {
  try {
    run();
    ADD_FAILURE() << "expected MemoryOutError from the " << arena;
  } catch (const MemoryOutError& e) {
    EXPECT_NE(std::string(e.what()).find(arena), std::string::npos) << e.what();
  }
}

TEST(RunControl, CeilingAtThePlanArenaTripsOnlyTheWiderArenas) {
  const ch::NoisyCircuit nc = sweep_circuit();
  const tn::Network net = sweep_network(nc);
  const tn::ContractionPlan plan = tn::ContractionPlan::compile(net);
  const std::vector<std::size_t> sites = noise_site_nodes(nc);
  constexpr std::size_t kTerms = 8;
  const std::vector<std::size_t> counts(sites.size(), 4);  // one-qubit sites: 4 SVD factors
  const tn::BatchedPlan bplan = plan.compile_batched(sites, kTerms, {}, nullptr, counts);
  const tn::EnvSchedule env = plan.compile_env(sites);
  const std::size_t ceiling = plan.workspace_elems();
  ASSERT_LT(ceiling, bplan.workspace_elems());
  ASSERT_LT(ceiling, env.workspace_elems());

  RunControl c;
  c.set_memory_ceiling_elems(ceiling);
  tn::PlanWorkspace ws;
  ws.control = &c;
  std::vector<const tsr::Tensor*> inputs;
  for (std::size_t i = 0; i < net.num_nodes(); ++i) inputs.push_back(&net.node(i).tensor);
  std::vector<const tsr::Tensor*> varying;
  for (std::size_t t = 0; t < kTerms; ++t)
    for (const std::size_t s : sites) varying.push_back(&net.node(s).tensor);
  auto run_batched = [&] { bplan.execute(inputs, varying, kTerms, ws); };
  expect_memory_out_naming(run_batched, "batched contraction arena");
  const bench::RunOutcome out = bench::run_guarded([&] {
    run_batched();
    return 0.0;
  });
  EXPECT_EQ(bench::format_time(out), "MO");
  const std::vector<char> want(sites.size(), 1);
  expect_memory_out_naming([&] { env.execute(inputs, want, ws); }, "environment arena");

  tn::PlanWorkspace bare_ws;
  const tsr::Tensor bare = plan.execute(net, bare_ws);
  const tsr::Tensor guarded = plan.execute(net, ws);
  ASSERT_EQ(bare.size(), guarded.size());
  for (std::size_t i = 0; i < bare.size(); ++i) EXPECT_EQ(bare[i], guarded[i]);
}

TEST(RunControl, CeilingBelowTheEnvironmentArenaFailsALevelOneSweep) {
  // Level 1 on the tensor-network path: every term comes from environment
  // passes. A ceiling the per-term plan fits but the environment schedule
  // does not raises MemoryOutError; no per-term replay takes over.
  const ch::NoisyCircuit nc = sweep_circuit();
  const tn::ContractionPlan plan = tn::ContractionPlan::compile(sweep_network(nc));
  const std::size_t env_arena = plan.compile_env(noise_site_nodes(nc)).workspace_elems();
  ASSERT_LT(plan.workspace_elems(), env_arena);

  ApproxOptions opts;
  opts.level = 1;
  opts.eval.backend = EvalOptions::Backend::TensorNetwork;
  const ApproxResult bare = approximate_fidelity(nc, 0, 0, opts);
  RunControl c;
  c.set_memory_ceiling_elems(plan.workspace_elems());
  opts.control = &c;
  expect_memory_out_naming([&] { approximate_fidelity(nc, 0, 0, opts); }, "environment arena");

  // At the environment arena itself the sweep runs, bit-identical.
  c.set_memory_ceiling_elems(env_arena);
  EXPECT_EQ(approximate_fidelity(nc, 0, 0, opts).raw, bare.raw);
}

TEST(RunControl, OneOutputSweepSharesItsCapsOutsideTheBatchedArena) {
  // Level 2 at one output: the u >= 2 terms replay 32 per traversal, and a
  // traversal of one output substitutes its caps as shared inputs rather
  // than varying slots. A ceiling at the shared-caps batched arena (below
  // the arena with the caps varying) therefore runs the sweep, with the
  // uncapped run's bits.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(64, 1, 77), 8, bench::realistic_noise(), 2024);
  const tn::ContractionPlan plan = tn::ContractionPlan::compile(sweep_network(nc));
  constexpr std::size_t kLevel = 2, kTerms = 32;
  std::vector<std::size_t> slots = noise_site_nodes(nc), counts;
  for (const ch::Op& op : nc.ops())
    if (const ch::NoiseOp* noise = std::get_if<ch::NoiseOp>(&op))
      counts.push_back(noise->num_qubits() == 1 ? 4 : 16);
  const std::size_t shared_caps =
      plan.compile_batched(slots, kTerms, {}, nullptr, counts, kLevel).workspace_elems();
  std::vector<char> unconstrained(slots.size(), 0);
  for (int q = 0; q < nc.num_qubits(); ++q) {
    slots.push_back(static_cast<std::size_t>(nc.num_qubits()) + nc.ops().size() +
                    static_cast<std::size_t>(q));
    counts.push_back(2);
    unconstrained.push_back(1);
  }
  const std::size_t varying_caps =
      plan.compile_batched(slots, kTerms, {}, nullptr, counts, kLevel, unconstrained)
          .workspace_elems();
  ASSERT_LT(shared_caps, varying_caps);

  ApproxOptions opts;
  opts.level = kLevel;
  opts.batch_terms = kTerms;
  opts.eval.backend = EvalOptions::Backend::TensorNetwork;
  const ApproxResult bare = approximate_fidelity(nc, 0, 0, opts);
  RunControl c;
  c.set_memory_ceiling_elems(shared_caps);
  opts.control = &c;
  const ApproxResult capped = approximate_fidelity(nc, 0, 0, opts);
  EXPECT_EQ(capped.raw, bare.raw);
  EXPECT_EQ(capped.term_sums, bare.term_sums);
  EXPECT_EQ(capped.level_values, bare.level_values);
}

TEST(RunControl, BatchAmplitudesReplaysUnderTheCallersCeiling) {
  // batch_amplitudes compiles under eval.tn.control, and its replays must
  // meet the same control's memory ceiling, as amplitude()'s do.
  const qc::Circuit c16 = bench::qaoa(16, 1, 9);
  const std::vector<std::uint64_t> vb{0, 1, 2, 3};
  RunControl c;
  c.set_memory_ceiling_elems(1);
  EvalOptions eval;
  eval.backend = EvalOptions::Backend::TensorNetwork;
  eval.tn.control = &c;
  EXPECT_THROW(amplitude(16, c16.gates(), 0, vb[0], eval), MemoryOutError);
  EXPECT_THROW(batch_amplitudes(16, c16.gates(), 0, vb, eval), MemoryOutError);
  EXPECT_THROW(batch_amplitudes(16, c16.gates(), 0, std::span(vb).first(1), eval),
               MemoryOutError);
}

TEST(RunControl, CostModelCompilePollsTheCallersControl) {
  // approx_cost_model compiles the sweep's template on a cold cache -- real
  // work simulate()'s TnApprox and TnTrajectories bids do before any run.
  const ch::NoisyCircuit nc = sweep_circuit();
  RunControl c;
  c.request_cancel();
  ApproxOptions opts;
  opts.control = &c;
  EXPECT_THROW(approx_cost_model(nc, 0, opts), CancelledError);
  c.reset();
  c.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_THROW(approx_cost_model(nc, 0, opts), TimeoutError);
}

TEST(RunControl, ApproximateFidelityOutputsRaisesCancelledError) {
  const ch::NoisyCircuit nc = sweep_circuit();
  const std::vector<std::uint64_t> outputs = {0, 1, 2, 3};
  ApproxOptions opts;
  opts.level = 1;
  RunControl c;
  c.request_cancel();
  opts.control = &c;
  EXPECT_THROW(approximate_fidelity_outputs(nc, 0, outputs, opts), CancelledError);
}

TEST(RunControl, PreCancelledXebSweepSalvagesNothingImmediately) {
  const ch::NoisyCircuit nc = sweep_circuit();
  const std::vector<std::uint64_t> outputs = {0, 1, 2, 3, 4, 5, 6, 7};
  SweepOptions sopts;
  sopts.approx.level = 1;
  RunControl c;
  c.request_cancel();
  sopts.approx.control = &c;
  const ApproxBatchResult r = xeb_sweep(nc, 0, outputs, sopts);
  EXPECT_TRUE(r.cancelled);
  ASSERT_EQ(r.valid.size(), outputs.size());
  for (const char v : r.valid) EXPECT_EQ(v, 0);
}

// The acceptance scenario: cancel a qaoa_25 sweep mid-flight from a watcher
// thread. The sweep must return within one work-item bound (enforced here
// by the test completing at all) and every output it reports valid must be
// bitwise equal to the uncancelled run.
TEST(RunControl, MidSweepCancelSalvagesBitIdenticalChunks) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(25, 1, 9), 6, bench::depolarizing_noise(0.05), 31);
  std::vector<std::uint64_t> outputs(64);
  for (std::size_t o = 0; o < outputs.size(); ++o)
    outputs[o] = (o * 2654435761ULL) & ((std::uint64_t{1} << 25) - 1);

  SweepOptions sopts;
  sopts.approx.level = 1;
  sopts.approx.threads = 2;
  sopts.shard_outputs = 8;

  const ApproxBatchResult reference = xeb_sweep(nc, 0, outputs, sopts);
  ASSERT_FALSE(reference.cancelled);

  RunControl c;
  sopts.approx.control = &c;
  std::thread watcher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    c.request_cancel();
  });
  const ApproxBatchResult r = xeb_sweep(nc, 0, outputs, sopts);
  watcher.join();

  ASSERT_EQ(r.valid.size(), outputs.size());
  ASSERT_EQ(r.values.size(), outputs.size());
  std::size_t salvaged = 0;
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    if (!r.valid[o]) continue;
    ++salvaged;
    EXPECT_EQ(r.values[o], reference.values[o]) << "output " << o;
    EXPECT_EQ(r.raw[o], reference.raw[o]) << "output " << o;
    ASSERT_EQ(r.term_sums[o].size(), reference.term_sums[o].size());
    for (std::size_t u = 0; u < r.term_sums[o].size(); ++u)
      EXPECT_EQ(r.term_sums[o][u], reference.term_sums[o][u]) << "output " << o;
  }
  if (!r.cancelled) {
    // The sweep beat the watcher: that is the uncancelled run, in full.
    EXPECT_EQ(salvaged, outputs.size());
  }
  // Error bounds are output-independent and survive any cancel.
  EXPECT_EQ(r.error_bound, reference.error_bound);
  EXPECT_EQ(r.tight_error_bound, reference.tight_error_bound);
}

// --- simulate() front door -----------------------------------------------

TEST(RunControl, SimulatePropagatesCancelWithoutEscalating) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::hf_vqe(6, 11), 2, bench::depolarizing_noise(0.05), 13);
  SimulateOptions opts;
  opts.error_budget = 5e-2;
  RunControl c;
  c.request_cancel();
  opts.control = &c;
  EXPECT_THROW(simulate(nc, 0, 0, opts), CancelledError);

  // Never fires -> bit-identical to no control.
  c.reset();
  const SimResult guarded = simulate(nc, 0, 0, opts);
  opts.control = nullptr;
  const SimResult bare = simulate(nc, 0, 0, opts);
  EXPECT_EQ(guarded.value, bare.value);
  EXPECT_EQ(guarded.backend, bare.backend);
  EXPECT_TRUE(guarded.escalations.empty());
}

// --- NOISIM_THREADS validation -------------------------------------------

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

TEST(ResolveThreads, RejectsNonNumericAndNonPositiveValuesNamingTheVariable) {
  EnvGuard guard("NOISIM_THREADS");
  // " 5" (leading whitespace) and the 20-digit value (ERANGE saturation)
  // were silently reinterpreted before the strict-grammar fix; both must
  // now fail the same loud way as the always-rejected inputs.
  for (const char* bad : {"abc", "-3", "0", "4x", "", " 5", "\t5", "99999999999999999999"}) {
    ::setenv("NOISIM_THREADS", bad, 1);
    try {
      sim::resolve_threads(0);
      FAIL() << "expected LinalgError for NOISIM_THREADS=\"" << bad << "\"";
    } catch (const LinalgError& e) {
      EXPECT_NE(std::string(e.what()).find("NOISIM_THREADS"), std::string::npos) << e.what();
    }
  }
}

TEST(ParsePositiveInt, StrictGrammarRejectsWhitespaceAndOutOfRangeInput) {
  EXPECT_EQ(support::parse_positive_int("5"), 5);
  EXPECT_EQ(support::parse_positive_int("+12"), 12);
  // Leading whitespace: strtol would skip it; the strict grammar must not.
  EXPECT_FALSE(support::parse_positive_int(" 5").has_value());
  EXPECT_FALSE(support::parse_positive_int("\t5").has_value());
  EXPECT_FALSE(support::parse_positive_int("\n5").has_value());
  // Out-of-range: strtol saturates to LONG_MAX/LONG_MIN with errno ==
  // ERANGE; the grammar rejects instead of handing back the saturated value.
  EXPECT_FALSE(support::parse_positive_int("99999999999999999999").has_value());
  EXPECT_FALSE(support::parse_positive_int("-99999999999999999999").has_value());
  EXPECT_FALSE(support::parse_positive_int(nullptr).has_value());
  EXPECT_FALSE(support::parse_positive_int("5 ").has_value());
}

TEST(ResolveThreads, AcceptsPositiveIntegersAndIgnoresEnvWhenRequested) {
  EnvGuard guard("NOISIM_THREADS");
  ::setenv("NOISIM_THREADS", "5", 1);
  EXPECT_EQ(sim::resolve_threads(0), 5u);
  // An explicit request bypasses the env var entirely (even a bad one).
  ::setenv("NOISIM_THREADS", "abc", 1);
  EXPECT_EQ(sim::resolve_threads(3), 3u);
  ::unsetenv("NOISIM_THREADS");
  EXPECT_GE(sim::resolve_threads(0), 1u);
}

TEST(ResolveThreads, ApproximateFidelityResolvesZeroThreadsLikeTheSamplers) {
  // threads = 0 means the same for every engine: the sweep reads
  // NOISIM_THREADS through sim::resolve_threads, so a bad value fails loud
  // instead of silently running one worker.
  EnvGuard guard("NOISIM_THREADS");
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(4, 1, 3), 2, bench::depolarizing_noise(0.01), 5);
  ApproxOptions opts;
  opts.threads = 0;
  ::setenv("NOISIM_THREADS", "abc", 1);
  EXPECT_THROW(approximate_fidelity(nc, 0, 0, opts), LinalgError);
  ::setenv("NOISIM_THREADS", "2", 1);
  const ApproxResult two = approximate_fidelity(nc, 0, 0, opts);
  opts.threads = 1;
  EXPECT_EQ(two.value, approximate_fidelity(nc, 0, 0, opts).value);
}

}  // namespace
}  // namespace noisim::core
