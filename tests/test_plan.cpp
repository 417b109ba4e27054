// Tests for the plan/execute contraction engine: plan determinism,
// replay equivalence (including the Algorithm-1 substitution path), MO/TO
// surfacing at plan time, and replays on NaN-poisoned workspaces on every
// kernel tier (ctest label `kernels`).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <thread>

#include "bench_support/generators.hpp"
#include "bench_support/harness.hpp"
#include "bench_support/oracle.hpp"
#include "core/approx.hpp"
#include "core/circuit_network.hpp"
#include "core/trajectories_tn.hpp"
#include "sim/parallel.hpp"
#include "sim/trajectories.hpp"
#include "skeleton.hpp"
#include "tensor/kernels.hpp"
#include "tn/contractor.hpp"
#include "tn/plan.hpp"

namespace noisim::tn {
namespace {

using tsr::Tensor;

Tensor random_tensor(std::vector<std::size_t> shape, std::mt19937_64& rng) {
  Tensor t(std::move(shape));
  std::normal_distribution<double> gauss;
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = cplx{gauss(rng), gauss(rng)};
  return t;
}

/// The ladder network from the contractor tests: two rails with rungs,
/// nontrivial enough that greedy ordering makes real choices. Every edge
/// has dimension `d`.
Network ladder_network(std::uint64_t seed, std::size_t d = 2) {
  std::mt19937_64 rng(seed);
  Network net;
  std::vector<EdgeId> rail_a, rail_b, rungs;
  for (int i = 0; i < 5; ++i) {
    rail_a.push_back(net.new_edge());
    rail_b.push_back(net.new_edge());
  }
  for (int i = 0; i < 5; ++i) rungs.push_back(net.new_edge());
  net.add_node(random_tensor({d, d}, rng), {rail_a[0], rail_b[0]});
  for (int i = 0; i < 4; ++i) {
    net.add_node(random_tensor({d, d, d}, rng), {rail_a[i], rail_a[i + 1], rungs[i]});
    net.add_node(random_tensor({d, d, d}, rng), {rail_b[i], rail_b[i + 1], rungs[i]});
  }
  net.add_node(random_tensor({d, d, d}, rng), {rail_a[4], rail_b[4], rungs[4]});
  net.add_node(random_tensor({d}, rng), {rungs[4]});
  return net;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

TEST(Plan, SameTopologyCompilesToIdenticalPlans) {
  // Different tensor *contents*, same topology: plans must be identical.
  const Network net_a = ladder_network(1);
  const Network net_b = ladder_network(99);
  for (OrderStrategy strat : {OrderStrategy::Greedy, OrderStrategy::Sequential}) {
    ContractOptions opts;
    opts.strategy = strat;
    const ContractionPlan pa = ContractionPlan::compile(net_a, opts);
    const ContractionPlan pb = ContractionPlan::compile(net_b, opts);
    EXPECT_EQ(pa.fingerprint(), pb.fingerprint());
    EXPECT_EQ(pa.steps().size(), net_a.num_nodes() - 1);
  }
}

TEST(Plan, ReplayMatchesContractNetworkBitwise) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Network net = ladder_network(seed);
    for (OrderStrategy strat : {OrderStrategy::Greedy, OrderStrategy::Sequential}) {
      ContractOptions opts;
      opts.strategy = strat;
      const Tensor eager = contract_network(net, opts);
      const ContractionPlan plan = ContractionPlan::compile(net, opts);
      PlanWorkspace ws;
      // Replaying twice through one workspace must also be stable.
      const Tensor once = plan.execute(net, ws);
      const Tensor twice = plan.execute(net, ws);
      EXPECT_TRUE(same_bits(eager, once));
      EXPECT_TRUE(same_bits(once, twice));
    }
  }
}

TEST(Plan, ReplaysAgainstSubstitutedContents) {
  // Plan compiled from one instance, replayed against another instance of
  // the same topology: must match planning that instance from scratch.
  const Network plan_net = ladder_network(7);
  const Network other = ladder_network(8);
  const ContractionPlan plan = ContractionPlan::compile(plan_net);
  PlanWorkspace ws;
  std::vector<const Tensor*> inputs;
  for (std::size_t i = 0; i < other.num_nodes(); ++i) inputs.push_back(&other.node(i).tensor);
  const Tensor replayed = plan.execute(inputs, ws);
  const Tensor eager = contract_network(other);
  EXPECT_TRUE(same_bits(eager, replayed));
}

TEST(Plan, StatsCountCompilationsAndReuse) {
  const Network net = ladder_network(3);
  ContractStats stats;
  const ContractionPlan plan = ContractionPlan::compile(net, {}, &stats);
  EXPECT_EQ(stats.plans_compiled, 1u);
  EXPECT_EQ(stats.plan_executions, 0u);
  PlanWorkspace ws;
  plan.execute(net, ws, &stats);
  plan.execute(net, ws, &stats);
  plan.execute(net, ws, &stats);
  EXPECT_EQ(stats.plan_executions, 3u);
  EXPECT_EQ(stats.plan_reuse_hits, 2u);
  EXPECT_EQ(stats.num_pairwise, 3 * plan.steps().size());
  EXPECT_GE(stats.peak_elems, 1u);
}

TEST(Plan, ContractNetworkReportsPlanStats) {
  const Network net = ladder_network(4);
  ContractStats stats;
  contract_network(net, {}, &stats);
  EXPECT_EQ(stats.plans_compiled, 1u);
  EXPECT_EQ(stats.plan_executions, 1u);
  EXPECT_EQ(stats.plan_reuse_hits, 0u);
}

TEST(Plan, WorkspaceAccountingIsBounded) {
  const Network net = ladder_network(5);
  const ContractionPlan plan = ContractionPlan::compile(net);
  // The liveness-packed arena can never beat the largest intermediate but
  // must stay below the sum of all step outputs (regions are recycled).
  std::size_t total = 0;
  for (const PlanStep& s : plan.steps()) total += s.out_elems;
  EXPECT_GE(plan.workspace_elems(), plan.peak_elems());
  EXPECT_LT(plan.workspace_elems(), total);
}

Network over_budget_network(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Network net;
  std::vector<EdgeId> open_edges;
  EdgeId spine_prev = net.new_edge();
  net.add_node(random_tensor({2}, rng), {spine_prev});
  for (int i = 0; i < 20; ++i) {
    const EdgeId spine_next = net.new_edge();
    const EdgeId leaf = net.new_edge();
    net.add_node(random_tensor({2, 2, 2}, rng), {spine_prev, spine_next, leaf});
    open_edges.push_back(leaf);
    spine_prev = spine_next;
  }
  net.add_node(random_tensor({2}, rng), {spine_prev});
  return net;
}

TEST(Plan, PlanTimeMemoryOutMapsToMO) {
  // MO now surfaces while *planning* (before any arithmetic); the harness
  // must still map it to the paper's "MO" table entry.
  const Network net = over_budget_network(10);
  ContractOptions opts;
  opts.max_tensor_elems = 1 << 10;
  EXPECT_THROW(ContractionPlan::compile(net, opts), MemoryOutError);
  const bench::RunOutcome out = bench::run_guarded([&] {
    ContractionPlan::compile(net, opts);
    return 0.0;
  });
  EXPECT_EQ(out.status, bench::RunOutcome::Status::MemoryOut);
  EXPECT_EQ(bench::format_time(out), "MO");
}

TEST(Plan, PlanTimeTimeoutMapsToTO) {
  const Network net = ladder_network(11);
  core::RunControl expired;
  expired.set_deadline_after(1e-12);
  ContractOptions opts;
  opts.control = &expired;
  EXPECT_THROW(ContractionPlan::compile(net, opts), TimeoutError);
  const bench::RunOutcome out = bench::run_guarded([&] {
    ContractionPlan::compile(net, opts);
    return 0.0;
  });
  EXPECT_EQ(out.status, bench::RunOutcome::Status::Timeout);
  EXPECT_EQ(bench::format_time(out), "TO");
}

// --- Auto order search -----------------------------------------------------

/// A 6x6 one-round QAOA amplitude network: ~100 nodes, wide enough that
/// the Auto search's non-greedy orders make real choices and a compile does
/// measurable work (which the bounded-deadline test below relies on).
Network qaoa_amplitude_network() {
  const qc::Circuit c = bench::qaoa(36, 1, 7);
  return core::amplitude_network(c.num_qubits(), c.gates(), 0, 0);
}

/// Every strategy, Auto included.
const OrderStrategy kAllStrategies[] = {
    OrderStrategy::Auto,        OrderStrategy::Greedy,       OrderStrategy::Sequential,
    OrderStrategy::Alternating, OrderStrategy::RandomGreedy,
};

TEST(Portfolio, RepeatedCompilesAreFingerprintIdentical) {
  // The Auto search is pure in topology + options: no wall-clock or RNG
  // entropy may leak into the selection.
  const Network net = qaoa_amplitude_network();
  const ContractOptions opts;  // Auto
  const ContractionPlan first = ContractionPlan::compile(net, opts);
  EXPECT_NE(first.chosen_strategy(), OrderStrategy::Auto);
  for (int i = 0; i < 3; ++i) {
    const ContractionPlan again = ContractionPlan::compile(net, opts);
    EXPECT_EQ(first.fingerprint(), again.fingerprint());
    EXPECT_EQ(first.chosen_strategy(), again.chosen_strategy());
  }
}

TEST(Portfolio, ConcurrentCompilesAreFingerprintIdentical) {
  const Network net = qaoa_amplitude_network();
  const ContractOptions opts;
  const std::string expect = ContractionPlan::compile(net, opts).fingerprint();
  for (std::size_t nthreads : {2u, 5u}) {
    std::vector<std::string> got(nthreads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < nthreads; ++t)
      pool.emplace_back(
          [&, t] { got[t] = ContractionPlan::compile(net, opts).fingerprint(); });
    for (std::thread& th : pool) th.join();
    for (const std::string& fp : got) EXPECT_EQ(fp, expect);
  }
}

TEST(Portfolio, NeverKeepsMoreFlopsThanGreedy) {
  // The greedy ladder is an Auto candidate, so the kept-cheapest rule can
  // never select a schedule costlier than the greedy ladder's.
  std::vector<Network> nets;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) nets.push_back(ladder_network(seed));
  nets.push_back(qaoa_amplitude_network());
  for (const Network& net : nets) {
    ContractOptions greedy_opts;
    greedy_opts.strategy = OrderStrategy::Greedy;
    const ContractionPlan greedy = ContractionPlan::compile(net, greedy_opts);
    const ContractionPlan automatic = ContractionPlan::compile(net);
    EXPECT_LE(automatic.total_flops(), greedy.total_flops());
  }
}

TEST(Portfolio, EveryStrategyReplaysContractNetworkBitwise) {
  // Each strategy's compiled plan -- for Auto, the one winning order it
  // materializes -- replays to exactly the eager contraction's bits.
  const Network net = ladder_network(31);
  for (OrderStrategy s : kAllStrategies) {
    ContractOptions opts;
    opts.strategy = s;
    const ContractionPlan plan = ContractionPlan::compile(net, opts);
    if (s == OrderStrategy::Auto)
      EXPECT_NE(plan.chosen_strategy(), OrderStrategy::Auto);
    else
      EXPECT_EQ(plan.chosen_strategy(), s);
    const Tensor eager = contract_network(net, opts);
    PlanWorkspace ws;
    EXPECT_TRUE(same_bits(eager, plan.execute(net, ws))) << order_strategy_name(s);
  }
}

TEST(Portfolio, AutoFitsATensorBudgetForcedGreedyExceeds) {
  // Candidates are scored against max_tensor_elems by the shape-only walk:
  // a budget every greedy-ladder order exceeds must still leave Auto a
  // candidate that fits, and the plan it materializes must honor it.
  const qc::Circuit c = bench::supremacy_inst(3, 3, 8, 5);
  const Network net = core::amplitude_network(c.num_qubits(), c.gates(), 0, 0);
  ContractOptions greedy;
  greedy.strategy = OrderStrategy::Greedy;
  ContractOptions opts;
  opts.max_tensor_elems = ContractionPlan::compile(net, greedy).peak_elems() / 2;
  greedy.max_tensor_elems = opts.max_tensor_elems;
  ASSERT_THROW(ContractionPlan::compile(net, greedy), MemoryOutError);
  const ContractionPlan plan = ContractionPlan::compile(net, opts);
  EXPECT_LE(plan.peak_elems(), opts.max_tensor_elems);
  const Tensor eager = contract_network(net, opts);
  PlanWorkspace ws;
  EXPECT_TRUE(same_bits(eager, plan.execute(net, ws)));
}

TEST(Portfolio, StatsRecordChosenStrategyAndCandidateFlops) {
  const Network net = ladder_network(32);
  ContractStats stats;
  const ContractionPlan plan = ContractionPlan::compile(net, {}, &stats);
  EXPECT_EQ(stats.plans_compiled, 1u);
  const std::size_t winner = static_cast<std::size_t>(plan.chosen_strategy());
  EXPECT_EQ(stats.strategy_chosen[winner], 1u);
  // Every strategy the Auto search tried records its best candidate's
  // cost, and the winner's recorded cost is exactly the kept schedule's.
  EXPECT_EQ(stats.strategy_flops[winner], plan.total_flops());
  std::size_t attempts = 0;
  for (std::size_t s = 0; s < kNumOrderStrategies; ++s)
    if (stats.strategy_flops[s] != 0) ++attempts;
  EXPECT_GE(attempts, 2u);  // more than one strategy actually ran
  // A direct compile records exactly its own strategy.
  ContractStats direct_stats;
  ContractOptions direct;
  direct.strategy = OrderStrategy::Sequential;
  const ContractionPlan seq = ContractionPlan::compile(net, direct, &direct_stats);
  const std::size_t si = static_cast<std::size_t>(OrderStrategy::Sequential);
  EXPECT_EQ(direct_stats.strategy_chosen[si], 1u);
  EXPECT_EQ(direct_stats.strategy_flops[si], seq.total_flops());
}

TEST(Portfolio, TinyDeadlineRaisesTimeoutWithinBoundedLatency) {
  // The planning control is polled inside every strategy's inner loop, so
  // an already-expired deadline must surface promptly even on a network
  // where a full Auto compile does real work -- not after the current
  // strategy (or the whole search) finishes.
  const Network net = qaoa_amplitude_network();
  core::RunControl expired;
  expired.set_deadline_after(1e-9);
  ContractOptions opts;
  opts.control = &expired;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(ContractionPlan::compile(net, opts), TimeoutError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // Generous bound: orders of magnitude below a full compile of this
  // network but far above any single inner-loop iteration.
  EXPECT_LT(elapsed, 2.0);
}

/// Random variant tensors for the ladder's varying slots and a helper that
/// checks a batched replay against per-term replays bit for bit.
void expect_batched_matches_per_term(const Network& net, const ContractionPlan& plan,
                                     const BatchedPlan& bplan,
                                     const std::vector<std::size_t>& vslots,
                                     const std::vector<std::vector<Tensor>>& variants,
                                     const std::vector<std::vector<std::size_t>>& choice) {
  const std::size_t k = choice.size();
  const std::size_t V = vslots.size();
  std::vector<const Tensor*> varying(k * V);
  for (std::size_t t = 0; t < k; ++t)
    for (std::size_t v = 0; v < V; ++v) varying[t * V + v] = &variants[v][choice[t][v]];
  std::vector<const Tensor*> shared;
  for (std::size_t i = 0; i < net.num_nodes(); ++i) shared.push_back(&net.node(i).tensor);

  PlanWorkspace bws;
  const Tensor batched = bplan.execute(shared, varying, k, bws);
  ASSERT_EQ(batched.dim(0), k);

  PlanWorkspace ws;
  const std::size_t out_elems = batched.size() / k;
  for (std::size_t t = 0; t < k; ++t) {
    std::vector<const Tensor*> inputs = shared;
    for (std::size_t v = 0; v < V; ++v) inputs[vslots[v]] = varying[t * V + v];
    const Tensor ref = plan.execute(inputs, ws);
    ASSERT_EQ(ref.size(), out_elems);
    for (std::size_t e = 0; e < out_elems; ++e)
      ASSERT_EQ(ref[e], batched[t * out_elems + e]) << "term " << t << " element " << e;
  }
}

TEST(BatchedPlan, MatchesPerTermReplayBitwise) {
  std::mt19937_64 rng(77);
  const Network net = ladder_network(21);
  const ContractionPlan plan = ContractionPlan::compile(net);

  // Vary three nodes (two leaves, one rung tensor), 3 declared variants
  // each; replay 7 of a capacity-8 batch with repeated and fresh variants
  // in an order that exercises row sharing and the per-term skip.
  const std::vector<std::size_t> vslots{0, 3, 6};
  std::vector<std::vector<Tensor>> variants;
  for (std::size_t slot : vslots) {
    std::vector<Tensor> vs;
    for (int i = 0; i < 3; ++i)
      vs.push_back(random_tensor(net.node(slot).tensor.shape(), rng));
    variants.push_back(std::move(vs));
  }
  const std::vector<std::size_t> counts{3, 3, 3};
  const BatchedPlan bplan = plan.compile_batched(vslots, 8, {}, nullptr, counts);

  const std::vector<std::vector<std::size_t>> choice{{0, 0, 0}, {1, 0, 0}, {1, 2, 0},
                                                     {0, 0, 0}, {2, 2, 2}, {1, 0, 0},
                                                     {0, 1, 2}};
  expect_batched_matches_per_term(net, plan, bplan, vslots, variants, choice);
}

TEST(BatchedPlan, MatchesWhenTheVariantProductReachesTheCapacity) {
  // Two slots of 4 declared variants in a batch of capacity 5: where their
  // cones merge, the variant product (16) is capped at the capacity, so
  // those buffers are capacity-sized -- still bit-identical.
  std::mt19937_64 rng(31);
  const Network net = ladder_network(22);
  const ContractionPlan plan = ContractionPlan::compile(net);
  const std::vector<std::size_t> vslots{2, 9};
  std::vector<std::vector<Tensor>> variants;
  for (std::size_t slot : vslots) {
    std::vector<Tensor> vs;
    for (int i = 0; i < 4; ++i)
      vs.push_back(random_tensor(net.node(slot).tensor.shape(), rng));
    variants.push_back(std::move(vs));
  }
  const std::vector<std::size_t> counts{4, 4};
  const BatchedPlan bplan = plan.compile_batched(vslots, 5, {}, nullptr, counts);
  const std::vector<std::vector<std::size_t>> choice{{0, 1}, {3, 1}, {0, 1}, {2, 2}};
  expect_batched_matches_per_term(net, plan, bplan, vslots, variants, choice);
}

TEST(BatchedPlan, SingleTermBatchMatches) {
  std::mt19937_64 rng(41);
  const Network net = ladder_network(23);
  const ContractionPlan plan = ContractionPlan::compile(net);
  const std::vector<std::size_t> vslots{4};
  std::vector<std::vector<Tensor>> variants{{random_tensor(net.node(4).tensor.shape(), rng)}};
  const BatchedPlan bplan = plan.compile_batched(vslots, 3, {}, nullptr,
                                                 std::vector<std::size_t>{1});
  expect_batched_matches_per_term(net, plan, bplan, vslots, variants, {{0}});
}

TEST(BatchedPlan, RejectsMoreVariantsThanDeclared) {
  std::mt19937_64 rng(51);
  const Network net = ladder_network(25);
  const ContractionPlan plan = ContractionPlan::compile(net);
  const std::vector<std::size_t> vslots{0};
  const BatchedPlan bplan = plan.compile_batched(vslots, 4, {}, nullptr,
                                                 std::vector<std::size_t>{1});
  std::vector<const Tensor*> shared;
  for (std::size_t i = 0; i < net.num_nodes(); ++i) shared.push_back(&net.node(i).tensor);
  const Tensor v0 = random_tensor(net.node(0).tensor.shape(), rng);
  const Tensor v1 = random_tensor(net.node(0).tensor.shape(), rng);
  std::vector<const Tensor*> varying{&v0, &v1};  // 2 distinct, 1 declared
  PlanWorkspace ws;
  EXPECT_THROW(bplan.execute(shared, varying, 2, ws), LinalgError);
}

TEST(BatchedPlan, StatsCountTermsAndActualKernels) {
  std::mt19937_64 rng(61);
  const Network net = ladder_network(26);
  const ContractionPlan plan = ContractionPlan::compile(net);
  const std::vector<std::size_t> vslots{0};
  std::vector<Tensor> vs{random_tensor(net.node(0).tensor.shape(), rng),
                         random_tensor(net.node(0).tensor.shape(), rng)};
  const BatchedPlan bplan = plan.compile_batched(vslots, 4, {}, nullptr,
                                                 std::vector<std::size_t>{2});
  std::vector<const Tensor*> shared;
  for (std::size_t i = 0; i < net.num_nodes(); ++i) shared.push_back(&net.node(i).tensor);
  std::vector<const Tensor*> varying{&vs[0], &vs[1], &vs[0], &vs[1]};
  PlanWorkspace ws;
  ContractStats stats;
  bplan.execute(shared, varying, 4, ws, &stats);
  EXPECT_EQ(stats.plan_executions, 4u);
  EXPECT_EQ(stats.plan_reuse_hits, 3u);
  // Only 2 distinct variants: shared rows / skips mean strictly fewer
  // kernel calls than 4 full replays, and flops/bytes record actual work.
  EXPECT_LT(stats.num_pairwise, 4 * plan.steps().size());
  EXPECT_GT(stats.num_pairwise, 0u);
  EXPECT_GT(stats.flops, 0u);
  EXPECT_GT(stats.bytes_moved, 0u);
  // A second replay through the same workspace is a reuse hit per term.
  bplan.execute(shared, varying, 4, ws, &stats);
  EXPECT_EQ(stats.plan_executions, 8u);
  EXPECT_EQ(stats.plan_reuse_hits, 7u);
}

TEST(Plan, PerTermExecuteRecordsFlopsAndBytes) {
  const Network net = ladder_network(27);
  ContractStats stats;
  const ContractionPlan plan = ContractionPlan::compile(net, {}, &stats);
  PlanWorkspace ws;
  plan.execute(net, ws, &stats);
  EXPECT_EQ(stats.flops, plan.total_flops());
  EXPECT_EQ(stats.bytes_moved, plan.total_bytes());
  plan.execute(net, ws, &stats);
  EXPECT_EQ(stats.flops, 2 * plan.total_flops());
  EXPECT_EQ(stats.bytes_moved, 2 * plan.total_bytes());
}

/// NaN in every workspace buffer a replay writes before it reads: arena,
/// batched and environment arenas, permutation scratch. Sized above every
/// plan below, so no execute reallocates them.
constexpr std::size_t kPoisonElems = std::size_t{1} << 16;
void poison(PlanWorkspace& ws) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const cplx bad{nan, nan};
  ws.arena.assign(kPoisonElems, bad);
  ws.scratch_a.assign(kPoisonElems, bad);
  ws.scratch_b.assign(kPoisonElems, bad);
  for (ArenaBuffer* buf : {&ws.batch_arena, &ws.env_arena}) {
    buf->ensure(kPoisonElems);
    std::fill_n(buf->data(), kPoisonElems, bad);
  }
}

bool same_bits(std::span<const cplx> a, std::span<const cplx> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

std::span<const cplx> elems(const Tensor& t) { return {t.data(), t.size()}; }

/// A batched replay's inputs: its network's tensors as the shared slots,
/// plus `k` terms of varying tensors (term-major).
struct BatchCase {
  const Network* net;
  BatchedPlan plan;
  std::vector<Tensor> variants;
  std::vector<const Tensor*> varying;
  std::size_t k;
};

std::vector<const Tensor*> node_tensors(const Network& net) {
  std::vector<const Tensor*> out;
  for (std::size_t i = 0; i < net.num_nodes(); ++i) out.push_back(&net.node(i).tensor);
  return out;
}

// Every executor writes each kernel output whole, so a replay through a
// workspace full of NaN carries the bits of a fresh workspace's replay: the
// plan replay, an environment pass toward every input, and batched replays
// through the batched row loop (broadcast uniform operands, one row per
// term) and the sequential (per-term) pass, on every kernel tier.
TEST(Executors, PoisonedWorkspaceReplaysBitIdentically) {
  std::mt19937_64 rng(71);
  // Bond dimension 8: intermediates past the sequential pass's size floor,
  // so its kernels run in every gather-table mode.
  const Network net = ladder_network(28, 8);
  const ContractionPlan plan = ContractionPlan::compile(net);
  std::vector<std::size_t> targets(net.num_nodes());
  std::iota(targets.begin(), targets.end(), std::size_t{0});
  const EnvSchedule env = plan.compile_env(targets);
  const std::vector<char> want(targets.size(), 1);
  const std::vector<const Tensor*> inputs = node_tensors(net);

  std::vector<BatchCase> batches;
  {
    // Two varying slots of 3 variants each in a batch of capacity 5: the
    // sequential pass replays the root region term by term.
    const std::vector<std::size_t> vslots{2, 9}, counts{3, 3};
    BatchCase b{&net, plan.compile_batched(vslots, 5, {}, nullptr, counts), {}, {}, 4};
    ASSERT_GT(b.plan.sequential_flop_fraction(), 0.0);
    for (int v = 0; v < 3; ++v)
      for (const std::size_t slot : vslots)
        b.variants.push_back(random_tensor(net.node(slot).tensor.shape(), rng));
    for (const std::size_t t : {0, 2, 4, 2}) {  // (slot 2, slot 9) variants per term
      b.varying.push_back(&b.variants[t]);
      b.varying.push_back(&b.variants[t + 1]);
    }
    batches.push_back(std::move(b));
  }
  // The bond-2 ladder with one varying leaf whose declared variants are all
  // distinct: one row per term, each reading the uniform operands in place.
  const Network small = ladder_network(29);
  const ContractionPlan small_plan = ContractionPlan::compile(small);
  {
    const std::vector<std::size_t> vslots{0};
    const std::vector<std::size_t> counts{4};
    BatchCase b{&small, small_plan.compile_batched(vslots, 4, {}, nullptr, counts), {}, {}, 4};
    for (int v = 0; v < 4; ++v)
      b.variants.push_back(random_tensor(small.node(0).tensor.shape(), rng));
    for (const Tensor& t : b.variants) b.varying.push_back(&t);
    batches.push_back(std::move(b));
  }
  ASSERT_LE(plan.workspace_elems(), kPoisonElems);
  ASSERT_LE(env.workspace_elems(), kPoisonElems);
  for (const BatchCase& b : batches) ASSERT_LE(b.plan.workspace_elems(), kPoisonElems);

  for (std::size_t t = 0; t < tsr::kNumKernelTiers; ++t) {
    const tsr::KernelTable* kt = tsr::kernel_table(static_cast<tsr::KernelTier>(t));
    if (!kt) continue;
    PlanWorkspace fresh, dirty;
    fresh.kernels = dirty.kernels = kt;
    poison(dirty);
    EXPECT_TRUE(same_bits(elems(plan.execute(inputs, fresh)), elems(plan.execute(inputs, dirty))))
        << kt->name << " plan replay";

    poison(dirty);
    const cplx v_fresh = env.execute(inputs, want, fresh);
    const cplx v_dirty = env.execute(inputs, want, dirty);
    EXPECT_TRUE(same_bits({&v_fresh, 1}, {&v_dirty, 1})) << kt->name << " environment value";
    for (std::size_t e = 0; e < targets.size(); ++e)
      EXPECT_TRUE(same_bits(env.env(e, fresh), env.env(e, dirty)))
          << kt->name << " environment of target " << e;

    for (std::size_t i = 0; i < batches.size(); ++i) {
      const BatchCase& b = batches[i];
      const std::vector<const Tensor*> shared = node_tensors(*b.net);
      poison(dirty);
      EXPECT_TRUE(same_bits(elems(b.plan.execute(shared, b.varying, b.k, fresh)),
                            elems(b.plan.execute(shared, b.varying, b.k, dirty))))
          << kt->name << " batched replay " << i;
    }
  }
}

}  // namespace
}  // namespace noisim::tn

namespace noisim::core {
namespace {

/// Fig. 4 workload, scaled to test size: hardware-grid QAOA with realistic
/// injected noise, evaluated through the tensor-network backend.
ch::NoisyCircuit fig4_workload(int n, std::size_t noises) {
  const qc::Circuit circuit = bench::qaoa(n, 1, 77);
  return bench::insert_noises(circuit, noises, bench::realistic_noise(), 500 + noises);
}

ApproxOptions tn_opts(std::size_t level, std::size_t threads, std::size_t batch_terms = 1) {
  ApproxOptions opts;
  opts.level = level;
  opts.threads = threads;
  opts.batch_terms = batch_terms;
  opts.eval.backend = EvalOptions::Backend::TensorNetwork;
  return opts;
}

void expect_same_bits(const ApproxResult& a, const ApproxResult& b) {
  EXPECT_EQ(a.raw.real(), b.raw.real());
  EXPECT_EQ(a.raw.imag(), b.raw.imag());
  ASSERT_EQ(a.level_values.size(), b.level_values.size());
  for (std::size_t i = 0; i < a.level_values.size(); ++i)
    EXPECT_EQ(a.level_values[i], b.level_values[i]);
}

TEST(PlanReplay, ApproxBitIdenticalToPerTermPlanningLevels0To2) {
  const ch::NoisyCircuit nc = fig4_workload(16, 3);
  for (std::size_t level = 0; level <= 2; ++level) {
    const ApproxOptions opts = tn_opts(level, 1);
    const ApproxResult replan = bench::replanned_fidelity(nc, 0, 0, level, opts.eval);
    const ApproxResult reuse = approximate_fidelity(nc, 0, 0, opts);
    // Level-1 terms come from environment passes: roundoff-close to
    // per-term replay, every other term sum bit-identical.
    EXPECT_EQ(bench::replay_mismatch(reuse, replan), "") << "level " << level;
    // The oracle contracts both layers of every term; the sweep one.
    EXPECT_EQ(replan.contractions, 2 * reuse.contractions);
    if (level >= 1) {
      // 1 plan serves every term, plus its environment schedule; every
      // logical contraction past the first replays the plan.
      EXPECT_EQ(reuse.contract_stats.plans_compiled, 2u);
      EXPECT_EQ(reuse.contract_stats.plan_executions, reuse.contractions);
      EXPECT_EQ(reuse.contract_stats.plan_reuse_hits, reuse.contractions - 1);
    }
  }
}

TEST(PlanReplay, ApproxBitIdenticalAcrossThreadCounts) {
  const ch::NoisyCircuit nc = fig4_workload(16, 3);
  const ApproxResult serial = approximate_fidelity(nc, 0, 0, tn_opts(2, 1));
  const ApproxResult threaded = approximate_fidelity(nc, 0, 0, tn_opts(2, 4));
  expect_same_bits(serial, threaded);
  // Per-worker sessions replan nothing: stats are partition-independent.
  // The plan and its environment schedule are the only compiles.
  EXPECT_EQ(threaded.contract_stats.plans_compiled, 2u);
  EXPECT_EQ(threaded.contract_stats.plan_executions, serial.contract_stats.plan_executions);
}

TEST(PlanReplay, TrajectoriesTnReplayMatchesStateVectorSampling) {
  // TN trajectories replay one plan per sample; both samplers draw the
  // mixture branches through one protocol, so the state-vector sampler with
  // the same seed and chunk evaluates the same trajectories -- means must
  // agree to numerical precision, and the replay path must stay
  // bit-identical across thread counts.
  const qc::Circuit circuit = bench::qaoa(9, 1, 5);
  const ch::NoisyCircuit nc =
      bench::insert_noises(circuit, 3, bench::depolarizing_noise(0.02), 17);
  sim::ParallelOptions serial, quad;
  serial.threads = 1;
  quad.threads = 4;
  const sim::TrajectoryResult tn_run = trajectories_tn(nc, 0, 0, 200, 7, serial);
  const sim::TrajectoryResult sv_run = sim::trajectories_sv(nc, 0, 0, 200, 7, serial);
  EXPECT_NEAR(tn_run.mean, sv_run.mean, 1e-9);
  const sim::TrajectoryResult threaded = trajectories_tn(nc, 0, 0, 200, 7, quad);
  EXPECT_EQ(tn_run.mean, threaded.mean);
  EXPECT_EQ(tn_run.std_error, threaded.std_error);
}

TEST(PlanReplay, ApproxAgreesWithStateVectorReference) {
  // Same workload through the exact state-vector backend: the plan-replay
  // TN value must agree to numerical precision (not bitwise -- different
  // arithmetic order).
  const ch::NoisyCircuit nc = fig4_workload(9, 2);
  ApproxOptions sv = tn_opts(2, 1);
  sv.eval.backend = EvalOptions::Backend::StateVector;
  const ApproxResult tn_result = approximate_fidelity(nc, 0, 0, tn_opts(2, 1));
  const ApproxResult sv_result = approximate_fidelity(nc, 0, 0, sv);
  EXPECT_NEAR(tn_result.value, sv_result.value, 1e-9);
}

/// The skeleton approximate_fidelity / trajectories_tn contract has the
/// same topology as the circuit with identity placeholders at the noise
/// sites, so its layer network can be built independently.
tn::Network skeleton_network(const ch::NoisyCircuit& nc) {
  return amplitude_network(nc.num_qubits(), identity_skeleton(nc), 0, 0);
}

// --- Plan selection pins ------------------------------------------------------

/// The networks whose Auto selection is pinned: the Fig. 4 layer (qaoa_64
/// + 8 realistic noises) at 8 seeded placements, compiled under default
/// options.
std::vector<tn::Network> selection_cases() {
  std::vector<tn::Network> cases;
  const qc::Circuit fig4 = bench::qaoa(64, 1, 77);
  for (std::uint64_t p = 0; p < 8; ++p)
    cases.push_back(skeleton_network(
        bench::insert_noises(fig4, 8, bench::realistic_noise(), 2024 + 7919 * p)));
  return cases;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

TEST(PlanSelection, AutoFingerprintsMatchPinnedDigest) {
  // Plan selection is pinned: any planner change that moves one Auto pair
  // (or one arena offset) on these networks changes the digest.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const tn::Network& net : selection_cases()) {
    const tn::ContractionPlan plan = tn::ContractionPlan::compile(net);
    h = fnv1a(h, tn::order_strategy_name(plan.chosen_strategy()));
    h = fnv1a(h, plan.fingerprint());
  }
  EXPECT_EQ(h, 0x36549cf4fa3c4839ULL);
}

TEST(PlanSelection, AutoStrategyFlopsMatchDirectCompiles) {
  // Auto records each strategy's best candidate cost: exactly what a
  // direct compile of that strategy keeps, or 0 where it memory-outs.
  for (const tn::Network& net : selection_cases()) {
    tn::ContractStats stats;
    (void)tn::ContractionPlan::compile(net, {}, &stats);
    for (const tn::OrderStrategy s : {tn::OrderStrategy::Greedy, tn::OrderStrategy::Alternating,
                                      tn::OrderStrategy::RandomGreedy}) {
      tn::ContractOptions direct;
      direct.strategy = s;
      std::size_t expect = 0;
      try {
        expect = tn::ContractionPlan::compile(net, direct).total_flops();
      } catch (const MemoryOutError&) {
      }
      EXPECT_EQ(stats.strategy_flops[static_cast<std::size_t>(s)], expect)
          << tn::order_strategy_name(s);
    }
  }
}

TEST(PlanSelection, ReplayPricedCompilesAreFingerprintIdentical) {
  // A known replay count keeps the search a pure function of topology +
  // options: repeated and concurrent compiles keep the same plan.
  for (const tn::Network& net : selection_cases()) {
    tn::ContractOptions opts;
    opts.replays = 4;
    const tn::ContractionPlan first = tn::ContractionPlan::compile(net, opts);
    const tn::ContractionPlan again = tn::ContractionPlan::compile(net, opts);
    EXPECT_EQ(again.fingerprint(), first.fingerprint());
    EXPECT_EQ(again.chosen_strategy(), first.chosen_strategy());
    std::vector<std::string> got(3);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < got.size(); ++t)
      pool.emplace_back(
          [&, t] { got[t] = tn::ContractionPlan::compile(net, opts).fingerprint(); });
    for (std::thread& th : pool) th.join();
    for (const std::string& fp : got) EXPECT_EQ(fp, first.fingerprint());
  }
}

TEST(PlanSelection, RestartsRunExactlyWhenTheReplaysRepayThem) {
  // The RandomGreedy restarts run iff replays x (the cheaper of the greedy
  // ladder and Alternating) reaches their modeled cost. At the threshold
  // the plan is the full search's; one replay below it the restarts record
  // nothing and the plan is the better of the other two.
  std::size_t one_pass_skips = 0;
  for (const tn::Network& net : selection_cases()) {
    std::size_t best = 0;
    for (const tn::OrderStrategy s : {tn::OrderStrategy::Greedy, tn::OrderStrategy::Alternating}) {
      tn::ContractOptions direct;
      direct.strategy = s;
      try {
        const std::size_t flops = tn::ContractionPlan::compile(net, direct).total_flops();
        best = best == 0 ? flops : std::min(best, flops);
      } catch (const MemoryOutError&) {
      }
    }
    // With neither fitting the budget, the restarts are the only candidates
    // left and run at any replay count.
    const std::size_t cost = tn::kRestartMacPerNode * tn::kRandomGreedyRestarts * net.num_nodes();
    const std::size_t threshold = best == 0 ? 1 : (cost + best - 1) / best;  // fewest that repay
    if (threshold > 4) ++one_pass_skips;
    const std::size_t rg = static_cast<std::size_t>(tn::OrderStrategy::RandomGreedy);

    tn::ContractStats full_stats;
    const tn::ContractionPlan full_plan = tn::ContractionPlan::compile(net, {}, &full_stats);
    tn::ContractOptions at;
    at.replays = threshold;
    tn::ContractStats at_stats;
    EXPECT_EQ(tn::ContractionPlan::compile(net, at, &at_stats).fingerprint(),
              full_plan.fingerprint());
    EXPECT_EQ(at_stats.strategy_flops, full_stats.strategy_flops);
    if (threshold < 2) continue;

    tn::ContractOptions below;
    below.replays = threshold - 1;
    tn::ContractStats below_stats;
    const tn::ContractionPlan plan = tn::ContractionPlan::compile(net, below, &below_stats);
    EXPECT_EQ(below_stats.strategy_flops[rg], 0u);
    EXPECT_NE(plan.chosen_strategy(), tn::OrderStrategy::RandomGreedy);
    EXPECT_EQ(plan.total_flops(), best);
  }
  // Every Fig. 4 layer prices the restarts out even at 4 replays, twice a
  // level-1 call's 2.
  EXPECT_GE(one_pass_skips, 8u);
}

TEST(BatchedApprox, BitIdenticalAcrossBatchSizesLevels0To2) {
  const ch::NoisyCircuit nc = fig4_workload(16, 3);
  for (std::size_t level = 0; level <= 2; ++level) {
    const ApproxResult per_term = approximate_fidelity(nc, 0, 0, tn_opts(level, 1, 1));
    // Batch sizes that exceed, divide, and do NOT divide the term count
    // (level 2 has 37 terms), so tail batches are exercised.
    for (const std::size_t batch : {2, 7, 32}) {
      const ApproxResult batched =
          approximate_fidelity(nc, 0, 0, tn_opts(level, 1, batch));
      expect_same_bits(per_term, batched);
      EXPECT_EQ(batched.contractions, per_term.contractions);
    }
  }
}

TEST(BatchedApprox, BitIdenticalAcrossThreadCounts) {
  const ch::NoisyCircuit nc = fig4_workload(16, 3);
  const ApproxResult serial = approximate_fidelity(nc, 0, 0, tn_opts(2, 1, 7));
  const ApproxResult threaded = approximate_fidelity(nc, 0, 0, tn_opts(2, 4, 7));
  expect_same_bits(serial, threaded);
}

TEST(BatchedApprox, StatsCountBatchedCompilesAndReplays) {
  const ch::NoisyCircuit nc = fig4_workload(16, 3);
  const ApproxResult r = approximate_fidelity(nc, 0, 0, tn_opts(1, 1, 32));
  // 1 per-term plan + 1 batched plan compiled on top.
  EXPECT_EQ(r.contract_stats.plans_compiled, 2u);
  EXPECT_EQ(r.contract_stats.plan_executions, r.contractions);
  EXPECT_EQ(r.contract_stats.plan_reuse_hits, r.contractions - 1);
  EXPECT_GT(r.contract_stats.flops, 0u);
  EXPECT_GT(r.contract_stats.bytes_moved, 0u);
  EXPECT_GE(r.eval_seconds, 0.0);
  EXPECT_GT(r.plan_seconds, 0.0);
}

TEST(BatchedTrajectories, PerSampleReplayIsBitIdenticalToBatchedSampling) {
  // The serial trajectories_tn batches each chunk of up to 32 samples into
  // one traversal; a one-sample call has capacity 1 and replays the
  // per-term plan. Folding one-sample calls on the same stream must give
  // the batched estimate bit for bit -- the direct batched-vs-per-sample
  // equivalence check.
  const qc::Circuit circuit = bench::qaoa(9, 1, 5);
  const ch::NoisyCircuit nc =
      bench::insert_noises(circuit, 3, bench::depolarizing_noise(0.02), 17);
  constexpr std::size_t kSamples = 70;

  std::mt19937_64 batched_rng(7);
  const sim::TrajectoryResult batched = trajectories_tn(nc, 0, 0, kSamples, batched_rng);

  std::mt19937_64 rng(7);
  sim::Welford fold;
  for (std::size_t s = 0; s < kSamples; ++s) fold.add(trajectories_tn(nc, 0, 0, 1, rng).mean);
  const sim::TrajectoryResult per_sample = fold.result();
  EXPECT_EQ(batched.mean, per_sample.mean);
  EXPECT_EQ(batched.std_error, per_sample.std_error);
  EXPECT_EQ(batched.samples, per_sample.samples);
  EXPECT_EQ(batched_rng(), rng());  // same draws consumed
}

}  // namespace
}  // namespace noisim::core
