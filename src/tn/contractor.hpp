#pragma once
// Tensor network contraction with pluggable ordering strategies.
//
// Strategies:
//  * Greedy     — repeatedly contract the connected pair with the best
//                 (result_size - alpha * (size_a + size_b)) score, walked
//                 once per weight of a fixed ladder, alpha = 1 then 4, and
//                 keeping the cheaper schedule by total flops (alpha = 1,
//                 the classic opt_einsum-style heuristic, wins ties). It
//                 works well on the quasi-1D / shallow-grid circuit
//                 networks in the paper.
//  * Sequential — absorb nodes into an accumulator in insertion order. The
//                 circuit builders insert gate tensors in time order, which
//                 makes this equivalent to Schrodinger simulation (optimal
//                 for few qubits / deep circuits).
//  * Alternating — two accumulators absorb nodes from the front and the
//                 back of insertion order alternately, merged at the end
//                 (the gate-cap-balanced order of ddsim's simulation-path
//                 framework).
//  * RandomGreedy — restarted greedy with a deterministically seeded score
//                 jitter and a per-restart alpha drawn from a wide range
//                 (CoTenGra-style randomized search); the seed is a pure
//                 function of the network topology, never wall clock or
//                 entropy, so the chosen plan stays a pure function of
//                 topology + options.
//  * Auto       — one fixed search: the Greedy ladder, Alternating, and
//                 RandomGreedy, keeping the order with minimum total flops
//                 (ties: smaller peak intermediate, then the earlier
//                 candidate); Sequential is the last resort when every
//                 candidate exceeds the memory budget. With
//                 ContractOptions::replays set, the RandomGreedy restarts
//                 run only when the replays they would serve can repay
//                 them: replays x (best ladder / Alternating flops) must
//                 reach kRestartMacPerNode x restarts x input nodes, a
//                 price in counted MACs, never wall clock. Candidates are
//                 scored by a shape-only walk over flat node and edge
//                 arrays that one compiler resets between candidates; a
//                 walk stops early once its running flops exceed the best
//                 so far of its own strategy, since it can no longer win.
//                 Only the winning order is materialized into a plan.
//
// Guard rails: the contractor enforces a tensor-size budget, throwing
// MemoryOutError; a whole arena's budget is a core::RunControl memory
// ceiling (PlanWorkspace::control, checked before an executor commits its
// arena), raising MemoryOutError too; a wall-clock budget is a RunControl
// deadline (ContractOptions::control while planning, PlanWorkspace::control
// while replaying), raising TimeoutError. The benchmark harness maps these
// to the paper's "MO" / "TO" table entries.
//
// Since the plan/execute split, contract_network is a thin wrapper: it
// compiles a ContractionPlan (tn/plan.hpp) for the network's topology and
// replays it once. Callers contracting many networks that share a topology
// should compile the plan themselves and replay it per instance.

#include <array>
#include <cstddef>
#include <vector>

#include "core/run_control.hpp"
#include "tn/network.hpp"

namespace noisim::tn {

enum class OrderStrategy {
  Auto,
  Greedy,
  Sequential,
  Alternating,
  RandomGreedy,
};

/// Number of OrderStrategy values (fixed-size per-strategy stats arrays).
inline constexpr std::size_t kNumOrderStrategies = 5;
static_assert(kNumOrderStrategies == static_cast<std::size_t>(OrderStrategy::RandomGreedy) + 1,
              "kNumOrderStrategies must count every OrderStrategy (RandomGreedy is the last)");

/// Stable display name (stats_json keys, bench tables, test diagnostics).
inline const char* order_strategy_name(OrderStrategy s) {
  switch (s) {
    case OrderStrategy::Auto: return "auto";
    case OrderStrategy::Greedy: return "greedy";
    case OrderStrategy::Sequential: return "sequential";
    case OrderStrategy::Alternating: return "alternating";
    case OrderStrategy::RandomGreedy: return "random_greedy";
  }
  return "unknown";
}

/// RandomGreedy restart count: each restart reseeds the score jitter and
/// redraws alpha from a per-restart stream seeded by the network's
/// topology hash and the restart index alone.
inline constexpr std::size_t kRandomGreedyRestarts = 4;

/// Modeled cost of one RandomGreedy restart walk, in complex MACs per input
/// node: the walk's measured time expressed at the environment pass's
/// throughput (on an AVX-512 AMD EPYC: ~0.45 ms per walk on the 664-node
/// Fig. 4 layer against ~3.9 GMAC/s, about 2.6K MAC per node). A fixed
/// constant, so the ContractOptions::replays test prices counted work and
/// never reads a clock.
inline constexpr std::size_t kRestartMacPerNode = 2600;

struct ContractOptions {
  OrderStrategy strategy = OrderStrategy::Auto;
  /// Maximum number of complex elements a single intermediate may hold;
  /// exceeding it raises MemoryOutError at plan time (the paper's "MO").
  /// 2^26 elements = 1 GiB of complex<double>.
  std::size_t max_tensor_elems = std::size_t{1} << 26;
  /// Forward-pass equivalents the plan will serve: how many times the
  /// caller replays it (an environment pass counts one forward plus one
  /// backward). 0 = unknown, the full Auto search. With replays > 0, Auto
  /// skips the RandomGreedy restarts when replays x best_flops (the
  /// cheaper of the Greedy weight ladder and Alternating) is below
  /// kRestartMacPerNode x kRandomGreedyRestarts x num_nodes -- the
  /// restarts' own modeled cost, so a one-shot plan does not pay more
  /// search than its replays could save. Counted work only: the plan stays
  /// a pure function of topology + options. Ignored by the single
  /// strategies.
  std::size_t replays = 0;
  /// Cooperative control polled during PLANNING (compile-time cancel /
  /// deadline); caller-owned, may be null. Run-time (replay) control --
  /// including the memory ceiling the executors check before committing
  /// an arena -- travels through tn::PlanWorkspace::control instead,
  /// because compiled plans are cached and shared across calls whose
  /// controls differ -- nothing execution-scoped may be baked into a plan.
  /// Deliberately excluded from PlanCache keys (core/plan_cache.cpp
  /// serializes every other field; the cache-key-covers-options lint rule
  /// checks that): an armed control never changes what a plan computes,
  /// only whether it is allowed to finish.
  const core::RunControl* control = nullptr;
};

/// Counters accumulate across calls sharing one ContractStats (peak_elems
/// maxes); drivers that contract many same-topology networks report their
/// aggregate through a single struct.
struct ContractStats {
  std::size_t num_pairwise = 0;     // pairwise matmul kernel invocations performed
  std::size_t peak_elems = 0;       // largest intermediate buffer produced
  double elapsed_seconds = 0.0;     // total time planning + contracting
  std::size_t plans_compiled = 0;   // contraction plans compiled (topology planning)
  std::size_t plan_executions = 0;  // plan replays (one per network contraction / batched term)
  std::size_t plan_reuse_hits = 0;  // replays that reused an already-executed plan
  /// Complex multiply-add operations executed: sum of m*k*n over every
  /// kernel invocation (batched replay counts the slices it actually ran,
  /// so deduplicated/broadcast work is visible as *missing* flops).
  std::size_t flops = 0;
  /// Modeled memory traffic of the executed steps, in bytes: operand reads
  /// (3x for operands that go through a permutation copy), one output write
  /// per kernel call (plus a read and a write for an environment scattered
  /// back to its operand's layout), and the final output materialization.
  /// Together with `flops` this records the arithmetic intensity of a run.
  std::size_t bytes_moved = 0;
  /// Session-level plan-cache accounting (core::PlanCache): lookups served
  /// from the cache vs lookups that had to compile a template or batched
  /// plan. Zero when the sweep ran without a cache. Cached calls report
  /// plans_compiled == 0 alongside plan_cache_hits > 0, which is how the
  /// bench ladder verifies the recompilation actually disappeared.
  std::size_t plan_cache_hits = 0;
  std::size_t plan_cache_misses = 0;
  /// Kernel invocations by dispatched instruction-set tier
  /// (tensor/kernels.hpp). kernels_scalar + kernels_avx2 + kernels_avx512
  /// == num_pairwise for plan-executor work; which bucket fills records
  /// what cpuid + NOISIM_KERNELS actually selected -- every tier computes
  /// identical bits, so these are the only observable difference. Paired
  /// with `flops` and `elapsed_seconds` they give effective GFLOP/s
  /// (bench::stats_json reports it directly).
  std::size_t kernels_scalar = 0;
  std::size_t kernels_avx2 = 0;
  std::size_t kernels_avx512 = 0;
  /// Order-search accounting, indexed by static_cast<std::size_t>(strategy):
  /// compiles whose winning schedule came from each strategy, and the
  /// summed flop estimate of each strategy's best candidate schedule per
  /// compile (0 while a strategy never produced a feasible schedule --
  /// not tried, or memory-out). Together they record which orders actually
  /// win and by how much, which is what bench_ablation_orders reports.
  std::array<std::size_t, kNumOrderStrategies> strategy_chosen{};
  std::array<std::size_t, kNumOrderStrategies> strategy_flops{};

  /// Fold another record into this one (counters add, peaks max) -- used
  /// to aggregate per-worker stats deterministically.
  void merge(const ContractStats& o) {
    num_pairwise += o.num_pairwise;
    peak_elems = peak_elems > o.peak_elems ? peak_elems : o.peak_elems;
    elapsed_seconds += o.elapsed_seconds;
    plans_compiled += o.plans_compiled;
    plan_executions += o.plan_executions;
    plan_reuse_hits += o.plan_reuse_hits;
    flops += o.flops;
    bytes_moved += o.bytes_moved;
    plan_cache_hits += o.plan_cache_hits;
    plan_cache_misses += o.plan_cache_misses;
    kernels_scalar += o.kernels_scalar;
    kernels_avx2 += o.kernels_avx2;
    kernels_avx512 += o.kernels_avx512;
    for (std::size_t s = 0; s < kNumOrderStrategies; ++s) {
      strategy_chosen[s] += o.strategy_chosen[s];
      strategy_flops[s] += o.strategy_flops[s];
    }
  }
};

/// Contract the whole network down to a single tensor whose axes are the
/// network's open edges in ascending edge-id order.
tsr::Tensor contract_network(const Network& net, const ContractOptions& opts = {},
                             ContractStats* stats = nullptr);

/// Contract a closed network (no open edges) to its scalar value.
cplx contract_to_scalar(const Network& net, const ContractOptions& opts = {},
                        ContractStats* stats = nullptr);

}  // namespace noisim::tn
