#include "tn/plan.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "tensor/contract.hpp"

namespace noisim::tn {

namespace {

using Clock = std::chrono::steady_clock;

/// Compile-time arena allocator: first-fit over a sorted free list with
/// coalescing, so each intermediate gets a fixed offset and the high-water
/// mark equals the peak live-intermediate footprint of the schedule.
class ArenaLayout {
 public:
  std::size_t alloc(std::size_t elems) {
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].elems >= elems) {
        const std::size_t offset = free_[i].offset;
        free_[i].offset += elems;
        free_[i].elems -= elems;
        if (free_[i].elems == 0) free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
        return offset;
      }
    }
    const std::size_t offset = end_;
    end_ += elems;
    return offset;
  }

  void release(std::size_t offset, std::size_t elems) {
    if (elems == 0) return;
    auto it = std::lower_bound(free_.begin(), free_.end(), offset,
                               [](const Region& r, std::size_t o) { return r.offset < o; });
    it = free_.insert(it, Region{offset, elems});
    // Coalesce with the following region, then the preceding one.
    const std::size_t i = static_cast<std::size_t>(it - free_.begin());
    if (i + 1 < free_.size() && free_[i].offset + free_[i].elems == free_[i + 1].offset) {
      free_[i].elems += free_[i + 1].elems;
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i + 1));
    }
    if (i > 0 && free_[i - 1].offset + free_[i - 1].elems == free_[i].offset) {
      free_[i - 1].elems += free_[i].elems;
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  std::size_t high_water() const { return end_; }

 private:
  struct Region {
    std::size_t offset, elems;
  };
  std::vector<Region> free_;  // sorted by offset
  std::size_t end_ = 0;
};

struct Candidate {
  double score;
  std::size_t result;
  std::size_t u, v;
  bool operator>(const Candidate& o) const {
    if (score != o.score) return score > o.score;
    return result > o.result;
  }
};

/// Deterministic 64-bit generator (splitmix64) for RandomGreedy. The
/// standard <random> distributions are implementation-defined, which would
/// make the chosen plan depend on the C++ runtime; drawing uniforms
/// directly from the raw stream keeps plan selection a pure function of
/// the seed on every toolchain.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 significant bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// First-occurrence probe table for the batched executor's dedup scans:
/// maps a 64-bit key to the first index that inserted it, with collisions
/// re-checked through the caller's equality predicate. Replacing the
/// executor's linear first-occurrence scans with this keeps the mapping --
/// and therefore every replayed bit -- IDENTICAL (the stored entry is
/// always the earliest index with equal keys) while dropping the scans
/// from O(k^2) to O(k), which is what keeps wide batches (terms x output
/// bitstrings) from drowning in bookkeeping.
class DedupTable {
 public:
  DedupTable(std::vector<std::uint32_t>& slots, std::size_t expected) : slots_(slots) {
    std::size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    mask_ = cap - 1;
    slots_.assign(cap, 0);
  }

  /// Returns the first index previously inserted with an equal key (as
  /// decided by `same`), or inserts `value` and returns it.
  template <class Eq>
  std::uint32_t find_or_insert(std::uint64_t key, std::uint32_t value, Eq&& same) {
    std::size_t h = mix(key) & mask_;
    while (slots_[h] != 0) {
      const std::uint32_t cand = slots_[h] - 1;
      if (same(cand)) return cand;
      h = (h + 1) & mask_;
    }
    slots_[h] = value + 1;
    return value;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }
  std::vector<std::uint32_t>& slots_;
  std::size_t mask_ = 0;
};

/// A candidate contraction order: the merge pairs a strategy chose and the
/// score the shape-only walk gave them.
struct ScoredOrder {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::size_t flops = 0;  // sum of m*k*n over the merges
  std::size_t peak = 0;   // largest intermediate
};

/// Strict (total flops, peak intermediate) order: a candidate replaces the
/// kept one only when strictly cheaper, so the EARLIER candidate wins full
/// ties and every ladder and the Auto search break ties in enumeration
/// order.
bool cheaper(const ScoredOrder& a, const ScoredOrder& b) {
  return a.flops < b.flops || (a.flops == b.flops && a.peak < b.peak);
}

/// RandomGreedy restart count: each restart reseeds the score jitter and
/// redraws alpha from a per-restart stream seeded by the network's
/// topology hash and the restart index alone.
constexpr std::size_t kRandomGreedyRestarts = 4;

}  // namespace

/// Shape-and-edge-only replica of the contractor's working state. Every
/// candidate order is a scored walk: merge() tracks edges, dims, the
/// per-intermediate and arena budgets, flops and peak, and records the
/// pair it merged. Only a `materialize` compiler also emits the PlanSteps
/// (permutation stride tables, traffic model) that finalize() turns into a
/// ContractionPlan; compile() runs one, replaying the winning candidate's
/// pairs through the same merge(). The pairwise order, tie-breaking, and
/// budget checks mirror the eager contractor exactly, so a compiled plan
/// replays to bit-identical results.
struct PlanCompiler {
  struct MetaNode {
    std::vector<EdgeId> edges;
    std::vector<std::size_t> dims;
    std::size_t elems = 1;
  };

  const ContractOptions& opts;
  const bool materialize;
  std::vector<MetaNode> nodes;  // indexed by slot
  std::vector<bool> alive;
  std::unordered_map<EdgeId, std::vector<std::size_t>> edge_nodes;
  std::size_t num_inputs = 0;

  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // merge order
  std::vector<PlanStep> steps;                              // materialize only
  ArenaLayout arena;
  std::vector<std::size_t> slot_offset;  // arena offset (intermediates only)
  std::size_t peak = 0;
  std::size_t flops = 0;  // sum of m*k*n over all steps (schedule cost)
  std::size_t bytes = 0;  // modeled memory traffic of one replay
  std::size_t scratch_a = 0, scratch_b = 0;
  std::size_t max_rank = 0;

  Clock::time_point deadline{};
  bool has_deadline = false;

  // `deadline` is shared by every walk of one compile() call (all
  // candidates plus the materialization), so timeout_seconds bounds total
  // planning time, not each attempt.
  PlanCompiler(const Network& net, const ContractOptions& o, Clock::time_point shared_deadline,
               bool deadline_set, bool materialize_steps)
      : opts(o), materialize(materialize_steps), deadline(shared_deadline),
        has_deadline(deadline_set) {
    num_inputs = net.num_nodes();
    nodes.reserve(num_inputs);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      MetaNode mn;
      mn.edges = net.node(i).edges;
      mn.dims.assign(net.node(i).tensor.shape().begin(), net.node(i).tensor.shape().end());
      mn.elems = net.node(i).tensor.size();
      for (EdgeId e : mn.edges) edge_nodes[e].push_back(i);
      nodes.push_back(std::move(mn));
      alive.push_back(true);
      slot_offset.push_back(0);
    }
  }

  ScoredOrder scored() && { return ScoredOrder{std::move(pairs), flops, peak}; }

  void check_deadline() const {
    if (opts.control) opts.control->poll();
    if (has_deadline && Clock::now() > deadline)
      throw TimeoutError("tensor network contraction exceeded deadline");
  }

  bool connected(std::size_t u, std::size_t v) const {
    for (EdgeId e : nodes[u].edges)
      if (std::find(nodes[v].edges.begin(), nodes[v].edges.end(), e) != nodes[v].edges.end())
        return true;
    return false;
  }

  /// Product of the dims shared between u and v (edge lists are tiny, so a
  /// linear scan beats hashing; this is the memoization-friendly scorer --
  /// only pairs adjacent to a merge are ever (re)scored).
  std::size_t shared_dims(std::size_t u, std::size_t v) const {
    std::size_t prod = 1;
    for (std::size_t ax = 0; ax < nodes[u].edges.size(); ++ax) {
      const EdgeId e = nodes[u].edges[ax];
      if (std::find(nodes[v].edges.begin(), nodes[v].edges.end(), e) != nodes[v].edges.end())
        prod *= nodes[u].dims[ax];
    }
    return prod;
  }

  std::size_t result_size(std::size_t u, std::size_t v) const {
    const std::size_t shared = shared_dims(u, v);
    return (nodes[u].elems / shared) * (nodes[v].elems / shared);
  }

  std::vector<std::size_t> neighbors(std::size_t i) const {
    std::vector<std::size_t> out;
    for (EdgeId e : nodes[i].edges) {
      const auto it = edge_nodes.find(e);
      if (it == edge_nodes.end()) continue;
      for (std::size_t n : it->second)
        if (n != i && alive[n]) out.push_back(n);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  std::vector<std::size_t> alive_nodes() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < alive.size(); ++i)
      if (alive[i]) out.push_back(i);
    return out;
  }

  /// Plan the contraction of slots u and v; returns the new slot index.
  std::size_t merge(std::size_t u, std::size_t v) {
    check_deadline();
    const MetaNode& nu = nodes[u];
    const MetaNode& nv = nodes[v];

    // Shared edges in u-axis order; v axes located per shared edge -- the
    // same pairing the eager contractor fed to tsr::contract.
    std::vector<std::size_t> axes_u, axes_v, free_a, free_b;
    for (std::size_t ax = 0; ax < nu.edges.size(); ++ax) {
      const auto it = std::find(nv.edges.begin(), nv.edges.end(), nu.edges[ax]);
      if (it != nv.edges.end()) {
        axes_u.push_back(ax);
        axes_v.push_back(static_cast<std::size_t>(it - nv.edges.begin()));
      } else {
        free_a.push_back(ax);
      }
    }
    for (std::size_t ax = 0; ax < nv.edges.size(); ++ax)
      if (std::find(axes_v.begin(), axes_v.end(), ax) == axes_v.end()) free_b.push_back(ax);

    PlanStep step;
    step.lhs = u;
    step.rhs = v;
    step.a_elems = nu.elems;
    step.b_elems = nv.elems;

    MetaNode merged;
    for (std::size_t ax : free_a) {
      step.m *= nu.dims[ax];
      merged.edges.push_back(nu.edges[ax]);
      merged.dims.push_back(nu.dims[ax]);
    }
    for (std::size_t ax : axes_u) step.k *= nu.dims[ax];
    for (std::size_t ax : free_b) {
      step.n *= nv.dims[ax];
      merged.edges.push_back(nv.edges[ax]);
      merged.dims.push_back(nv.dims[ax]);
    }
    merged.elems = step.m * step.n;
    step.out_elems = merged.elems;

    if (step.out_elems > opts.max_tensor_elems)
      throw MemoryOutError("tensor network contraction exceeded memory budget (intermediate of " +
                           std::to_string(step.out_elems) + " elements)");

    // Arena: the output region is claimed while both operands are still
    // live (no overlap), then consumed operand regions are recycled.
    step.out_offset = arena.alloc(step.out_elems);
    if (opts.max_workspace_elems > 0 && arena.high_water() > opts.max_workspace_elems)
      throw MemoryOutError("contraction plan workspace exceeded budget (arena of " +
                           std::to_string(arena.high_water()) + " elements)");
    if (u >= num_inputs) arena.release(slot_offset[u], nodes[u].elems);
    if (v >= num_inputs) arena.release(slot_offset[v], nodes[v].elems);

    peak = std::max(peak, step.out_elems);
    flops += step.m * step.k * step.n;
    pairs.emplace_back(u, v);

    if (materialize) {
      // Operand permutations: lhs to [free..., contracted...], rhs to
      // [contracted..., free...]. Identity permutations are recorded as
      // in-place reads (no scratch, no copy at execution).
      std::vector<std::size_t> perm_a = free_a;
      perm_a.insert(perm_a.end(), axes_u.begin(), axes_u.end());
      std::vector<std::size_t> perm_b = axes_v;
      perm_b.insert(perm_b.end(), free_b.begin(), free_b.end());

      step.identity_a = tsr::is_identity_permutation(perm_a);
      if (!step.identity_a) {
        const std::vector<std::size_t> strides = tsr::row_major_strides(nu.dims);
        for (std::size_t p : perm_a) {
          step.a_perm_shape.push_back(nu.dims[p]);
          step.a_src_stride.push_back(strides[p]);
        }
        scratch_a = std::max(scratch_a, nu.elems);
        max_rank = std::max(max_rank, perm_a.size());
      }
      step.identity_b = tsr::is_identity_permutation(perm_b);
      if (!step.identity_b) {
        const std::vector<std::size_t> strides = tsr::row_major_strides(nv.dims);
        for (std::size_t p : perm_b) {
          step.b_perm_shape.push_back(nv.dims[p]);
          step.b_src_stride.push_back(strides[p]);
        }
        scratch_b = std::max(scratch_b, nv.elems);
        max_rank = std::max(max_rank, perm_b.size());
      }
      // Traffic model: operand reads (plus a read+write permutation copy
      // when not identity), output zero-fill + accumulate write.
      bytes += sizeof(cplx) * (step.a_elems * (step.identity_a ? 1 : 3) +
                               step.b_elems * (step.identity_b ? 1 : 3) + 2 * step.out_elems);
    }

    alive[u] = alive[v] = false;
    const std::size_t idx = nodes.size();
    for (EdgeId e : merged.edges) {
      auto& owners = edge_nodes[e];
      owners.erase(std::remove_if(owners.begin(), owners.end(),
                                  [&](std::size_t n) { return n == u || n == v; }),
                   owners.end());
      owners.push_back(idx);
    }
    for (std::size_t ax : axes_u) edge_nodes.erase(nu.edges[ax]);

    slot_offset.push_back(step.out_offset);
    nodes.push_back(std::move(merged));
    alive.push_back(true);
    if (materialize) steps.push_back(std::move(step));
    return idx;
  }

  /// Greedy ordering with score = result - alpha * (size_a + size_b).
  /// alpha = 1 is the classic opt_einsum heuristic; larger alphas favor
  /// consuming big operands early, which on grid-like layers often yields
  /// far cheaper schedules. compile() tries a deterministic alpha ladder
  /// and keeps the cheapest plan -- planning runs once per topology, so the
  /// extra search amortizes over every replay.
  ///
  /// With `rng` set (RandomGreedy), the operand-size term of every scored
  /// pair is multiplied by exp(jitter * u), u uniform in [-1, 1) -- the
  /// CoTenGra-style perturbation that lets restarts escape the
  /// deterministic heuristic's local choices. Draws happen in push order,
  /// which is itself deterministic, so a fixed seed fixes the schedule.
  void greedy(double alpha, SplitMix64* rng = nullptr, double jitter = 0.0) {
    std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> heap;

    auto push_pair = [&](std::size_t u, std::size_t v) {
      if (u > v) std::swap(u, v);
      const std::size_t rs = result_size(u, v);
      double weight = alpha;
      if (rng) weight *= std::exp(jitter * (2.0 * rng->uniform() - 1.0));
      const double score = static_cast<double>(rs) -
                           weight * (static_cast<double>(nodes[u].elems) +
                                     static_cast<double>(nodes[v].elems));
      heap.push(Candidate{score, rs, u, v});
    };

    for (std::size_t i = 0; i < num_inputs; ++i)
      if (alive[i]) {
        check_deadline();
        for (std::size_t nb : neighbors(i))
          if (nb > i) push_pair(i, nb);
      }

    bool saw_over_budget = false;
    while (!heap.empty()) {
      // Polled per candidate, not just per merge: stale/over-budget
      // candidates can dominate the drain on dense networks, and the
      // deadline contract is bounded-latency abandonment of the whole
      // compile (all strategies share one deadline).
      check_deadline();
      const Candidate c = heap.top();
      heap.pop();
      if (!alive[c.u] || !alive[c.v]) continue;
      if (c.result > opts.max_tensor_elems) {
        saw_over_budget = true;
        continue;
      }
      const std::size_t merged = merge(c.u, c.v);
      for (std::size_t nb : neighbors(merged)) push_pair(merged, nb);
    }

    // Remaining alive nodes are mutually disconnected. If that is only
    // because every connected pair was over budget, report MO rather than
    // planning a wrong outer product.
    std::vector<std::size_t> rest = alive_nodes();
    for (std::size_t i = 0; i < rest.size(); ++i)
      for (std::size_t j = i + 1; j < rest.size(); ++j)
        if (connected(rest[i], rest[j])) {
          if (saw_over_budget)
            throw MemoryOutError("greedy contraction: all remaining pairs exceed memory budget");
          la::detail::fail("greedy contraction: internal error, connected pair left behind");
        }

    // Fold disconnected components smallest-first (outer products).
    while (true) {
      rest = alive_nodes();
      if (rest.size() <= 1) break;
      std::sort(rest.begin(), rest.end(),
                [&](std::size_t a, std::size_t b) { return nodes[a].elems < nodes[b].elems; });
      merge(rest[0], rest[1]);
    }
  }

  void sequential() {
    std::size_t acc = 0;
    for (std::size_t i = 1; i < num_inputs; ++i) acc = merge(acc, i);
  }

  /// Two accumulators absorb nodes from the front and the back of
  /// insertion order alternately, merged at the end. On amplitude networks
  /// (caps at both ends of the gate list) this contracts both boundaries
  /// inward instead of dragging one accumulator across the whole circuit.
  void alternating() {
    if (num_inputs < 2) return;
    std::size_t facc = 0;
    std::size_t bacc = num_inputs - 1;
    std::size_t lo = 1, hi = num_inputs - 2;
    bool take_front = true;
    while (lo <= hi) {
      if (take_front)
        facc = merge(facc, lo++);
      else
        bacc = merge(bacc, hi--);
      take_front = !take_front;
    }
    merge(facc, bacc);
  }

  ContractionPlan finalize(const Network& net) {
    const std::vector<std::size_t> rest = alive_nodes();
    la::detail::require(rest.size() == 1, "contract plan: network did not reduce to one node");
    const MetaNode& result = nodes[rest[0]];

    ContractionPlan plan;
    plan.steps_ = std::move(steps);
    plan.input_elems_.reserve(num_inputs);
    for (std::size_t i = 0; i < num_inputs; ++i) plan.input_elems_.push_back(nodes[i].elems);
    plan.arena_elems_ = arena.high_water();
    plan.scratch_a_elems_ = scratch_a;
    plan.scratch_b_elems_ = scratch_b;
    plan.peak_elems_ = peak;
    plan.total_flops_ = flops;
    std::size_t out_total = 1;
    for (std::size_t d : result.dims) out_total *= d;
    plan.total_bytes_ = bytes + sizeof(cplx) * 2 * out_total;  // final materialization
    plan.timeout_seconds_ = opts.timeout_seconds;
    plan.executions_ = std::make_shared<std::atomic<std::size_t>>(0);

    // Deterministic output: axes in ascending open-edge order.
    const std::vector<EdgeId> open = net.open_edges();
    la::detail::require(open.size() == result.edges.size(),
                        "contract plan: open edge bookkeeping mismatch");
    std::vector<std::size_t> perm(open.size());
    for (std::size_t i = 0; i < open.size(); ++i) {
      const auto it = std::find(result.edges.begin(), result.edges.end(), open[i]);
      la::detail::require(it != result.edges.end(), "contract plan: open edge missing");
      perm[i] = static_cast<std::size_t>(it - result.edges.begin());
    }
    plan.output_identity_ = tsr::is_identity_permutation(perm);
    const std::vector<std::size_t> strides = tsr::row_major_strides(result.dims);
    for (std::size_t p : perm) {
      plan.output_shape_.push_back(result.dims[p]);
      if (!plan.output_identity_) plan.output_src_stride_.push_back(strides[p]);
    }
    if (!plan.output_identity_) max_rank = std::max(max_rank, perm.size());
    plan.max_rank_ = max_rank;
    return plan;
  }
};

ContractionPlan ContractionPlan::compile(const Network& net, const ContractOptions& opts,
                                         ContractStats* stats) {
  la::detail::require(net.num_nodes() > 0, "ContractionPlan: empty network has no nodes");
  fault::poke("plan-mo");
  fault::poke("plan-to");
  if (opts.control) opts.control->poll();

  // One deadline across every planning walk below, so timeout_seconds
  // bounds the whole compile (each replay later gets its own budget).
  Clock::time_point deadline{};
  const bool has_deadline = opts.timeout_seconds > 0.0;
  if (has_deadline)
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(opts.timeout_seconds));

  // The cheapest candidate order of strategy `s`, scored without
  // materializing anything. A candidate that exceeds a memory budget is
  // skipped -- other ladder entries may still fit -- and MemoryOutError
  // surfaces only when none does. TimeoutError always propagates:
  // returning a best-so-far at the deadline would make plan selection
  // depend on wall clock, breaking the purity contract PlanCache and
  // bit-identical replay rest on.
  auto search = [&](OrderStrategy s) -> ScoredOrder {
    std::optional<ScoredOrder> best;
    std::string memory_out;  // the last candidate's memory-out message
    auto attempt = [&](auto&& walk) {
      try {
        PlanCompiler compiler(net, opts, deadline, has_deadline, /*materialize=*/false);
        walk(compiler);
        ScoredOrder cand = std::move(compiler).scored();
        if (!best || cheaper(cand, *best)) best = std::move(cand);
      } catch (const MemoryOutError& e) {
        memory_out = e.what();
      }
    };
    switch (s) {
      case OrderStrategy::Greedy:
        // A deterministic ladder of score weights. Planning happens once
        // per topology while the plan replays per term, so a several-fold
        // deeper search at plan time is almost free -- and routinely finds
        // schedules several times cheaper than alpha = 1 alone.
        la::detail::require(!opts.greedy_cost_weights.empty(),
                            "ContractionPlan: no greedy cost weights configured");
        for (const double alpha : opts.greedy_cost_weights)
          attempt([&](PlanCompiler& c) { c.greedy(alpha); });
        break;
      case OrderStrategy::Sequential:
        attempt([&](PlanCompiler& c) { c.sequential(); });
        break;
      case OrderStrategy::Alternating:
        attempt([&](PlanCompiler& c) { c.alternating(); });
        break;
      case OrderStrategy::RandomGreedy: {
        // Restarted jittered greedy. Every restart's generator is seeded
        // from the network's topology hash and the restart index alone --
        // no wall clock, no process entropy -- so the kept schedule is a
        // pure function of topology + options.
        const std::uint64_t topology_seed = net.topology_hash();
        for (std::size_t restart = 0; restart < kRandomGreedyRestarts; ++restart) {
          SplitMix64 rng{topology_seed + 0x9e3779b97f4a7c15ULL * (restart + 1)};
          // alpha log-uniform in [0.5, 8]: spans well past both ends of the
          // deterministic ladder, which is where restarts find schedules
          // the fixed weights miss.
          const double alpha = 0.5 * std::exp(rng.uniform() * std::log(16.0));
          attempt([&](PlanCompiler& c) { c.greedy(alpha, &rng, 0.25); });
        }
        break;
      }
      case OrderStrategy::Auto:
        la::detail::fail("ContractionPlan: Auto is not a single strategy");
    }
    if (!best) throw MemoryOutError(memory_out);
    if (stats) stats->strategy_flops[static_cast<std::size_t>(s)] += best->flops;
    return std::move(*best);
  };

  // Auto: the fixed search, cheapest candidate wins (ties: earlier
  // strategy). Sequential is the last resort when every candidate exceeds
  // the memory budget.
  OrderStrategy chosen = opts.strategy;
  std::optional<ScoredOrder> order;
  if (opts.strategy == OrderStrategy::Auto) {
    for (const OrderStrategy s :
         {OrderStrategy::Greedy, OrderStrategy::Alternating, OrderStrategy::RandomGreedy}) {
      try {
        ScoredOrder cand = search(s);
        if (!order || cheaper(cand, *order)) {
          order = std::move(cand);
          chosen = s;
        }
      } catch (const MemoryOutError&) {
        // some orders legitimately cannot fit budgets others can
      }
    }
    if (!order) chosen = OrderStrategy::Sequential;
  }
  if (!order) order = search(chosen);

  // Materialize the winner only: replaying its pairs through the same
  // merge() rebuilds the scored walk step for step, so every budget check
  // already passed.
  PlanCompiler compiler(net, opts, deadline, has_deadline, /*materialize=*/true);
  for (const auto& [u, v] : order->pairs) compiler.merge(u, v);
  ContractionPlan plan = compiler.finalize(net);
  plan.chosen_strategy_ = chosen;
  if (stats) {
    ++stats->plans_compiled;
    ++stats->strategy_chosen[static_cast<std::size_t>(chosen)];
  }
  return plan;
}

namespace {

/// Attribute `count` kernel invocations to the tier that executed them.
void tally_kernels(ContractStats& stats, tsr::KernelTier tier, std::size_t count) {
  switch (tier) {
    case tsr::KernelTier::Scalar:
      stats.kernels_scalar += count;
      break;
    case tsr::KernelTier::Avx2:
      stats.kernels_avx2 += count;
      break;
    case tsr::KernelTier::Avx512:
      stats.kernels_avx512 += count;
      break;
  }
}

}  // namespace

const cplx* ContractionPlan::slot_data(std::size_t slot,
                                       std::span<const tsr::Tensor* const> inputs,
                                       const PlanWorkspace& ws) const {
  if (slot < inputs.size()) return inputs[slot]->data();
  return ws.arena.data() + steps_[slot - inputs.size()].out_offset;
}

tsr::Tensor ContractionPlan::execute(std::span<const tsr::Tensor* const> inputs,
                                     PlanWorkspace& ws, ContractStats* stats) const {
  la::detail::require(inputs.size() == input_elems_.size(),
                      "ContractionPlan::execute: input count mismatch");
  for (std::size_t i = 0; i < inputs.size(); ++i)
    la::detail::require(inputs[i]->size() == input_elems_[i],
                        "ContractionPlan::execute: input tensor size mismatch");

  const auto started = Clock::now();
  Clock::time_point deadline{};
  const bool has_deadline = timeout_seconds_ > 0.0;
  if (has_deadline)
    deadline = started + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(timeout_seconds_));

  if (ws.control) ws.control->check_memory(arena_elems_, "contraction arena");
  ws.arena.resize(arena_elems_);
  ws.scratch_a.resize(scratch_a_elems_);
  ws.scratch_b.resize(scratch_b_elems_);
  ws.idx.resize(max_rank_);

  // Executor seam: an injected table (ws.kernels) wins, otherwise the
  // process-wide dispatched tier. Resolved per replay, never baked into the
  // plan, so cached plans honor tier switches.
  const tsr::KernelTable& kt = ws.kernels ? *ws.kernels : tsr::active_kernels();

  for (const PlanStep& step : steps_) {
    fault::poke("exec-step-mo");
    fault::poke("exec-step-to");
    if (ws.control) ws.control->poll();
    if (has_deadline && Clock::now() > deadline)
      throw TimeoutError("tensor network contraction exceeded deadline");
    const cplx* pa = slot_data(step.lhs, inputs, ws);
    if (!step.identity_a) {
      tsr::permute_walk(pa, step.a_perm_shape, step.a_src_stride, ws.scratch_a.data(),
                        step.a_elems, ws.idx.data());
      pa = ws.scratch_a.data();
    }
    const cplx* pb = slot_data(step.rhs, inputs, ws);
    if (!step.identity_b) {
      tsr::permute_walk(pb, step.b_perm_shape, step.b_src_stride, ws.scratch_b.data(),
                        step.b_elems, ws.idx.data());
      pb = ws.scratch_b.data();
    }
    cplx* out = ws.arena.data() + step.out_offset;
    std::fill(out, out + step.out_elems, cplx{0.0, 0.0});
    kt.matmul(pa, pb, out, step.m, step.k, step.n);
  }

  // Materialize the result with axes in ascending open-edge order.
  const cplx* src =
      steps_.empty() ? inputs[0]->data() : ws.arena.data() + steps_.back().out_offset;
  tsr::Tensor result(output_shape_);
  if (output_identity_)
    std::copy(src, src + result.size(), result.data());
  else
    tsr::permute_walk(src, output_shape_, output_src_stride_, result.data(), result.size(),
                      ws.idx.data());

  const std::size_t prior = executions_->fetch_add(1, std::memory_order_relaxed);
  if (stats) {
    stats->num_pairwise += steps_.size();
    tally_kernels(*stats, kt.tier, steps_.size());
    stats->peak_elems = std::max(stats->peak_elems, peak_elems_);
    ++stats->plan_executions;
    if (prior > 0) ++stats->plan_reuse_hits;
    stats->flops += total_flops_;
    stats->bytes_moved += total_bytes_;
    stats->elapsed_seconds += std::chrono::duration<double>(Clock::now() - started).count();
  }
  return result;
}

tsr::Tensor ContractionPlan::execute(const Network& net, PlanWorkspace& ws,
                                     ContractStats* stats) const {
  ws.input_ptrs.clear();
  ws.input_ptrs.reserve(net.num_nodes());
  for (std::size_t i = 0; i < net.num_nodes(); ++i) ws.input_ptrs.push_back(&net.node(i).tensor);
  return execute(std::span<const tsr::Tensor* const>(ws.input_ptrs), ws, stats);
}

BatchedPlan ContractionPlan::compile_batched(std::span<const std::size_t> varying_slots,
                                             std::size_t capacity, const ContractOptions& opts,
                                             ContractStats* stats,
                                             std::span<const std::size_t> variant_counts,
                                             std::size_t max_varied_per_term,
                                             std::span<const char> unconstrained) const {
  la::detail::require(capacity >= 1, "compile_batched: capacity must be positive");
  fault::poke("plan-mo");
  fault::poke("plan-to");
  if (opts.control) opts.control->poll();
  la::detail::require(variant_counts.empty() || variant_counts.size() == varying_slots.size(),
                      "compile_batched: one variant count per varying slot");
  la::detail::require(unconstrained.empty() || unconstrained.size() == varying_slots.size(),
                      "compile_batched: one unconstrained flag per varying slot");
  for (std::size_t c : variant_counts)
    la::detail::require(c >= 1, "compile_batched: variant counts must be positive");
  const std::size_t num_in = input_elems_.size();

  BatchedPlan bp;
  bp.capacity_ = capacity;
  bp.input_elems_ = input_elems_;
  bp.timeout_seconds_ = timeout_seconds_;
  bp.scratch_a_elems_ = scratch_a_elems_;
  bp.scratch_b_elems_ = scratch_b_elems_;
  bp.max_rank_ = max_rank_;
  bp.output_identity_ = output_identity_;
  bp.output_shape_ = output_shape_;
  bp.output_src_stride_ = output_src_stride_;
  bp.varying_index_of_input_.assign(num_in, -1);
  for (std::size_t v = 0; v < varying_slots.size(); ++v) {
    const std::size_t slot = varying_slots[v];
    la::detail::require(slot < num_in, "compile_batched: varying slot out of range");
    la::detail::require(bp.varying_index_of_input_[slot] < 0,
                        "compile_batched: repeated varying slot");
    bp.varying_index_of_input_[slot] = static_cast<std::ptrdiff_t>(v);
  }
  bp.varying_slots_.assign(varying_slots.begin(), varying_slots.end());

  // Replay the schedule shape-only to lay out the arenas and check their
  // combined high-water mark against the (batch-aware) workspace budget.
  //
  // Each step's ROW BOUND is the number of distinct values its output can
  // take across a batch: the variant structure of the varying slots in its
  // dependency cone (tracked as a bitmask while V <= 64), truncated by the
  // per-term variation promise (at most `max_varied_per_term` slots differ
  // from variant 0 in any one term -- Algorithm 1's level), capped at the
  // capacity. Steps whose bound stays small are BATCHED: their [rows, ...]
  // buffer holds every distinct value at once and terms share rows. Steps
  // whose bound approaches the capacity (the merged-cone "root" region,
  // where every term is distinct) gain nothing from sharing but would
  // stream rows*out_elems bytes of single-use data; they are marked
  // SEQUENTIAL and replayed per term through a small per-term arena that
  // stays cache-hot -- exactly like per-term replay, minus the work already
  // hoisted into the batched region. Sequential-ness is downstream-closed
  // (cone masks only grow), so execution is two clean passes.
  std::vector<char> slot_varying(num_in + steps_.size(), 0);
  std::vector<char> slot_seq(num_in + steps_.size(), 0);
  // Cone masks are multi-word bitsets over the varying slots, so the
  // tracking (and the row bounds it buys) works at any slot count -- the
  // output-batching axis alone contributes n slots, which blows past a
  // single word well inside the XEB regime.
  const bool track_cones = !variant_counts.empty();
  const std::size_t words = track_cones ? (varying_slots.size() + 63) / 64 : 1;
  std::vector<std::uint64_t> slot_mask((num_in + steps_.size()) * words, 0);
  for (std::size_t i = 0; i < num_in; ++i)
    slot_varying[i] = bp.varying_index_of_input_[i] >= 0 ? 1 : 0;
  if (track_cones)
    for (std::size_t v = 0; v < varying_slots.size(); ++v)
      slot_mask[varying_slots[v] * words + v / 64] |= std::uint64_t{1} << (v % 64);
  const std::size_t degree = std::min(max_varied_per_term, varying_slots.size());
  std::vector<std::size_t> coeff;  // e_j DP scratch for mask_bound
  auto mask_bound = [&](const std::uint64_t* mask) -> std::size_t {
    // Distinct values = (product of the unconstrained cone slots' variant
    // counts -- those flip freely per term) times the sum over j <= degree
    // of the j-th elementary symmetric sum of (count_v - 1) over the
    // cone's constrained slots (choose which j sites deviate from variant
    // 0 and which deviation each takes), everything clamped at the
    // capacity.
    std::size_t free_prod = 1;
    coeff.assign(1, 1);
    for (std::size_t v = 0; v < varying_slots.size(); ++v) {
      if (!(mask[v / 64] & (std::uint64_t{1} << (v % 64)))) continue;
      if (!unconstrained.empty() && unconstrained[v]) {
        free_prod = std::min(capacity, free_prod * variant_counts[v]);
        continue;
      }
      const std::size_t d = variant_counts[v] - 1;
      if (coeff.size() <= degree) coeff.push_back(0);
      for (std::size_t j = coeff.size() - 1; j >= 1; --j)
        coeff[j] = std::min(capacity, coeff[j] + coeff[j - 1] * d);
    }
    std::size_t bound = 0;
    for (std::size_t c : coeff) bound = std::min(capacity, bound + c);
    return std::min(capacity, free_prod * bound);
  };
  // A step goes sequential when batching it would stream big, barely
  // shared buffers through memory: sharing below ~2x (row bound near the
  // capacity) AND an output too large for its rows to stay cache-resident.
  // Small tensors stay batched at any row count -- their whole row set is
  // cache-sized, so even weak sharing is free. Consumers of sequential
  // outputs are sequential by construction (downstream closure).
  const std::size_t seq_threshold = std::max<std::size_t>(2, capacity / 2);
  constexpr std::size_t kSeqMinElems = 512;
  std::vector<std::size_t> slot_offset(num_in + steps_.size(), 0);
  std::vector<std::size_t> slot_belems(num_in + steps_.size(), 0);
  ArenaLayout batched_arena, seq_arena;
  auto check_budget = [&] {
    if (opts.max_workspace_elems > 0 &&
        batched_arena.high_water() + seq_arena.high_water() > opts.max_workspace_elems)
      throw MemoryOutError("batched contraction plan workspace exceeded budget (arena of " +
                           std::to_string(batched_arena.high_water() + seq_arena.high_water()) +
                           " elements for batch of " + std::to_string(capacity) + ")");
  };

  bp.steps_.reserve(steps_.size());
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    const PlanStep& step = steps_[s];
    BatchedStep bs;
    bs.lhs = step.lhs;
    bs.rhs = step.rhs;
    bs.varying_a = slot_varying[step.lhs] != 0;
    bs.varying_b = slot_varying[step.rhs] != 0;
    bs.varying_out = bs.varying_a || bs.varying_b;
    bs.identity_a = step.identity_a;
    bs.identity_b = step.identity_b;
    bs.a_perm_shape = step.a_perm_shape;
    bs.a_src_stride = step.a_src_stride;
    bs.b_perm_shape = step.b_perm_shape;
    bs.b_src_stride = step.b_src_stride;
    bs.a_elems = step.a_elems;
    bs.b_elems = step.b_elems;
    bs.m = step.m;
    bs.k = step.k;
    bs.n = step.n;
    bs.out_elems = step.out_elems;
    if (!step.identity_a && tsr::permute_gather_applies(step.a_elems))
      bs.a_gather = tsr::permute_gather(step.a_perm_shape, step.a_src_stride);
    if (!step.identity_b && tsr::permute_gather_applies(step.b_elems))
      bs.b_gather = tsr::permute_gather(step.b_perm_shape, step.b_src_stride);

    std::uint64_t* mask = slot_mask.data() + (num_in + s) * words;
    for (std::size_t w = 0; w < words; ++w)
      mask[w] = slot_mask[step.lhs * words + w] | slot_mask[step.rhs * words + w];
    if (!bs.varying_out)
      bs.row_bound = 1;
    else if (track_cones)
      bs.row_bound = mask_bound(mask);
    else
      bs.row_bound = capacity;
    const bool operand_seq = (step.lhs >= num_in && slot_seq[step.lhs]) ||
                             (step.rhs >= num_in && slot_seq[step.rhs]);
    bs.sequential = operand_seq || (bs.varying_out && bs.row_bound >= seq_threshold &&
                                    step.out_elems >= kSeqMinElems);

    if (bs.sequential) {
      // One row per step, NEVER recycled: the cross-term variant skip keeps
      // a step's last computed value alive across terms, so sequential
      // buffers must not alias. Operands from the batched region also stay
      // live through the whole sequential pass.
      bs.out_offset = seq_arena.alloc(step.out_elems);
      slot_belems[num_in + s] = step.out_elems;
    } else {
      const std::size_t belems = step.out_elems * bs.row_bound;
      bs.out_offset = batched_arena.alloc(belems);
      if (step.lhs >= num_in) batched_arena.release(slot_offset[step.lhs], slot_belems[step.lhs]);
      if (step.rhs >= num_in) batched_arena.release(slot_offset[step.rhs], slot_belems[step.rhs]);
      slot_belems[num_in + s] = belems;
    }
    check_budget();
    slot_varying[num_in + s] = bs.varying_out ? 1 : 0;
    slot_seq[num_in + s] = bs.sequential ? 1 : 0;
    slot_offset[num_in + s] = bs.out_offset;
    bp.term_flops_ += step.m * step.k * step.n;
    if (bs.sequential) bp.seq_flops_ += step.m * step.k * step.n;
    bp.steps_.push_back(std::move(bs));
  }
  // Sequential buffers live above the batched region in one allocation.
  const std::size_t batched_hw = batched_arena.high_water();
  for (BatchedStep& bs : bp.steps_)
    if (bs.sequential) bs.out_offset += batched_hw;
  bp.arena_elems_ = batched_hw + seq_arena.high_water();
  bp.has_seq_ = false;
  for (const BatchedStep& bs : bp.steps_) bp.has_seq_ = bp.has_seq_ || bs.sequential;
  // Boundary slots: varying non-sequential slots read by the sequential
  // pass. Their per-term variant keys form the signature that deduplicates
  // whole per-term passes (terms with equal signatures are bit-identical).
  for (const BatchedStep& bs : bp.steps_) {
    if (!bs.sequential) continue;
    for (const std::size_t slot : {bs.lhs, bs.rhs}) {
      const bool seq_slot = slot >= num_in && slot_seq[slot];
      if (!seq_slot && slot_varying[slot]) bp.boundary_.push_back(slot);
    }
  }
  std::sort(bp.boundary_.begin(), bp.boundary_.end());
  bp.boundary_.erase(std::unique(bp.boundary_.begin(), bp.boundary_.end()),
                     bp.boundary_.end());
  if (!output_identity_) {
    std::size_t out_total = 1;
    for (std::size_t d : output_shape_) out_total *= d;
    if (tsr::permute_gather_applies(out_total))
      bp.output_gather_ = tsr::permute_gather(output_shape_, output_src_stride_);
  }
  bp.executions_ = std::make_shared<std::atomic<std::size_t>>(0);
  if (stats) ++stats->plans_compiled;
  return bp;
}

tsr::Tensor BatchedPlan::execute(std::span<const tsr::Tensor* const> shared,
                                 std::span<const tsr::Tensor* const> varying, std::size_t k,
                                 PlanWorkspace& ws, ContractStats* stats) const {
  const std::size_t num_in = input_elems_.size();
  const std::size_t V = varying_slots_.size();
  la::detail::require(k >= 1 && k <= capacity_, "BatchedPlan::execute: batch size out of range");
  la::detail::require(shared.size() == num_in, "BatchedPlan::execute: input count mismatch");
  la::detail::require(varying.size() == k * V,
                      "BatchedPlan::execute: varying input count mismatch");
  for (std::size_t i = 0; i < num_in; ++i)
    if (varying_index_of_input_[i] < 0)
      la::detail::require(shared[i]->size() == input_elems_[i],
                          "BatchedPlan::execute: shared input size mismatch");
  for (std::size_t t = 0; t < k; ++t)
    for (std::size_t v = 0; v < V; ++v)
      la::detail::require(varying[t * V + v]->size() == input_elems_[varying_slots_[v]],
                          "BatchedPlan::execute: varying input size mismatch");

  const auto started = Clock::now();
  Clock::time_point deadline{};
  const bool has_deadline = timeout_seconds_ > 0.0;
  if (has_deadline)
    // A batched traversal stands in for k replays, so it gets k replay
    // budgets -- a timeout every term individually meets cannot start
    // failing just because terms were batched.
    deadline = started + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 timeout_seconds_ * static_cast<double>(k)));

  if (ws.control) ws.control->check_memory(arena_elems_, "batched contraction arena");
  ws.batch_arena.ensure(arena_elems_);
  ws.scratch_a.resize(scratch_a_elems_);
  ws.scratch_b.resize(scratch_b_elems_);
  ws.idx.resize(max_rank_);
  // Executor seam: resolve the kernel table and the per-step shape-
  // specialized kernels once per traversal (not at compile_batched time --
  // PlanCache entries outlive NOISIM_KERNELS / set_kernel_tier changes).
  const tsr::KernelTable& kt = ws.kernels ? *ws.kernels : tsr::active_kernels();
  ws.step_kernels.resize(steps_.size());
  for (std::size_t s = 0; s < steps_.size(); ++s)
    ws.step_kernels[s] = kt.select(steps_[s].m, steps_[s].k, steps_[s].n);
  ws.vids.resize(steps_.size() * k);
  ws.key_a.resize(k);
  ws.key_b.resize(k);
  ws.ukey_a.resize(k);
  ws.ukey_b.resize(k);
  ws.urep.resize(k);

  // Variant keys of the varying inputs: in_vids[v*k + t] is the first term
  // whose substituted tensor at varying slot v is the same object as term
  // t's. Identical pointers => identical bits downstream, which is what the
  // per-step compaction scan propagates.
  ws.in_vids.resize(V * k);
  for (std::size_t v = 0; v < V; ++v) {
    DedupTable table(ws.htab, k);
    for (std::size_t t = 0; t < k; ++t) {
      const tsr::Tensor* ptr = varying[t * V + v];
      const std::uint32_t first = table.find_or_insert(
          reinterpret_cast<std::uintptr_t>(ptr), static_cast<std::uint32_t>(t),
          [&](std::uint32_t cand) { return varying[cand * V + v] == ptr; });
      ws.in_vids[v * k + t] = first == t ? static_cast<std::uint32_t>(t)
                                         : ws.in_vids[v * k + first];
    }
  }

  // Variant key of a slot for term t (uniform slots are key 0; varying
  // intermediates the unique-row index, varying inputs the first term with
  // the same pointer) and the buffer of a slot's row for term t. A varying
  // step stores ONE row per distinct variant, so terms sharing operands
  // share storage instead of duplicating it.
  auto slot_key = [&](std::size_t slot, std::size_t t) -> std::uint32_t {
    if (slot < num_in) {
      const std::ptrdiff_t vi = varying_index_of_input_[slot];
      return vi < 0 ? 0u : ws.in_vids[static_cast<std::size_t>(vi) * k + t];
    }
    const std::size_t ps = slot - num_in;
    return steps_[ps].varying_out ? ws.vids[ps * k + t] : 0u;
  };
  auto slot_row_ptr = [&](std::size_t slot, std::size_t t) -> const cplx* {
    if (slot < num_in) {
      const std::ptrdiff_t vi = varying_index_of_input_[slot];
      return vi < 0 ? shared[slot]->data()
                    : varying[t * V + static_cast<std::size_t>(vi)]->data();
    }
    const BatchedStep& ps = steps_[slot - num_in];
    if (ps.sequential) return ws.batch_arena.data() + ps.out_offset;  // current term's row
    return ws.batch_arena.data() + ps.out_offset +
           (ps.varying_out ? ws.vids[(slot - num_in) * k + t] * ps.out_elems : 0);
  };

  std::size_t kernels = 0, flops = 0, bytes = 0, peak = 0;
  auto kernel_bytes = [](const BatchedStep& st) {
    return sizeof(cplx) * (st.a_elems + st.b_elems + 2 * st.out_elems);
  };

  // PASS 1: batched steps (uniform and shared-cone), one traversal for the
  // whole batch. Sequential (root-region) steps are skipped here and
  // replayed per term in pass 2 -- they never feed a batched step.
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    fault::poke("exec-step-mo");
    fault::poke("exec-step-to");
    if (ws.control) ws.control->poll();
    if (has_deadline && Clock::now() > deadline)
      throw TimeoutError("batched tensor network contraction exceeded deadline");
    const BatchedStep& st = steps_[s];
    if (st.sequential) continue;
    cplx* out0 = ws.batch_arena.data() + st.out_offset;
    std::uint32_t* vid = ws.vids.data() + s * k;

    // Variant compaction: terms whose operand variant pairs match share one
    // output row (bit-identical by construction), so the step computes and
    // stores only the distinct rows. rows == k only where every term truly
    // differs (after the per-site cones merge near the root).
    std::size_t rows = 1;
    bool rows_linear = st.varying_out;  // row r reads operand slice r
    if (st.varying_out) {
      for (std::size_t t = 0; t < k; ++t) {
        ws.key_a[t] = slot_key(st.lhs, t);
        ws.key_b[t] = slot_key(st.rhs, t);
      }
      rows = 0;
      DedupTable table(ws.htab, k);
      for (std::size_t t = 0; t < k; ++t) {
        const std::uint64_t key =
            static_cast<std::uint64_t>(ws.key_a[t]) |
            (static_cast<std::uint64_t>(ws.key_b[t]) << 32);
        const std::uint32_t row = table.find_or_insert(
            key, static_cast<std::uint32_t>(rows), [&](std::uint32_t cand) {
              return ws.ukey_a[cand] == ws.key_a[t] && ws.ukey_b[cand] == ws.key_b[t];
            });
        if (row == rows) {
          la::detail::require(rows < st.row_bound,
                              "BatchedPlan::execute: more distinct substituted tensors than "
                              "the declared variant counts allow");
          ws.ukey_a[rows] = ws.key_a[t];
          ws.ukey_b[rows] = ws.key_b[t];
          ws.urep[rows] = static_cast<std::uint32_t>(t);
          if ((st.varying_a && ws.key_a[t] != t) || (st.varying_b && ws.key_b[t] != t))
            rows_linear = false;
          ++rows;
        }
        vid[t] = row;
      }
      if (rows != k) rows_linear = false;
    }

    std::fill(out0, out0 + rows * st.out_elems, cplx{0.0, 0.0});
    peak = std::max(peak, rows * st.out_elems);

    // Fast path: rows map 1:1 onto operand slices laid out contiguously in
    // the arena (uniform operands broadcast with stride 0) -- one
    // strided-batched call for the whole step.
    const bool a_strided = !st.varying_a || st.lhs >= num_in;
    const bool b_strided = !st.varying_b || st.rhs >= num_in;
    if (rows_linear && st.identity_a && st.identity_b && a_strided && b_strided) {
      const std::size_t a_stride = st.varying_a ? steps_[st.lhs - num_in].out_elems : 0;
      const std::size_t b_stride = st.varying_b ? steps_[st.rhs - num_in].out_elems : 0;
      kt.batched(slot_row_ptr(st.lhs, 0), slot_row_ptr(st.rhs, 0), out0, st.m, st.k, st.n,
                 rows, a_stride, b_stride, st.out_elems);
      kernels += rows;
      flops += rows * st.m * st.k * st.n;
      bytes += rows * kernel_bytes(st);
      continue;
    }

    // General path: one kernel call per distinct row, operands resolved
    // through the row's representative term, gather-table permutation into
    // slice-sized scratch (re-gathered only when the operand's variant
    // changes), and the kernel selected once per traversal.
    std::ptrdiff_t last_a = -1, last_b = -1;
    for (std::size_t u = 0; u < rows; ++u) {
      const std::size_t t = st.varying_out ? ws.urep[u] : 0;
      const cplx* pa = slot_row_ptr(st.lhs, t);
      if (!st.identity_a) {
        const std::ptrdiff_t cur = st.varying_a ? static_cast<std::ptrdiff_t>(ws.ukey_a[u]) : 0;
        if (cur != last_a) {
          if (!st.a_gather.empty())
            tsr::gather_walk(pa, st.a_gather, ws.scratch_a.data());
          else
            tsr::permute_walk(pa, st.a_perm_shape, st.a_src_stride, ws.scratch_a.data(),
                              st.a_elems, ws.idx.data());
          bytes += sizeof(cplx) * 2 * st.a_elems;
          last_a = cur;
        }
        pa = ws.scratch_a.data();
      }
      const cplx* pb = slot_row_ptr(st.rhs, t);
      if (!st.identity_b) {
        const std::ptrdiff_t cur = st.varying_b ? static_cast<std::ptrdiff_t>(ws.ukey_b[u]) : 0;
        if (cur != last_b) {
          if (!st.b_gather.empty())
            tsr::gather_walk(pb, st.b_gather, ws.scratch_b.data());
          else
            tsr::permute_walk(pb, st.b_perm_shape, st.b_src_stride, ws.scratch_b.data(),
                              st.b_elems, ws.idx.data());
          bytes += sizeof(cplx) * 2 * st.b_elems;
          last_b = cur;
        }
        pb = ws.scratch_b.data();
      }
      ws.step_kernels[s](pa, pb, out0 + u * st.out_elems, st.m, st.k, st.n);
      ++kernels;
      flops += st.m * st.k * st.n;
      bytes += kernel_bytes(st);
    }
  }

  // Result tensor [k, <output shape>...] with every term's axes in
  // ascending open-edge order.
  std::vector<std::size_t> result_shape;
  result_shape.reserve(1 + output_shape_.size());
  result_shape.push_back(k);
  result_shape.insert(result_shape.end(), output_shape_.begin(), output_shape_.end());
  tsr::Tensor result(result_shape);
  const std::size_t out_elems = result.size() / k;
  auto materialize = [&](const cplx* src, cplx* dst) {
    if (output_identity_)
      std::copy(src, src + out_elems, dst);
    else if (!output_gather_.empty())
      tsr::gather_walk(src, output_gather_, dst);
    else
      tsr::permute_walk(src, output_shape_, output_src_stride_, dst, out_elems, ws.idx.data());
  };

  // PASS 2: the sequential (root) region, term by term through the reused
  // per-term arena segment -- the same locality as per-term replay, but
  // reading its cone inputs from the rows pass 1 already computed. Terms
  // whose boundary signature (variant keys of every batched slot the
  // region reads) matches an earlier term's are bit-identical end to end:
  // their pass is skipped and the finished output slice copied.
  if (has_seq_) {
    const std::size_t B = boundary_.size();
    ws.sig.resize(k * B);
    ws.term_rep.resize(k);
    for (std::size_t t = 0; t < k; ++t)
      for (std::size_t b = 0; b < B; ++b) ws.sig[t * B + b] = slot_key(boundary_[b], t);
    {
      DedupTable table(ws.htab, k);
      for (std::size_t t = 0; t < k; ++t) {
        std::uint64_t key = 0xcbf29ce484222325ULL;  // FNV-1a fold of the row
        for (std::size_t b = 0; b < B; ++b)
          key = (key ^ ws.sig[t * B + b]) * 0x100000001b3ULL;
        ws.term_rep[t] = table.find_or_insert(
            key, static_cast<std::uint32_t>(t), [&](std::uint32_t cand) {
              for (std::size_t b = 0; b < B; ++b)
                if (ws.sig[cand * B + b] != ws.sig[t * B + b]) return false;
              return true;
            });
      }
    }

    // Per-step variant representatives: vids[s*k + t] is the first term
    // whose operand variants at step s match term t's. A sequential buffer
    // holding variant r can be REUSED by every later term mapping to r
    // (enumeration orders that group related terms make these runs long) --
    // the step's kernel is skipped and the buffer read as-is, which is the
    // same bits by induction.
    for (std::size_t s = 0; s < steps_.size(); ++s) {
      const BatchedStep& st = steps_[s];
      if (!st.sequential) continue;
      std::uint32_t* vid = ws.vids.data() + s * k;
      for (std::size_t t = 0; t < k; ++t) {
        ws.key_a[t] = slot_key(st.lhs, t);
        ws.key_b[t] = slot_key(st.rhs, t);
      }
      DedupTable table(ws.htab, k);
      for (std::size_t t = 0; t < k; ++t) {
        const std::uint64_t key =
            static_cast<std::uint64_t>(ws.key_a[t]) |
            (static_cast<std::uint64_t>(ws.key_b[t]) << 32);
        vid[t] = table.find_or_insert(
            key, static_cast<std::uint32_t>(t), [&](std::uint32_t cand) {
              return ws.key_a[cand] == ws.key_a[t] && ws.key_b[cand] == ws.key_b[t];
            });
      }
    }
    ws.seq_last.assign(steps_.size(), static_cast<std::uint32_t>(-1));

    for (std::size_t t = 0; t < k; ++t) {
      fault::poke("exec-step-mo");
      fault::poke("exec-step-to");
      if (ws.control) ws.control->poll();
      if (has_deadline && Clock::now() > deadline)
        throw TimeoutError("batched tensor network contraction exceeded deadline");
      if (ws.term_rep[t] != t) {
        std::copy(result.data() + ws.term_rep[t] * out_elems,
                  result.data() + (ws.term_rep[t] + 1) * out_elems,
                  result.data() + t * out_elems);
        bytes += sizeof(cplx) * 2 * out_elems;
        continue;
      }
      for (std::size_t s = 0; s < steps_.size(); ++s) {
        const BatchedStep& st = steps_[s];
        if (!st.sequential) continue;
        const std::uint32_t rep = ws.vids[s * k + t];
        if (ws.seq_last[s] == rep) continue;  // buffer already holds this variant
        cplx* out0 = ws.batch_arena.data() + st.out_offset;
        std::fill(out0, out0 + st.out_elems, cplx{0.0, 0.0});
        peak = std::max(peak, st.out_elems);
        // Operands change every term here, so permutations are fused into
        // the kernel through the gather tables (each operand read once in
        // place) rather than copied to scratch; only permutations too big
        // for a table still go through the walk.
        const cplx* pa = slot_row_ptr(st.lhs, t);
        const std::uint32_t* a_idx = nullptr;
        if (!st.identity_a) {
          if (!st.a_gather.empty()) {
            a_idx = st.a_gather.data();
          } else {
            tsr::permute_walk(pa, st.a_perm_shape, st.a_src_stride, ws.scratch_a.data(),
                              st.a_elems, ws.idx.data());
            bytes += sizeof(cplx) * 2 * st.a_elems;
            pa = ws.scratch_a.data();
          }
        }
        const cplx* pb = slot_row_ptr(st.rhs, t);
        const std::uint32_t* b_idx = nullptr;
        if (!st.identity_b) {
          if (!st.b_gather.empty()) {
            b_idx = st.b_gather.data();
          } else {
            tsr::permute_walk(pb, st.b_perm_shape, st.b_src_stride, ws.scratch_b.data(),
                              st.b_elems, ws.idx.data());
            bytes += sizeof(cplx) * 2 * st.b_elems;
            pb = ws.scratch_b.data();
          }
        }
        if (a_idx || b_idx)
          kt.gathered(pa, a_idx, pb, b_idx, out0, st.m, st.k, st.n);
        else
          ws.step_kernels[s](pa, pb, out0, st.m, st.k, st.n);
        ws.seq_last[s] = rep;
        ++kernels;
        flops += st.m * st.k * st.n;
        bytes += kernel_bytes(st);
      }
      // The sequential buffers hold term t's values right now; materialize
      // before the next term overwrites them. (When any step is
      // sequential, the final step is: cone masks only grow.)
      materialize(slot_row_ptr(num_in + steps_.size() - 1, t), result.data() + t * out_elems);
    }
  } else {
    const std::size_t src_slot = steps_.empty() ? 0 : num_in + steps_.size() - 1;
    for (std::size_t t = 0; t < k; ++t)
      materialize(slot_row_ptr(src_slot, t), result.data() + t * out_elems);
  }
  bytes += sizeof(cplx) * 2 * out_elems * k;

  const std::size_t prior = executions_->fetch_add(k, std::memory_order_relaxed);
  if (stats) {
    stats->num_pairwise += kernels;
    tally_kernels(*stats, kt.tier, kernels);
    stats->peak_elems = std::max(stats->peak_elems, peak);
    stats->plan_executions += k;
    stats->plan_reuse_hits += prior > 0 ? k : k - 1;
    stats->flops += flops;
    stats->bytes_moved += bytes;
    stats->elapsed_seconds += std::chrono::duration<double>(Clock::now() - started).count();
  }
  return result;
}

std::string ContractionPlan::fingerprint() const {
  std::ostringstream os;
  os << "inputs:" << input_elems_.size() << ";arena:" << arena_elems_ << ";peak:" << peak_elems_;
  for (const PlanStep& s : steps_) {
    os << "|" << s.lhs << "x" << s.rhs << ":" << s.m << "," << s.k << "," << s.n << "@"
       << s.out_offset;
    os << ";pa=";
    if (s.identity_a)
      os << "id";
    else
      for (std::size_t i = 0; i < s.a_perm_shape.size(); ++i)
        os << s.a_perm_shape[i] << "/" << s.a_src_stride[i] << (i + 1 < s.a_perm_shape.size() ? "," : "");
    os << ";pb=";
    if (s.identity_b)
      os << "id";
    else
      for (std::size_t i = 0; i < s.b_perm_shape.size(); ++i)
        os << s.b_perm_shape[i] << "/" << s.b_src_stride[i] << (i + 1 < s.b_perm_shape.size() ? "," : "");
  }
  os << "|out:";
  if (output_identity_)
    os << "id";
  else
    for (std::size_t i = 0; i < output_shape_.size(); ++i)
      os << output_shape_[i] << "/" << output_src_stride_[i]
         << (i + 1 < output_shape_.size() ? "," : "");
  return os.str();
}

}  // namespace noisim::tn
