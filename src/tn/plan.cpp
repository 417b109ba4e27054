#include "tn/plan.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>

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

  void clear() {
    free_.clear();
    end_ = 0;
  }

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
  std::uint32_t u, v;
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
bool cheaper(std::size_t flops, std::size_t peak, const ScoredOrder& kept) {
  return flops < kept.flops || (flops == kept.flops && peak < kept.peak);
}

constexpr std::size_t kNoBound = std::numeric_limits<std::size_t>::max();

/// Score weights of the Greedy ladder (score = result_size - weight *
/// (size_a + size_b)), walked in this order; weight 1.0 leads so a
/// different schedule is chosen only when strictly cheaper. Every entry
/// multiplies one-shot planning cost, so the ladder stays at two.
constexpr std::array<double, 2> kGreedyCostWeights{1.0, 4.0};

}  // namespace

/// Shape-and-edge-only replica of the contractor's working state. Every
/// candidate order is a scored walk: merge() tracks edges, dims, the
/// per-intermediate budget, flops and peak, and records the pair it merged.
/// A materializing walk also lays out the arena and emits the PlanSteps
/// (permutation stride tables, traffic model) that finalize() turns into a
/// ContractionPlan; compile() runs one, replaying the winning candidate's
/// pairs through the same merge(). The pairwise order, tie-breaking, and
/// budget checks mirror the eager contractor exactly, so a compiled plan
/// replays to bit-identical results.
///
/// compile() builds ONE compiler and reset()s it between walks. State is
/// flat: each node is an (offset, rank, elems) record into shared edge and
/// dim pools (the inputs' prefix survives a reset), and each edge id owns
/// two endpoint slots -- a tn::Network edge has at most two -- so merges
/// and neighbour scans run in reused buffers and allocate nothing per step.
struct PlanCompiler {
  static constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

  struct NodeRec {
    std::size_t offset = 0;  // first axis in edge_pool / dim_pool
    std::size_t rank = 0;
    std::size_t elems = 1;
  };

  const Network& net;
  const ContractOptions& opts;
  const std::size_t num_inputs;

  // Slots 0..num_inputs-1 are the network's nodes, slot num_inputs + s the
  // output of merge s.
  std::vector<NodeRec> nodes;
  std::vector<char> alive;
  std::vector<EdgeId> edge_pool;
  std::vector<std::size_t> dim_pool;
  std::size_t input_axes = 0;  // pool prefix holding the inputs' axes
  // owners[2e], owners[2e+1]: the slots holding edge e (kNoNode when
  // empty; slot 0 fills first). input_owners is the reset state.
  std::vector<std::uint32_t> owners, input_owners;

  // Per-walk state, cleared by reset().
  bool materialize = false;
  std::size_t flop_bound = kNoBound;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // merge order
  std::vector<PlanStep> steps;                              // materialize only
  ArenaLayout arena;
  std::vector<std::size_t> slot_offset;  // arena offset (0 unless materialize)
  std::size_t peak = 0;
  std::size_t flops = 0;  // sum of m*k*n over all steps (schedule cost)
  std::size_t bytes = 0;  // modeled memory traffic of one replay
  std::size_t scratch_a = 0, scratch_b = 0;

  // Reused scratch.
  std::vector<Candidate> heap;
  std::vector<std::size_t> nbrs, rest, axes_u, axes_v, free_a, free_b;

  PlanCompiler(const Network& n, const ContractOptions& o)
      : net(n), opts(o), num_inputs(n.num_nodes()) {
    // Slots are stored as uint32 with kNoNode reserved: a compile creates
    // 2 * num_inputs - 1 of them.
    la::detail::require(num_inputs < kNoNode / 2, "ContractionPlan: network too large");
    std::size_t num_edges = 0;
    for (const Node& node : net.nodes())
      for (const EdgeId e : node.edges) num_edges = std::max(num_edges, e + 1);
    input_owners.assign(2 * num_edges, kNoNode);
    nodes.reserve(2 * num_inputs);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      const Node& node = net.node(i);
      nodes.push_back(NodeRec{edge_pool.size(), node.edges.size(), node.tensor.size()});
      for (std::size_t ax = 0; ax < node.edges.size(); ++ax) {
        const EdgeId e = node.edges[ax];
        edge_pool.push_back(e);
        dim_pool.push_back(node.tensor.dim(ax));
        input_owners[2 * e + (input_owners[2 * e] == kNoNode ? 0 : 1)] =
            static_cast<std::uint32_t>(i);
      }
    }
    input_axes = edge_pool.size();
  }

  /// Back to the unmerged network for a new walk. A walk whose running
  /// flops exceed `bound` stops early (see greedy()).
  void reset(bool materialize_steps, std::size_t bound) {
    nodes.resize(num_inputs);
    alive.assign(num_inputs, 1);
    edge_pool.resize(input_axes);
    dim_pool.resize(input_axes);
    owners = input_owners;
    materialize = materialize_steps;
    flop_bound = bound;
    pairs.clear();
    steps.clear();
    arena.clear();
    slot_offset.assign(num_inputs, 0);
    peak = flops = bytes = scratch_a = scratch_b = 0;
  }

  void poll_control() const {
    if (opts.control) opts.control->poll();
  }

  /// The slot across edge e from `self` (kNoNode for an open edge).
  std::uint32_t other_owner(EdgeId e, std::size_t self) const {
    return owners[2 * e] == self ? owners[2 * e + 1] : owners[2 * e];
  }

  EdgeId edge(std::size_t slot, std::size_t ax) const { return edge_pool[nodes[slot].offset + ax]; }
  std::size_t dim(std::size_t slot, std::size_t ax) const { return dim_pool[nodes[slot].offset + ax]; }

  bool connected(std::size_t u, std::size_t v) const {
    for (std::size_t ax = 0; ax < nodes[u].rank; ++ax)
      if (other_owner(edge(u, ax), u) == v) return true;
    return false;
  }

  /// Product of the dims shared between u and v (only pairs adjacent to a
  /// merge are ever (re)scored).
  std::size_t shared_dims(std::size_t u, std::size_t v) const {
    std::size_t prod = 1;
    for (std::size_t ax = 0; ax < nodes[u].rank; ++ax)
      if (other_owner(edge(u, ax), u) == v) prod *= dim(u, ax);
    return prod;
  }

  std::size_t result_size(std::size_t u, std::size_t v) const {
    const std::size_t shared = shared_dims(u, v);
    return (nodes[u].elems / shared) * (nodes[v].elems / shared);
  }

  /// Slot i's neighbours, ascending and unique, into `nbrs`.
  void neighbors(std::size_t i) {
    nbrs.clear();
    for (std::size_t ax = 0; ax < nodes[i].rank; ++ax) {
      const std::uint32_t n = other_owner(edge(i, ax), i);
      if (n != kNoNode) nbrs.push_back(n);
    }
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }

  /// Alive slots, ascending, into `rest`.
  void alive_nodes() {
    rest.clear();
    for (std::size_t i = 0; i < alive.size(); ++i)
      if (alive[i]) rest.push_back(i);
  }

  /// Operand permutation `perm` of slot s: identity, or the permuted shape
  /// and source strides of its walk and the walk compiled from them.
  void permutation(std::size_t s, std::span<const std::size_t> perm, bool& identity,
                   std::vector<std::size_t>& shape, std::vector<std::size_t>& stride,
                   tsr::PermuteWalk& walk, std::size_t& scratch) {
    identity = tsr::is_identity_permutation(perm);
    if (identity) return;
    const std::vector<std::size_t> strides = tsr::row_major_strides(std::vector<std::size_t>(
        dim_pool.begin() + nodes[s].offset, dim_pool.begin() + nodes[s].offset + nodes[s].rank));
    for (std::size_t p : perm) {
      shape.push_back(dim(s, p));
      stride.push_back(strides[p]);
    }
    walk = tsr::compile_walk(shape, stride);
    scratch = std::max(scratch, nodes[s].elems);
  }

  /// Plan the contraction of slots u and v; returns the new slot index.
  std::size_t merge(std::size_t u, std::size_t v) {
    poll_control();
    const NodeRec nu = nodes[u];
    const NodeRec nv = nodes[v];

    // Shared edges in u-axis order; v axes located per shared edge -- the
    // same pairing the eager contractor fed to tsr::contract.
    axes_u.clear();
    axes_v.clear();
    free_a.clear();
    free_b.clear();
    const EdgeId* ev = edge_pool.data() + nv.offset;
    for (std::size_t ax = 0; ax < nu.rank; ++ax) {
      const EdgeId e = edge(u, ax);
      if (other_owner(e, u) == v) {
        axes_u.push_back(ax);
        axes_v.push_back(static_cast<std::size_t>(std::find(ev, ev + nv.rank, e) - ev));
      } else {
        free_a.push_back(ax);
      }
    }
    for (std::size_t ax = 0; ax < nv.rank; ++ax)
      if (other_owner(ev[ax], v) != u) free_b.push_back(ax);

    std::size_t m = 1, k = 1, n = 1;
    for (std::size_t ax : free_a) m *= dim(u, ax);
    for (std::size_t ax : axes_u) k *= dim(u, ax);
    for (std::size_t ax : free_b) n *= dim(v, ax);
    const std::size_t out_elems = m * n;

    if (out_elems > opts.max_tensor_elems)
      throw MemoryOutError("tensor network contraction exceeded memory budget (intermediate of " +
                           std::to_string(out_elems) + " elements)");

    // Arena: the output region is claimed while both operands are still
    // live (no overlap), then consumed operand regions are recycled.
    // Scoring walks skip it.
    std::size_t out_offset = 0;
    if (materialize) {
      out_offset = arena.alloc(out_elems);
      if (u >= num_inputs) arena.release(slot_offset[u], nu.elems);
      if (v >= num_inputs) arena.release(slot_offset[v], nv.elems);
    }

    peak = std::max(peak, out_elems);
    flops += m * k * n;
    pairs.emplace_back(u, v);

    if (materialize) {
      PlanStep step;
      step.lhs = u;
      step.rhs = v;
      step.a_elems = nu.elems;
      step.b_elems = nv.elems;
      step.m = m;
      step.k = k;
      step.n = n;
      step.shape = tsr::matmul_shape(m, k, n);
      step.out_offset = out_offset;
      step.out_elems = out_elems;
      // Operand permutations: lhs to [free..., contracted...], rhs to
      // [contracted..., free...]. Identity permutations are recorded as
      // in-place reads (no scratch, no copy at execution).
      std::vector<std::size_t> perm_a = free_a;
      perm_a.insert(perm_a.end(), axes_u.begin(), axes_u.end());
      std::vector<std::size_t> perm_b = axes_v;
      perm_b.insert(perm_b.end(), free_b.begin(), free_b.end());
      permutation(u, perm_a, step.identity_a, step.a_perm_shape, step.a_src_stride, step.a_walk,
                  scratch_a);
      permutation(v, perm_b, step.identity_b, step.b_perm_shape, step.b_src_stride, step.b_walk,
                  scratch_b);
      // Traffic model: operand reads (plus a read+write permutation copy
      // when not identity), one output write.
      bytes += sizeof(cplx) * (step.a_elems * (step.identity_a ? 1 : 3) +
                               step.b_elems * (step.identity_b ? 1 : 3) + step.out_elems);
      steps.push_back(std::move(step));
    }

    // The merged node: u's free axes, then v's. Its free edges change
    // owner from u or v to the new slot; contracted edges vanish.
    const std::size_t idx = nodes.size();
    const std::size_t offset = edge_pool.size();
    for (std::size_t ax : free_a) {
      edge_pool.push_back(edge_pool[nu.offset + ax]);
      dim_pool.push_back(dim_pool[nu.offset + ax]);
    }
    for (std::size_t ax : free_b) {
      edge_pool.push_back(edge_pool[nv.offset + ax]);
      dim_pool.push_back(dim_pool[nv.offset + ax]);
    }
    for (std::size_t i = offset; i < edge_pool.size(); ++i) {
      std::uint32_t* slot = &owners[2 * edge_pool[i]];
      slot[slot[0] == u || slot[0] == v ? 0 : 1] = static_cast<std::uint32_t>(idx);
    }
    for (std::size_t ax : axes_u) {
      const EdgeId e = edge_pool[nu.offset + ax];
      owners[2 * e] = owners[2 * e + 1] = kNoNode;
    }
    alive[u] = alive[v] = 0;
    nodes.push_back(NodeRec{offset, edge_pool.size() - offset, out_elems});
    alive.push_back(1);
    slot_offset.push_back(out_offset);
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
  ///
  /// The candidate heap is std::priority_queue's algorithm (push_heap /
  /// pop_heap under std::greater) on a reused vector, so tied candidates
  /// pop in the same order. Stale entries stay in the heap and are skipped
  /// when popped; dropping them early would change the heap layout, and
  /// with it which tied candidate wins.
  ///
  /// Once the running flops pass `flop_bound` the walk returns unfinished:
  /// its total can only grow, so it can no longer replace the kept order.
  void greedy(double alpha, SplitMix64* rng = nullptr, double jitter = 0.0) {
    heap.clear();
    auto push_pair = [&](std::size_t u, std::size_t v) {
      if (u > v) std::swap(u, v);
      const std::size_t rs = result_size(u, v);
      double weight = alpha;
      if (rng) weight *= std::exp(jitter * (2.0 * rng->uniform() - 1.0));
      const double score = static_cast<double>(rs) -
                           weight * (static_cast<double>(nodes[u].elems) +
                                     static_cast<double>(nodes[v].elems));
      heap.push_back(
          Candidate{score, rs, static_cast<std::uint32_t>(u), static_cast<std::uint32_t>(v)});
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    };

    for (std::size_t i = 0; i < num_inputs; ++i)
      if (alive[i]) {
        poll_control();
        neighbors(i);
        for (std::size_t nb : nbrs)
          if (nb > i) push_pair(i, nb);
      }

    bool saw_over_budget = false;
    while (!heap.empty()) {
      // Polled per candidate, not just per merge: stale/over-budget
      // candidates can dominate the drain on dense networks, and a fired
      // control must abandon the whole compile within bounded latency.
      poll_control();
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const Candidate c = heap.back();
      heap.pop_back();
      if (!alive[c.u] || !alive[c.v]) continue;
      if (c.result > opts.max_tensor_elems) {
        saw_over_budget = true;
        continue;
      }
      const std::size_t merged = merge(c.u, c.v);
      if (flops > flop_bound) return;
      neighbors(merged);
      for (std::size_t nb : nbrs) push_pair(merged, nb);
    }

    // Remaining alive nodes are mutually disconnected. If that is only
    // because every connected pair was over budget, report MO rather than
    // planning a wrong outer product.
    alive_nodes();
    for (std::size_t i = 0; i < rest.size(); ++i)
      for (std::size_t j = i + 1; j < rest.size(); ++j)
        if (connected(rest[i], rest[j])) {
          if (saw_over_budget)
            throw MemoryOutError("greedy contraction: all remaining pairs exceed memory budget");
          la::detail::fail("greedy contraction: internal error, connected pair left behind");
        }

    // Fold disconnected components smallest-first (outer products).
    while (true) {
      alive_nodes();
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

  ContractionPlan finalize() {
    alive_nodes();
    la::detail::require(rest.size() == 1, "contract plan: network did not reduce to one node");
    const std::size_t result = rest[0];
    const std::size_t rank = nodes[result].rank;
    const EdgeId* result_edges = edge_pool.data() + nodes[result].offset;
    const std::vector<std::size_t> result_dims(dim_pool.begin() + nodes[result].offset,
                                               dim_pool.begin() + nodes[result].offset + rank);

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
    for (std::size_t d : result_dims) out_total *= d;
    plan.total_bytes_ = bytes + sizeof(cplx) * 2 * out_total;  // final materialization
    plan.executions_ = std::make_shared<std::atomic<std::size_t>>(0);

    // Deterministic output: axes in ascending open-edge order.
    const std::vector<EdgeId> open = net.open_edges();
    la::detail::require(open.size() == rank, "contract plan: open edge bookkeeping mismatch");
    std::vector<std::size_t> perm(open.size());
    for (std::size_t i = 0; i < open.size(); ++i) {
      const EdgeId* it = std::find(result_edges, result_edges + rank, open[i]);
      la::detail::require(it != result_edges + rank, "contract plan: open edge missing");
      perm[i] = static_cast<std::size_t>(it - result_edges);
    }
    plan.output_identity_ = tsr::is_identity_permutation(perm);
    const std::vector<std::size_t> strides = tsr::row_major_strides(result_dims);
    for (std::size_t p : perm) {
      plan.output_shape_.push_back(result_dims[p]);
      if (!plan.output_identity_) plan.output_src_stride_.push_back(strides[p]);
    }
    if (!plan.output_identity_)
      plan.output_walk_ = tsr::compile_walk(plan.output_shape_, plan.output_src_stride_);
    return plan;
  }
};

ContractionPlan ContractionPlan::compile(const Network& net, const ContractOptions& opts,
                                         ContractStats* stats) {
  la::detail::require(net.num_nodes() > 0, "ContractionPlan: empty network has no nodes");
  fault::poke("plan-mo");
  fault::poke("plan-to");
  if (opts.control) opts.control->poll();

  // One compiler serves every walk of this call; each walk starts from a
  // reset.
  PlanCompiler compiler(net, opts);

  // The cheapest candidate order of strategy `s`, scored without
  // materializing anything. A candidate that exceeds a memory budget is
  // skipped -- other ladder entries may still fit -- and MemoryOutError
  // surfaces only when none does. Within the strategy, each walk is
  // bounded by the best flops so far: a walk that passes them stops, since
  // it could not replace the kept order (ties still go to the earlier
  // candidate, and the strategy's recorded best is exact). TimeoutError
  // always propagates: returning a best-so-far at the deadline would make
  // plan selection depend on wall clock, breaking the purity contract
  // PlanCache and bit-identical replay rest on.
  auto search = [&](OrderStrategy s) -> ScoredOrder {
    std::optional<ScoredOrder> best;
    std::string memory_out;  // the last candidate's memory-out message
    auto attempt = [&](auto&& walk) {
      try {
        compiler.reset(/*materialize_steps=*/false, best ? best->flops : kNoBound);
        walk(compiler);
        if (!best || cheaper(compiler.flops, compiler.peak, *best))
          best = ScoredOrder{compiler.pairs, compiler.flops, compiler.peak};
      } catch (const MemoryOutError& e) {
        memory_out = e.what();
      }
    };
    switch (s) {
      case OrderStrategy::Greedy:
        // A deterministic ladder of score weights. Planning happens once
        // per topology while the plan replays per term, so a second walk
        // at plan time is cheap -- and routinely finds schedules several
        // times cheaper than alpha = 1 alone.
        for (const double alpha : kGreedyCostWeights)
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
  // the memory budget. With a known replay count the RandomGreedy restarts
  // run only when the replays they serve can repay their modeled cost.
  OrderStrategy chosen = opts.strategy;
  std::optional<ScoredOrder> order;
  if (opts.strategy == OrderStrategy::Auto) {
    // The restarts repay when replays x best_flops >= restart_cost, tested
    // by a ceiling division that cannot overflow.
    const std::size_t restart_cost =
        kRestartMacPerNode * kRandomGreedyRestarts * compiler.num_inputs;
    for (const OrderStrategy s :
         {OrderStrategy::Greedy, OrderStrategy::Alternating, OrderStrategy::RandomGreedy}) {
      if (s == OrderStrategy::RandomGreedy && opts.replays > 0 && order &&
          order->flops < (restart_cost + opts.replays - 1) / opts.replays)
        continue;
      try {
        ScoredOrder cand = search(s);
        if (!order || cheaper(cand.flops, cand.peak, *order)) {
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
  // already passed. The candidate heap is freed first, so the plan's steps
  // do not add to the scoring walks' peak memory.
  std::vector<Candidate>().swap(compiler.heap);
  compiler.reset(/*materialize_steps=*/true, kNoBound);
  for (const auto& [u, v] : order->pairs) compiler.merge(u, v);
  ContractionPlan plan = compiler.finalize();
  plan.chosen_strategy_ = chosen;
  if (stats) {
    ++stats->plans_compiled;
    ++stats->strategy_chosen[static_cast<std::size_t>(chosen)];
  }
  return plan;
}

namespace {

/// What one traversal did, for its ContractStats tally.
struct Tally {
  std::size_t kernels = 0, flops = 0, bytes = 0, peak = 0;
};

/// The frame of every executor's traversal (ContractionPlan, BatchedPlan,
/// EnvSchedule): up front the arena meets the control's memory ceiling,
/// the scratch is sized and the kernel table resolved (per traversal, so
/// cached plans follow tier switches); step() runs before each step;
/// finish() tallies the replay counter and stats. Each executor commits
/// its own arena buffer once the frame is set up.
class TraversalFrame {
 public:
  TraversalFrame(PlanWorkspace& ws, std::size_t arena_elems, const char* arena_name,
                 std::size_t scratch_a_elems, std::size_t scratch_b_elems)
      : kt(ws.kernels ? *ws.kernels : tsr::active_kernels()),  // the executor seam
        control_(ws.control),
        started_(Clock::now()) {
    if (control_) control_->check_memory(arena_elems, arena_name);
    ws.scratch_a.resize(scratch_a_elems);
    ws.scratch_b.resize(scratch_b_elems);
  }

  const tsr::KernelTable& kt;

  /// Once per step, before it runs.
  void step() const {
    fault::poke("exec-step-mo");
    fault::poke("exec-step-to");
    if (control_) control_->poll();
  }

  /// `terms` executions of the plan took `tally`'s work.
  void finish(std::atomic<std::size_t>& executions, std::size_t terms, const Tally& tally,
              ContractStats* stats) const {
    const std::size_t prior = executions.fetch_add(terms, std::memory_order_relaxed);
    if (!stats) return;
    constexpr std::size_t ContractStats::*kByTier[tsr::kNumKernelTiers] = {
        &ContractStats::kernels_scalar, &ContractStats::kernels_avx2,
        &ContractStats::kernels_avx512};
    stats->num_pairwise += tally.kernels;
    stats->*kByTier[static_cast<std::size_t>(kt.tier)] += tally.kernels;
    stats->peak_elems = std::max(stats->peak_elems, tally.peak);
    stats->plan_executions += terms;
    stats->plan_reuse_hits += prior > 0 ? terms : terms - 1;
    stats->flops += tally.flops;
    stats->bytes_moved += tally.bytes;
    stats->elapsed_seconds += std::chrono::duration<double>(Clock::now() - started_).count();
  }

 private:
  const core::RunControl* control_;
  Clock::time_point started_;
};

/// One forward step of a plan: operands permuted into scratch where
/// needed, then the table's kernel for the step's shape rung writes the
/// output. ContractionPlan::execute and EnvSchedule::execute share it, so
/// their values agree bit for bit.
void run_step(const ExecStep& step, const cplx* pa, const cplx* pb, cplx* out,
              PlanWorkspace& ws, const tsr::KernelTable& kt) {
  if (!step.identity_a) {
    tsr::permute_walk(pa, step.a_walk, ws.scratch_a.data());
    pa = ws.scratch_a.data();
  }
  if (!step.identity_b) {
    tsr::permute_walk(pb, step.b_walk, ws.scratch_b.data());
    pb = ws.scratch_b.data();
  }
  kt.matmul[step.shape](pa, pb, out, step.m, step.k, step.n);
}

/// The walk reading an operand as the transpose of its permuted matrix
/// form. The operand's walk (shape, stride) -- or, for an identity
/// permutation, [rows, cols] at strides [cols, 1] -- reads it as a
/// rows x cols matrix; its axes split into a leading group of product
/// `rows` and the rest, and swapping the groups reads the transpose.
/// Returns the compiled walk, or nothing when it is a contiguous read, so
/// the operand can be used in place.
std::optional<tsr::PermuteWalk> transposed_walk(bool identity, std::span<const std::size_t> shape,
                                                std::span<const std::size_t> stride,
                                                std::size_t rows, std::size_t cols) {
  std::vector<std::size_t> sh(shape.begin(), shape.end()), st(stride.begin(), stride.end());
  if (identity) {
    sh = {rows, cols};
    st = {cols, 1};
  }
  std::size_t split = 0;
  for (std::size_t prod = 1; prod != rows; prod *= sh[split++])
    la::detail::require(split < sh.size(), "compile_env: operand does not split at its rows");
  std::rotate(sh.begin(), sh.begin() + static_cast<std::ptrdiff_t>(split), sh.end());
  std::rotate(st.begin(), st.begin() + static_cast<std::ptrdiff_t>(split), st.end());
  tsr::PermuteWalk walk = tsr::compile_walk(sh, st);
  if (walk.contiguous()) return std::nullopt;
  return walk;
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

  const TraversalFrame frame(ws, arena_elems_, "contraction arena", scratch_a_elems_,
                            scratch_b_elems_);
  ws.arena.resize(arena_elems_);
  for (const PlanStep& step : steps_) {
    frame.step();
    run_step(step, slot_data(step.lhs, inputs, ws), slot_data(step.rhs, inputs, ws),
             ws.arena.data() + step.out_offset, ws, frame.kt);
  }

  // Materialize the result with axes in ascending open-edge order.
  const cplx* src =
      steps_.empty() ? inputs[0]->data() : ws.arena.data() + steps_.back().out_offset;
  tsr::Tensor result(output_shape_);
  if (output_identity_)
    std::copy(src, src + result.size(), result.data());
  else
    tsr::permute_walk(src, output_walk_, result.data());

  frame.finish(*executions_, 1, {steps_.size(), total_flops_, total_bytes_, peak_elems_}, stats);
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
  la::detail::require(variant_counts.size() == varying_slots.size(),
                      "compile_batched: one variant count per varying slot");
  la::detail::require(unconstrained.empty() || unconstrained.size() == varying_slots.size(),
                      "compile_batched: one unconstrained flag per varying slot");
  for (std::size_t c : variant_counts)
    la::detail::require(c >= 1, "compile_batched: variant counts must be positive");
  const std::size_t num_in = input_elems_.size();

  BatchedPlan bp;
  bp.capacity_ = capacity;
  bp.input_elems_ = input_elems_;
  bp.scratch_a_elems_ = scratch_a_elems_;
  bp.scratch_b_elems_ = scratch_b_elems_;
  bp.output_identity_ = output_identity_;
  bp.output_shape_ = output_shape_;
  bp.output_walk_ = output_walk_;
  bp.varying_index_of_input_.assign(num_in, -1);
  for (std::size_t v = 0; v < varying_slots.size(); ++v) {
    const std::size_t slot = varying_slots[v];
    la::detail::require(slot < num_in, "compile_batched: varying slot out of range");
    la::detail::require(bp.varying_index_of_input_[slot] < 0,
                        "compile_batched: repeated varying slot");
    bp.varying_index_of_input_[slot] = static_cast<std::ptrdiff_t>(v);
  }
  bp.varying_slots_.assign(varying_slots.begin(), varying_slots.end());

  // Replay the schedule shape-only to lay out the arenas.
  //
  // Each step's ROW BOUND is the number of distinct values its output can
  // take across a batch: the variant structure of the varying slots in its
  // dependency cone (a bitset over the varying slots), truncated by the
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
  const std::size_t words = (varying_slots.size() + 63) / 64;
  std::vector<std::uint64_t> slot_mask((num_in + steps_.size()) * words, 0);
  for (std::size_t i = 0; i < num_in; ++i)
    slot_varying[i] = bp.varying_index_of_input_[i] >= 0 ? 1 : 0;
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

  bp.steps_.reserve(steps_.size());
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    const PlanStep& step = steps_[s];
    BatchedStep bs;
    static_cast<ExecStep&>(bs) = step;
    bs.varying_a = slot_varying[step.lhs] != 0;
    bs.varying_b = slot_varying[step.rhs] != 0;
    bs.varying_out = bs.varying_a || bs.varying_b;
    if (!step.identity_a && tsr::permute_gather_applies(step.a_elems))
      bs.a_gather = tsr::permute_gather(step.a_perm_shape, step.a_src_stride);
    if (!step.identity_b && tsr::permute_gather_applies(step.b_elems))
      bs.b_gather = tsr::permute_gather(step.b_perm_shape, step.b_src_stride);

    std::uint64_t* mask = slot_mask.data() + (num_in + s) * words;
    for (std::size_t w = 0; w < words; ++w)
      mask[w] = slot_mask[step.lhs * words + w] | slot_mask[step.rhs * words + w];
    bs.row_bound = bs.varying_out ? mask_bound(mask) : 1;
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

  const TraversalFrame frame(ws, arena_elems_, "batched contraction arena", scratch_a_elems_,
                            scratch_b_elems_);
  const tsr::KernelTable& kt = frame.kt;
  ws.batch_arena.ensure(arena_elems_);
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

  Tally tally;
  auto kernel_bytes = [](const BatchedStep& st) {
    return sizeof(cplx) * (st.a_elems + st.b_elems + st.out_elems);
  };

  // PASS 1: batched steps (uniform and shared-cone), one traversal for the
  // whole batch. Sequential (root-region) steps are skipped here and
  // replayed per term in pass 2 -- they never feed a batched step.
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    frame.step();
    const BatchedStep& st = steps_[s];
    if (st.sequential) continue;
    cplx* out0 = ws.batch_arena.data() + st.out_offset;
    std::uint32_t* vid = ws.vids.data() + s * k;

    // Variant compaction: terms whose operand variant pairs match share one
    // output row (bit-identical by construction), so the step computes and
    // stores only the distinct rows. rows == k only where every term truly
    // differs (after the per-site cones merge near the root).
    std::size_t rows = 1;
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
          ++rows;
        }
        vid[t] = row;
      }
    }

    tally.peak = std::max(tally.peak, rows * st.out_elems);

    // One kernel call per distinct row, operands resolved through the
    // row's representative term (a uniform operand is the same buffer for
    // every row), gather-table permutation into row-sized scratch
    // (re-gathered only when the operand's variant changes), and the
    // table's kernel for the step's shape rung.
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
            tsr::permute_walk(pa, st.a_walk, ws.scratch_a.data());
          tally.bytes += sizeof(cplx) * 2 * st.a_elems;
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
            tsr::permute_walk(pb, st.b_walk, ws.scratch_b.data());
          tally.bytes += sizeof(cplx) * 2 * st.b_elems;
          last_b = cur;
        }
        pb = ws.scratch_b.data();
      }
      kt.matmul[st.shape](pa, pb, out0 + u * st.out_elems, st.m, st.k, st.n);
      ++tally.kernels;
      tally.flops += st.m * st.k * st.n;
      tally.bytes += kernel_bytes(st);
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
      tsr::permute_walk(src, output_walk_, dst);
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
      frame.step();
      if (ws.term_rep[t] != t) {
        std::copy(result.data() + ws.term_rep[t] * out_elems,
                  result.data() + (ws.term_rep[t] + 1) * out_elems,
                  result.data() + t * out_elems);
        tally.bytes += sizeof(cplx) * 2 * out_elems;
        continue;
      }
      for (std::size_t s = 0; s < steps_.size(); ++s) {
        const BatchedStep& st = steps_[s];
        if (!st.sequential) continue;
        const std::uint32_t rep = ws.vids[s * k + t];
        if (ws.seq_last[s] == rep) continue;  // buffer already holds this variant
        cplx* out0 = ws.batch_arena.data() + st.out_offset;
        tally.peak = std::max(tally.peak, st.out_elems);
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
            tsr::permute_walk(pa, st.a_walk, ws.scratch_a.data());
            tally.bytes += sizeof(cplx) * 2 * st.a_elems;
            pa = ws.scratch_a.data();
          }
        }
        const cplx* pb = slot_row_ptr(st.rhs, t);
        const std::uint32_t* b_idx = nullptr;
        if (!st.identity_b) {
          if (!st.b_gather.empty()) {
            b_idx = st.b_gather.data();
          } else {
            tsr::permute_walk(pb, st.b_walk, ws.scratch_b.data());
            tally.bytes += sizeof(cplx) * 2 * st.b_elems;
            pb = ws.scratch_b.data();
          }
        }
        if (a_idx || b_idx)
          kt.gathered(pa, a_idx, pb, b_idx, out0, st.m, st.k, st.n);
        else
          kt.matmul[st.shape](pa, pb, out0, st.m, st.k, st.n);
        ws.seq_last[s] = rep;
        ++tally.kernels;
        tally.flops += st.m * st.k * st.n;
        tally.bytes += kernel_bytes(st);
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
  tally.bytes += sizeof(cplx) * 2 * out_elems * k;
  frame.finish(*executions_, k, tally, stats);
  return result;
}

EnvSchedule ContractionPlan::compile_env(std::span<const std::size_t> targets,
                                         const ContractOptions& opts,
                                         ContractStats* stats) const {
  fault::poke("plan-mo");
  fault::poke("plan-to");
  if (opts.control) opts.control->poll();
  const std::size_t num_in = input_elems_.size();
  const std::size_t num_steps = steps_.size();
  la::detail::require(num_steps > 0 && steps_.back().out_elems == 1,
                      "compile_env: the plan's result must be a scalar of a contraction");
  const std::size_t root = num_in + num_steps - 1;
  auto elems = [&](std::size_t slot) {
    return slot < num_in ? input_elems_[slot] : steps_[slot - num_in].out_elems;
  };

  // consumer[slot]: the step reading it (every slot but the root has one).
  std::vector<std::size_t> consumer(root, 0);
  for (std::size_t s = 0; s < num_steps; ++s) {
    consumer[steps_[s].lhs] = s;
    consumer[steps_[s].rhs] = s;
  }
  // Slots whose environment the backward computes: the targets and every
  // intermediate on a path from one of them to the root.
  std::vector<char> needs_env(root + 1, 0);
  needs_env[root] = 1;
  for (const std::size_t t : targets) {
    la::detail::require(t < num_in, "compile_env: target is not an input slot");
    la::detail::require(!needs_env[t], "compile_env: repeated target");
    for (std::size_t slot = t; !needs_env[slot]; slot = num_in + consumer[slot])
      needs_env[slot] = 1;
  }
  // Forward values the backward reads (siblings of on-path operands) stay
  // live until their last backward step instead of their forward consumer.
  std::vector<char> retained(root + 1, 0);
  for (std::size_t s = 0; s < num_steps; ++s) {
    if (!needs_env[num_in + s]) continue;
    if (needs_env[steps_[s].lhs]) retained[steps_[s].rhs] = 1;
    if (needs_env[steps_[s].rhs]) retained[steps_[s].lhs] = 1;
  }

  EnvSchedule es;
  // The pass runs the compiled walks, and the backward below reads the
  // permuted shapes off the plan's own steps: the copies leave them out.
  es.fwd_.assign(steps_.begin(), steps_.end());
  es.input_elems_ = input_elems_;
  es.targets_.assign(targets.begin(), targets.end());
  es.peak_elems_ = peak_elems_;
  es.scratch_a_elems_ = scratch_a_elems_;
  es.scratch_b_elems_ = scratch_b_elems_;
  es.fwd_flops_ = total_flops_;
  es.executions_ = executions_;

  ArenaLayout arena;
  // Forward: the plan's liveness packing, except that retained values are
  // not recycled by their forward consumer.
  for (ExecStep& step : es.fwd_) {
    step.out_offset = arena.alloc(step.out_elems);
    for (const std::size_t op : {step.lhs, step.rhs})
      if (op >= num_in && !retained[op]) arena.release(es.fwd_[op - num_in].out_offset, elems(op));
    es.fwd_bytes_ += sizeof(cplx) * (step.a_elems * (step.identity_a ? 1 : 3) +
                                     step.b_elems * (step.identity_b ? 1 : 3) + step.out_elems);
  }

  // Backward, in reverse forward order: each on-path step's operand
  // environments are claimed while E_out and the siblings are live, which
  // are recycled once both operands are done. Target environments are
  // never recycled: they are read after the pass.
  std::vector<std::size_t> env_offset(root + 1, 0);
  std::vector<std::size_t> writer(root + 1, EnvStep::kNoParent);
  env_offset[root] = es.root_env_offset_ = arena.alloc(1);
  for (std::size_t s = num_steps; s-- > 0;) {
    const std::size_t out = num_in + s;
    if (!needs_env[out]) continue;
    const PlanStep& step = steps_[s];
    for (const bool lhs : {true, false}) {
      const std::size_t slot = lhs ? step.lhs : step.rhs;
      if (!needs_env[slot]) continue;
      EnvStep e;
      e.lhs = lhs;
      e.sibling = lhs ? step.rhs : step.lhs;
      e.parent = writer[out];
      e.sib_elems = elems(e.sibling);
      if (lhs) {
        // E_A' [m x k] = E_out [m x n] . B'^T [n x k]
        e.m = step.m;
        e.k = step.n;
        e.n = step.k;
        e.sib_walk = transposed_walk(step.identity_b, step.b_perm_shape, step.b_src_stride,
                                     step.k, step.n);
        if (!step.identity_a) e.scatter = step.a_walk;
      } else {
        // E_B' [k x n] = A'^T [k x m] . E_out [m x n]
        e.m = step.k;
        e.k = step.m;
        e.n = step.n;
        e.sib_walk = transposed_walk(step.identity_a, step.a_perm_shape, step.a_src_stride,
                                     step.m, step.k);
        if (!step.identity_b) e.scatter = step.b_walk;
      }
      e.shape = tsr::matmul_shape(e.m, e.k, e.n);
      e.env_elems = elems(slot);
      e.env_offset = env_offset[slot] = arena.alloc(e.env_elems);
      e.out_env_offset = env_offset[out];
      const bool walked = e.sib_walk.has_value(), scattered = e.scatter.has_value();
      if (walked) es.scratch_a_elems_ = std::max(es.scratch_a_elems_, e.sib_elems);
      if (scattered) es.scratch_b_elems_ = std::max(es.scratch_b_elems_, e.env_elems);
      e.bytes = sizeof(cplx) * (e.sib_elems * (walked ? 3 : 1) + step.out_elems +
                                e.env_elems * (scattered ? 3 : 1));
      es.bwd_flops_ += e.m * e.k * e.n;
      writer[slot] = es.bwd_.size();
      es.bwd_.push_back(std::move(e));
    }
    arena.release(env_offset[out], step.out_elems);
    for (const std::size_t op : {step.lhs, step.rhs})
      if (op >= num_in && retained[op]) arena.release(es.fwd_[op - num_in].out_offset, elems(op));
  }
  for (const std::size_t t : targets) es.target_step_.push_back(writer[t]);
  es.arena_elems_ = arena.high_water();
  if (stats) ++stats->plans_compiled;
  return es;
}

cplx EnvSchedule::execute(std::span<const tsr::Tensor* const> inputs, std::span<const char> want,
                          PlanWorkspace& ws, ContractStats* stats, std::size_t terms) const {
  const std::size_t num_in = input_elems_.size();
  la::detail::require(inputs.size() == num_in, "EnvSchedule::execute: input count mismatch");
  for (std::size_t i = 0; i < num_in; ++i)
    la::detail::require(inputs[i]->size() == input_elems_[i],
                        "EnvSchedule::execute: input tensor size mismatch");
  la::detail::require(want.size() == targets_.size(),
                      "EnvSchedule::execute: one want flag per target");
  la::detail::require(terms >= 1, "EnvSchedule::execute: a pass stands in for at least one term");

  const TraversalFrame frame(ws, arena_elems_, "environment arena", scratch_a_elems_,
                            scratch_b_elems_);
  const tsr::KernelTable& kt = frame.kt;
  ws.env_arena.ensure(arena_elems_);
  cplx* arena = ws.env_arena.data();
  auto value = [&](std::size_t slot) -> const cplx* {
    return slot < num_in ? inputs[slot]->data() : arena + fwd_[slot - num_in].out_offset;
  };

  for (const ExecStep& step : fwd_) {
    frame.step();
    run_step(step, value(step.lhs), value(step.rhs), arena + step.out_offset, ws, kt);
  }
  const cplx result = arena[fwd_.back().out_offset];

  // Backward steps on the paths from the wanted targets to the root.
  ws.env_run.assign(bwd_.size(), 0);
  for (std::size_t t = 0; t < targets_.size(); ++t)
    if (want[t])
      for (std::size_t e = target_step_[t]; e != EnvStep::kNoParent && !ws.env_run[e];
           e = bwd_[e].parent)
        ws.env_run[e] = 1;
  arena[root_env_offset_] = cplx{1.0, 0.0};
  Tally tally{fwd_.size(), fwd_flops_, fwd_bytes_, peak_elems_};
  for (std::size_t e = 0; e < bwd_.size(); ++e) {
    if (!ws.env_run[e]) continue;
    frame.step();
    const EnvStep& st = bwd_[e];
    const cplx* sib = value(st.sibling);
    if (st.sib_walk) {
      tsr::permute_walk(sib, *st.sib_walk, ws.scratch_a.data());
      sib = ws.scratch_a.data();
    }
    const cplx* env_out = arena + st.out_env_offset;
    cplx* dst = st.scatter ? ws.scratch_b.data() : arena + st.env_offset;
    const tsr::detail::MatmulFn kernel = kt.matmul[st.shape];
    if (st.lhs)
      kernel(env_out, sib, dst, st.m, st.k, st.n);
    else
      kernel(sib, env_out, dst, st.m, st.k, st.n);
    if (st.scatter) tsr::scatter_walk(dst, *st.scatter, arena + st.env_offset);
    ++tally.kernels;
    tally.flops += st.m * st.k * st.n;
    tally.bytes += st.bytes;
  }
  frame.finish(*executions_, terms, tally, stats);
  return result;
}

std::span<const cplx> EnvSchedule::env(std::size_t t, const PlanWorkspace& ws) const {
  la::detail::require(t < targets_.size(), "EnvSchedule::env: target out of range");
  const EnvStep& st = bwd_[target_step_[t]];
  return {ws.env_arena.data() + st.env_offset, st.env_elems};
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
