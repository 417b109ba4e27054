#pragma once
// The one work queue, and the Monte-Carlo trajectory runner built on it.
//
// Algorithm 1's term sweep (core/approx.cpp) and the trajectory samplers do
// the same kind of work: many independent items whose results are summed in
// a fixed order. Both run on ONE scheduler, run_ordered_queue, with two
// folds: the sweep's per-output-chunk level sums in term-enumeration order,
// and the runner's per-estimate Welford totals in sample-chunk order.
//
//  * items form a (rank x stream) grid dispensed rank-major; stream s folds
//    its items strictly in rank order, so the floating-point result is a
//    function of the grid alone, never of the thread count or of the order
//    in which workers finish;
//  * idle workers claim the next item together with a buffer from a bounded
//    pool, evaluate it without the lock, and hand the buffer to the fold;
//    an out-of-order completion waits in its stream's stash until it is
//    next, so transient storage is O(pool), never O(items);
//  * a RunControl is polled once per claim; a cancel drains the queue (the
//    caller salvages or raises), any other error drains it and the first
//    one is rethrown after every worker joined.
//
// The trajectory runner's grid is (sample chunk x estimate shard): chunk c
// always draws from its own std::mt19937_64 seeded from
// splitmix64(seed, c) -- the set of random streams is a function of
// (seed, chunk_size) only -- and each chunk's per-estimate Welford
// statistics merge into that estimate's total in chunk order (Chan's
// parallel variance update). There is ONE runner, run_trajectories_sharded;
// run_trajectories is its single-estimate, sample-at-a-time adapter.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <vector>

#include "core/run_control.hpp"

namespace noisim::sim {

struct TrajectoryResult {
  double mean = 0.0;       // estimate of <v|E(rho)|v>
  double std_error = 0.0;  // sample standard error of the mean
  std::size_t samples = 0;
};

struct ParallelOptions {
  /// Worker threads; 0 = NOISIM_THREADS env var if set, else
  /// std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Samples per RNG chunk. Part of the reproducibility contract: the same
  /// (seed, chunk_size) pair always draws the same streams, so changing it
  /// changes the (equally valid) estimate.
  std::size_t chunk_size = 32;
  /// Cooperative control (core/run_control.hpp), polled by every worker
  /// once per claimed chunk: a cancel raises CancelledError and an expired
  /// deadline TimeoutError from the runner, within one chunk of the
  /// trigger. Workers that observe a sibling's exception stop claiming
  /// chunks (cooperative drain) and the FIRST exception is rethrown after
  /// all workers join. Null disables; a control that never fires leaves
  /// results bit-identical. Caller-owned.
  const core::RunControl* control = nullptr;
};

/// Resolve ParallelOptions::threads (0 -> env/hardware default).
std::size_t resolve_threads(std::size_t requested);

/// Workers a queue of `items` items runs for a requested thread count:
/// resolve_threads(requested), at most one per item, at least one.
std::size_t queue_workers(std::size_t requested, std::size_t items);

/// One run of the ordered-fold work queue: `ranks x streams` items,
/// dispensed rank-major (item = rank * streams + stream).
struct OrderedWork {
  std::size_t ranks = 0;
  std::size_t streams = 0;
  /// Workers; queue_workers() of the caller's request.
  std::size_t threads = 1;
  /// Buffers in the bounded pool (>= 1). A worker claims an item only
  /// together with a free buffer, so the in-flight and stashed items never
  /// outnumber it. A pool only a few buffers larger than `threads` can
  /// stall workers while the oldest unfolded item of a stream runs.
  std::size_t pool = 1;
  /// Polled once per claim (null disables).
  const core::RunControl* control = nullptr;
  /// fault::poke'd once per item, before its evaluation.
  const char* fault_site = "";
};

/// Evaluate the claimed item (rank, stream) into pool buffer `buf`. Runs
/// without the queue lock; the buffer belongs to the claiming worker until
/// the fold releases it.
using ItemEval = std::function<void(std::size_t rank, std::size_t stream, std::size_t buf)>;
/// Per-worker evaluator factory: called once on each worker thread, so an
/// evaluator can own scratch state without synchronization.
using ItemEvalFactory = std::function<ItemEval(std::size_t worker)>;
/// Fold a completed item's buffer. Called under the queue lock, one fold at
/// a time, for each stream in ascending rank order.
using ItemFold = std::function<void(std::size_t rank, std::size_t stream, std::size_t buf)>;

struct OrderedOutcome {
  /// A cancel (at a claim-time poll, or a CancelledError from an item)
  /// drained the queue; the streams' completed prefixes stay folded.
  bool cancelled = false;
  /// Per stream: how many ranks were folded (`ranks` when it completed).
  std::vector<std::size_t> folded;
};

/// Drain the queue with `work.threads` workers. Every worker exception
/// other than a cancel stops the claims and the first one is rethrown after
/// every worker joined; a buffer leaked from the pool is a LinalgError.
OrderedOutcome run_ordered_queue(const OrderedWork& work, const ItemEvalFactory& make_eval,
                                 const ItemFold& fold);

/// Streaming mean/variance accumulator with a deterministic pairwise merge.
struct Welford {
  std::size_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  // sum of squared deviations from the running mean

  void add(double x);
  void merge(const Welford& other);
  /// Unbiased sample variance (n-1 denominator); 0 when count < 2.
  double variance() const;
  /// The estimate: count samples, their mean, and the standard error of
  /// the mean sqrt(variance / count) (0 when count < 2).
  TrajectoryResult result() const;
};

/// Derived RNG for one chunk: decorrelates consecutive chunk indices far
/// better than seeding mt19937_64 with seed + c directly.
std::mt19937_64 chunk_rng(std::uint64_t seed, std::uint64_t chunk_index);

/// One fidelity sample in [0, 1] drawn with the supplied RNG.
using Sampler = std::function<double(std::mt19937_64&)>;
/// Per-worker sampler factory: called once per worker thread so a sampler
/// can own scratch state (e.g. a gate-list copy) without synchronization.
using SamplerFactory = std::function<Sampler(std::size_t worker)>;

/// Fill one chunk's samples for the estimates of ONE shard:
/// values[s * shard_count + j] = trajectory s scored for estimate
/// shard_begin + j (s < sample_count). Per-sample randomness must be drawn
/// in sample order exactly as the single-estimate path would -- one draw
/// set per trajectory, independent of which shard is being scored -- so
/// every estimate's stream matches its standalone run bit for bit. Shards
/// of the same chunk redraw the same per-sample randomness (draws are cheap
/// next to scoring). Backends that evaluate a whole chunk at once (the
/// batched TN plan executor) pre-draw the chunk's randomness in order and
/// then fill the values in one shot.
using ShardChunkSampler =
    std::function<void(std::mt19937_64&, std::size_t, std::size_t, std::size_t,
                       std::span<double>)>;
/// Per-worker shard-chunk sampler factory (owns scratch).
using ShardChunkSamplerFactory = std::function<ShardChunkSampler(std::size_t worker)>;

/// The trajectory runner: `num_estimates` estimates that share every
/// trajectory's randomness (e.g. one sampled noise realization scored at
/// many output bitstrings), over a single 2-D (estimate-shard x
/// sample-chunk) work queue. The estimates are partitioned into shards of
/// `shard_size` (0 = one shard holding all of them) and the ordered queue
/// dispenses (chunk, shard) items chunk-major, so a sweep with few sample
/// chunks but many estimates fills every thread instead of idling on a
/// chunk-only partition, and a worker's value buffer holds chunk_size x
/// shard_size samples. An item builds its chunk's per-estimate Welford
/// from zero in sample order, and the fold merges it into that estimate's
/// running total in chunk order; the chunk RNG streams depend only on
/// (seed, chunk_size): estimate o is bit-identical to the single-estimate
/// runner fed stream o, at every thread count and shard size. The runner
/// holds O(num_estimates) totals plus the pool, never a chunks x estimates
/// table. samples == 0 yields well-defined empty estimates (0 samples,
/// mean 0, no error bar) without invoking the sampler.
std::vector<TrajectoryResult> run_trajectories_sharded(
    std::size_t samples, std::size_t num_estimates, std::size_t shard_size,
    std::uint64_t seed, const ShardChunkSamplerFactory& make_sampler,
    const ParallelOptions& opts = {});

/// One estimate drawn sample by sample: run_trajectories_sharded with a
/// single estimate. The result is identical for any `opts.threads`
/// (including 1).
TrajectoryResult run_trajectories(std::size_t samples, std::uint64_t seed,
                                  const SamplerFactory& make_sampler,
                                  const ParallelOptions& opts = {});

}  // namespace noisim::sim
