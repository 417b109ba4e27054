#pragma once
// Shared multithreaded Monte-Carlo trajectory engine.
//
// Both trajectory samplers (statevector and tensor network) draw i.i.d.
// fidelity samples in an outer loop; this engine parallelizes that loop
// while keeping the estimate bit-for-bit reproducible for a fixed seed
// regardless of the number of worker threads. There is ONE runner,
// run_trajectories_sharded; run_trajectories is its single-estimate,
// sample-at-a-time adapter.
//
//  * the sample budget is split into fixed-size chunks, and chunk c always
//    draws from its own std::mt19937_64 seeded from splitmix64(seed, c) --
//    the set of random streams is a function of (seed, chunk_size) only,
//    never of the thread count;
//  * idle workers steal the next unclaimed (shard, chunk) item from a
//    shared atomic counter, so uneven per-sample costs balance out without
//    a static partition (a statevector sample that reuses the call's
//    noise-free trajectory is nearly free; one that draws an error evolves
//    the whole state);
//  * each chunk accumulates its own Welford mean/M2 and the per-chunk
//    statistics are merged in chunk order (Chan's parallel variance
//    update) after all workers join; the merge order is deterministic, so
//    the floating-point result is too.

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
/// `shard_size` (0 = one shard holding all of them) and workers steal
/// (shard, chunk) items, so a sweep with few sample chunks but many
/// estimates fills every thread instead of idling on a chunk-only
/// partition, and a worker's value buffer holds chunk_size x shard_size
/// samples. Estimate o accumulates its own per-chunk Welford statistics
/// and merges them in chunk order, and the chunk RNG streams depend only
/// on (seed, chunk_size): estimate o is bit-identical to the
/// single-estimate runner fed stream o, at every thread count and shard
/// size. samples == 0 yields well-defined empty estimates (0 samples,
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
