#include "sim/parallel.hpp"

#include <atomic>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "linalg/complex.hpp"
#include "support/env.hpp"
#include "support/mutex.hpp"

namespace noisim::sim {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  // Strict validation via the shared parser (support/env.hpp): a value that
  // is set but unusable is a misconfiguration worth failing on, not
  // silently coercing to the hardware default.
  if (const std::optional<std::size_t> env =
          support::env_positive_int("NOISIM_THREADS", "thread count"))
    return *env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void Welford::add(double x) {
  ++count;
  const double delta = x - mean;
  mean += delta / static_cast<double>(count);
  m2 += delta * (x - mean);
}

void Welford::merge(const Welford& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count), nb = static_cast<double>(other.count);
  const double delta = other.mean - mean;
  const double total = na + nb;
  mean += delta * nb / total;
  m2 += other.m2 + delta * delta * na * nb / total;
  count += other.count;
}

double Welford::variance() const {
  if (count < 2) return 0.0;
  return m2 / static_cast<double>(count - 1);
}

TrajectoryResult Welford::result() const {
  TrajectoryResult out;
  out.samples = count;
  out.mean = mean;
  if (count > 1) out.std_error = std::sqrt(variance() / static_cast<double>(count));
  return out;
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Shared failure gate for a worker pool: the first exception any worker
/// hits is recorded and the abort flag tells siblings to stop claiming
/// chunks, so a failed run drains within one chunk per worker instead of
/// computing the whole remaining budget for a result that will be thrown
/// away. Workers never throw out of their thread; the recorded exception is
/// rethrown on the calling thread after every worker joined (futures and
/// accumulators are all settled by then -- no leaks, no torn state).
class AbortGate {
 public:
  bool stopping() const { return abort_.load(std::memory_order_relaxed); }
  void record() noexcept EXCLUDES(mutex_) {
    abort_.store(true, std::memory_order_relaxed);
    const support::MutexLock lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  void rethrow() EXCLUDES(mutex_) {
    // Copy the slot out under the lock (callers run after the join, but the
    // analysis holds every access to the guarded slot to the same rule).
    std::exception_ptr err;
    {
      const support::MutexLock lock(mutex_);
      err = first_error_;
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  std::atomic<bool> abort_{false};
  support::Mutex mutex_;
  std::exception_ptr first_error_ GUARDED_BY(mutex_);
};

}  // namespace

std::mt19937_64 chunk_rng(std::uint64_t seed, std::uint64_t chunk_index) {
  return std::mt19937_64(splitmix64(seed ^ splitmix64(chunk_index)));
}

std::vector<TrajectoryResult> run_trajectories_sharded(
    std::size_t samples, std::size_t num_estimates, std::size_t shard_size,
    std::uint64_t seed, const ShardChunkSamplerFactory& make_sampler,
    const ParallelOptions& opts) {
  la::detail::require(opts.chunk_size > 0, "run_trajectories: chunk_size must be positive");
  std::vector<TrajectoryResult> out(num_estimates);
  if (samples == 0 || num_estimates == 0) return out;

  const std::size_t shard =
      std::min(num_estimates, shard_size > 0 ? shard_size : num_estimates);
  const std::size_t num_shards = (num_estimates + shard - 1) / shard;
  const std::size_t num_chunks = (samples + opts.chunk_size - 1) / opts.chunk_size;
  const std::size_t num_items = num_shards * num_chunks;
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(resolve_threads(opts.threads), num_items));

  // Per-(chunk, estimate) accumulators: estimate o's stream through chunk
  // c is exactly what a single-estimate run would accumulate, whichever
  // shard item scored it, so the chunk-order merge below reproduces it bit
  // for bit.
  std::vector<Welford> chunk_stats(num_chunks * num_estimates);
  std::atomic<std::size_t> next{0};
  AbortGate gate;

  auto worker = [&](std::size_t w) {
    try {
      ShardChunkSampler sampler = make_sampler(w);
      std::vector<double> values(opts.chunk_size * shard);
      while (!gate.stopping()) {
        const std::size_t item = next.fetch_add(1, std::memory_order_relaxed);
        if (item >= num_items) break;
        if (opts.control) opts.control->poll();
        fault::poke("traj-chunk");
        const std::size_t c = item / num_shards;
        const std::size_t sh = item % num_shards;
        const std::size_t shard_begin = sh * shard;
        const std::size_t shard_count = std::min(shard, num_estimates - shard_begin);
        const std::size_t begin = c * opts.chunk_size;
        const std::size_t count = std::min(begin + opts.chunk_size, samples) - begin;
        std::mt19937_64 rng = chunk_rng(seed, c);
        sampler(rng, shard_begin, shard_count, count,
                std::span<double>(values.data(), count * shard_count));
        for (std::size_t j = 0; j < shard_count; ++j) {
          Welford& stats = chunk_stats[c * num_estimates + shard_begin + j];
          for (std::size_t s = 0; s < count; ++s) stats.add(values[s * shard_count + j]);
        }
      }
    } catch (...) {
      gate.record();
    }
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w)
      futures.push_back(std::async(std::launch::async, worker, w));
    for (auto& f : futures) f.get();  // workers trap their own exceptions
  }
  gate.rethrow();  // first worker exception, after every worker joined

  for (std::size_t o = 0; o < num_estimates; ++o) {
    Welford total;
    for (std::size_t c = 0; c < num_chunks; ++c)
      total.merge(chunk_stats[c * num_estimates + o]);
    out[o] = total.result();
  }
  return out;
}

TrajectoryResult run_trajectories(std::size_t samples, std::uint64_t seed,
                                  const SamplerFactory& make_sampler,
                                  const ParallelOptions& opts) {
  return run_trajectories_sharded(
      samples, 1, 1, seed,
      [&make_sampler](std::size_t w) -> ShardChunkSampler {
        return [sampler = make_sampler(w)](std::mt19937_64& rng, std::size_t, std::size_t,
                                           std::size_t, std::span<double> values) {
          for (double& v : values) v = sampler(rng);
        };
      },
      opts)[0];
}

}  // namespace noisim::sim
