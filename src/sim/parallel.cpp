#include "sim/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <map>
#include <optional>
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

std::size_t queue_workers(std::size_t requested, std::size_t items) {
  return std::max<std::size_t>(1, std::min(resolve_threads(requested), items));
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

// Scheduler state of one run_ordered_queue call: item claims, the bounded
// buffer pool, the cooperative cancel/abort flags, the first-exception slot
// and the per-stream fold cursors and stashes all live behind ONE annotated
// mutex, so -Wthread-safety proves every cross-worker access is locked.
// Workers call claim() -- which also polls the RunControl, the poll point
// of the cancellation contract -- evaluate the claimed item into their pool
// buffer WITHOUT the lock (buffer ownership travels with the claim), and
// hand the buffer back through fold_item(). After the join, the owning
// thread runs finish() (stash drain + pool-integrity check + rethrow).
class OrderedQueue {
 public:
  OrderedQueue(const OrderedWork& work, const ItemFold& fold)
      : streams_(work.streams),
        num_items_(work.ranks * work.streams),
        pool_size_(work.pool),
        control_(work.control),
        fold_(fold) {
    cursor_.assign(streams_, 0);
    stash_.resize(streams_);
    free_bufs_.resize(pool_size_);
    for (std::size_t b = 0; b < pool_size_; ++b) free_bufs_[b] = b;
  }

  /// Claim the next item together with a pool buffer, blocking while the
  /// pool is empty. Polls the RunControl first (a cancel drains the queue,
  /// a deadline or any other control error aborts). Returns false when the
  /// worker should stop claiming: queue exhausted, a sibling aborted, or a
  /// cancel was observed.
  bool claim(std::size_t* rank, std::size_t* stream, std::size_t* buf) EXCLUDES(mutex_) {
    if (control_) {
      try {
        control_->poll();
      } catch (const CancelledError&) {
        stop(nullptr);
        return false;
      } catch (...) {
        // A non-cancel control error (deadline, memory ceiling) aborts the
        // queue; stash the exception OBJECT explicitly so finish() rethrows
        // the TimeoutError/MemoryOutError that actually fired, never a
        // generic "a worker stopped".
        stop(std::current_exception());
        return false;
      }
    }
    const support::MutexLock lock(mutex_);
    while (!(abort_error_ || cancelled_ || next_item_ >= num_items_ || !free_bufs_.empty()))
      cv_.wait(mutex_);
    if (abort_error_ || cancelled_ || next_item_ >= num_items_) return false;
    const std::size_t item = next_item_++;
    *buf = free_bufs_.back();
    free_bufs_.pop_back();
    if (next_item_ >= num_items_) cv_.notify_all();
    // Rank-major item order: for any stream, lower ranks are dispensed
    // first, so every stashed buffer's predecessor is already in flight --
    // the fold below always advances.
    *rank = item / streams_;
    *stream = item % streams_;
    return true;
  }

  /// Tell every worker to stop claiming. A null `err` is a cancel (the
  /// caller salvages or raises); otherwise the first error recorded --
  /// passed explicitly, never fished out of ambient state -- is what
  /// finish() rethrows after the join. `buf`, when given, is the abandoned
  /// item's buffer: it folds nothing, so it goes straight back to the pool.
  void stop(std::exception_ptr err, std::optional<std::size_t> buf = std::nullopt)
      EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    if (buf) free_bufs_.push_back(*buf);
    if (!err)
      cancelled_ = true;
    else if (!abort_error_)
      abort_error_ = std::move(err);
    cv_.notify_all();
  }

  /// Stash the completed item's buffer and fold every consecutively ready
  /// rank of its stream in order. The claiming worker wrote the buffer
  /// without the lock; this mutex hand-off is what publishes it to whichever
  /// worker folds.
  void fold_item(std::size_t rank, std::size_t stream, std::size_t buf) EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    std::map<std::size_t, std::size_t>& stash = stash_[stream];
    stash.emplace(rank, buf);
    for (auto it = stash.find(cursor_[stream]); it != stash.end();
         it = stash.find(cursor_[stream])) {
      fold_(cursor_[stream], stream, it->second);
      free_bufs_.push_back(it->second);
      stash.erase(it);
      ++cursor_[stream];
    }
    cv_.notify_all();
  }

  /// Teardown, called once after every worker joined: stashed buffers whose
  /// predecessor never arrived (abort / cancel) go back to the pool, after
  /// which every buffer must be accounted for -- a leak here would strand
  /// values across reruns. Rethrows the first worker exception.
  OrderedOutcome finish() EXCLUDES(mutex_) {
    OrderedOutcome out;
    std::exception_ptr err;
    {
      const support::MutexLock lock(mutex_);
      for (std::map<std::size_t, std::size_t>& stash : stash_) {
        for (const auto& [rank, buf] : stash) free_bufs_.push_back(buf);
        stash.clear();
      }
      la::detail::require(free_bufs_.size() == pool_size_,
                          "work queue: buffer pool integrity lost during teardown");
      err = abort_error_;
      out.cancelled = cancelled_;
      out.folded = cursor_;
    }
    if (err) std::rethrow_exception(err);
    return out;
  }

 private:
  const std::size_t streams_;
  const std::size_t num_items_;
  const std::size_t pool_size_;
  const core::RunControl* const control_;  // polled, never written
  const ItemFold& fold_;                   // const; runs under mutex_

  mutable support::Mutex mutex_;
  support::CondVar cv_;  // lint: not-guarded(condvar; always signalled with mutex_ held)
  std::size_t next_item_ GUARDED_BY(mutex_) = 0;
  bool cancelled_ GUARDED_BY(mutex_) = false;  // cancel: drain, caller salvages or raises
  std::exception_ptr abort_error_ GUARDED_BY(mutex_);  // worker threw: drain, rethrow after join
  std::vector<std::size_t> free_bufs_ GUARDED_BY(mutex_);  // bounded buffer pool
  std::vector<std::size_t> cursor_ GUARDED_BY(mutex_);     // per stream: next rank to fold
  // Per stream: completed rank -> buffer. An ORDERED map on purpose: the
  // fold walks completed ranks in ascending order (lint rule unordered-fold).
  std::vector<std::map<std::size_t, std::size_t>> stash_ GUARDED_BY(mutex_);
};

// Pool buffers per trajectory worker. A trajectory buffer is one chunk's
// per-estimate Welford statistics (24 B per estimate), and per-sample costs
// are uneven (a clean sample is nearly free, an error sample evolves the
// whole state), so the runner affords enough slack that workers keep
// claiming while the oldest chunk of a shard is still running. With the
// sweep's threads + 2 buffers instead, bench_traj_parallel's
// depolarizing(1e-3) row (13 chunks) took ~1.4x the time per sample at 2
// and 4 threads on a 4-thread AMD EPYC.
constexpr std::size_t kTrajectoryPoolPerWorker = 16;

}  // namespace

OrderedOutcome run_ordered_queue(const OrderedWork& work, const ItemEvalFactory& make_eval,
                                 const ItemFold& fold) {
  la::detail::require(work.pool > 0 && work.threads > 0,
                      "run_ordered_queue: pool and threads must be positive");
  OrderedQueue queue(work, fold);
  auto worker = [&](std::size_t w) {
    ItemEval eval;
    try {
      eval = make_eval(w);  // per-worker state allocates; it can fail too
    } catch (...) {
      queue.stop(std::current_exception());
      return;
    }
    std::size_t rank = 0, stream = 0, buf = 0;
    while (queue.claim(&rank, &stream, &buf)) {
      try {
        fault::poke(work.fault_site);
        eval(rank, stream, buf);
      } catch (const CancelledError&) {
        // A cancel inside the item (e.g. a plan executor's step poll): the
        // item is abandoned, its stream stays short, and the queue drains
        // like the claim-time cancel inside claim().
        queue.stop(nullptr, buf);
        break;
      } catch (...) {
        queue.stop(std::current_exception(), buf);
        break;
      }
      queue.fold_item(rank, stream, buf);
    }
  };

  if (work.threads <= 1) {
    worker(0);
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(work.threads);
    for (std::size_t w = 0; w < work.threads; ++w)
      futures.push_back(std::async(std::launch::async, worker, w));
    for (auto& f : futures) f.get();  // workers trap their own exceptions
  }
  return queue.finish();  // first worker exception, after every worker joined
}

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
  OrderedWork work;
  work.ranks = (samples + opts.chunk_size - 1) / opts.chunk_size;  // sample chunks
  work.streams = (num_estimates + shard - 1) / shard;               // estimate shards
  work.threads = queue_workers(opts.threads, work.ranks * work.streams);
  work.pool = std::min(work.ranks * work.streams, kTrajectoryPoolPerWorker * work.threads);
  work.control = opts.control;
  work.fault_site = "traj-chunk";

  // pool[buf][j]: the claimed chunk's statistics for estimate j of its
  // shard, built from zero in sample order -- exactly what a
  // single-estimate run accumulates over that chunk.
  std::vector<std::vector<Welford>> pool(work.pool);
  std::vector<Welford> totals(num_estimates);
  const OrderedOutcome outcome = run_ordered_queue(
      work,
      [&](std::size_t w) -> ItemEval {
        return [&, sampler = make_sampler(w), values = std::vector<double>(opts.chunk_size * shard)](
                   std::size_t c, std::size_t sh, std::size_t buf) mutable {
          const std::size_t shard_begin = sh * shard;
          const std::size_t shard_count = std::min(shard, num_estimates - shard_begin);
          const std::size_t begin = c * opts.chunk_size;
          const std::size_t count = std::min(begin + opts.chunk_size, samples) - begin;
          std::mt19937_64 rng = chunk_rng(seed, c);
          sampler(rng, shard_begin, shard_count, count,
                  std::span<double>(values.data(), count * shard_count));
          std::vector<Welford>& stats = pool[buf];
          stats.assign(shard_count, Welford{});
          for (std::size_t j = 0; j < shard_count; ++j)
            for (std::size_t s = 0; s < count; ++s) stats[j].add(values[s * shard_count + j]);
        };
      },
      [&](std::size_t, std::size_t sh, std::size_t buf) {
        const std::vector<Welford>& stats = pool[buf];
        for (std::size_t j = 0; j < stats.size(); ++j) totals[sh * shard + j].merge(stats[j]);
      });
  if (outcome.cancelled) throw CancelledError("run_trajectories cancelled via RunControl");

  for (std::size_t o = 0; o < num_estimates; ++o) out[o] = totals[o].result();
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
