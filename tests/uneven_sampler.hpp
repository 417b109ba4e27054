#pragma once
// A trajectory-runner sampler whose per-item cost is deliberately uneven, as
// it is for the state-vector sampler (a clean sample is nearly free, an
// error sample evolves the whole state): about one sample in five runs a
// few thousand dependent multiply-adds before it is scored, so chunks finish
// out of order and the work queue's stash and bounded pool both fill.
#include <cstddef>
#include <functional>
#include <random>
#include <span>

#include "sim/parallel.hpp"

namespace noisim::sim {

/// Scores estimate o of sample u as frac((o + 1) * u), drawing one uniform
/// per sample whichever shard is scored (the runner's draw contract).
/// `on_item`, when set, runs at the start of every item (it may throw).
inline ShardChunkSamplerFactory uneven_sampler(std::function<void()> on_item = {}) {
  return [on_item](std::size_t) -> ShardChunkSampler {
    return [on_item](std::mt19937_64& rng, std::size_t shard_begin, std::size_t shard_count,
                     std::size_t count, std::span<double> values) {
      if (on_item) on_item();
      std::uniform_real_distribution<double> unif(0.0, 1.0);
      for (std::size_t s = 0; s < count; ++s) {
        const double u = unif(rng);
        if (u < 0.2) {
          double x = u;
          for (int i = 0; i < 4000; ++i) x = x * 0.999 + 1e-3;
          volatile double sink = x;  // the work the cheap samples skip
          (void)sink;
        }
        for (std::size_t j = 0; j < shard_count; ++j) {
          const double v = static_cast<double>(shard_begin + j + 1) * u;
          values[s * shard_count + j] = v - static_cast<double>(static_cast<long>(v));
        }
      }
    };
  };
}

}  // namespace noisim::sim
