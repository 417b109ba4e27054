// PlanCache coverage: keying (same skeleton hits, different ContractOptions
// or slot layouts miss), LRU eviction, cache-on vs cache-off bit-identity,
// stats surfacing (plan_cache_hits / plans_compiled), and race-freedom of a
// cache shared by concurrent sweeps (exercised under the sanitizer jobs).
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "bench_support/generators.hpp"
#include "core/approx.hpp"
#include "core/plan_cache.hpp"

namespace noisim::core {
namespace {

EvalOptions tn_eval() {
  EvalOptions eval;
  eval.backend = EvalOptions::Backend::TensorNetwork;
  return eval;
}

ch::NoisyCircuit workload(std::uint64_t seed, std::size_t noises = 3) {
  return bench::insert_noises(bench::qaoa(16, 1, 77), noises,
                              bench::depolarizing_noise(0.01), seed);
}

std::vector<std::uint64_t> bitstrings(int n, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::uint64_t mask = (std::uint64_t{1} << n) - 1;
  std::vector<std::uint64_t> out(count);
  for (auto& v : out) v = rng() & mask;
  return out;
}

TEST(PlanCache, RepeatedCallsHitAndSkipRecompilation) {
  const ch::NoisyCircuit nc = workload(601);
  const std::vector<std::uint64_t> vb = bitstrings(16, 6, 1);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  PlanCache cache;
  opts.plan_cache = &cache;

  const ApproxBatchResult first = approximate_fidelity_outputs(nc, 0, vb, opts);
  EXPECT_EQ(first.contract_stats.plan_cache_hits, 0u);
  EXPECT_EQ(first.contract_stats.plan_cache_misses, 2u);  // 1 template + 1 env schedule
  EXPECT_GT(first.contract_stats.plans_compiled, 0u);

  // A DIFFERENT bitstring set over the same skeleton: templates and batched
  // plans are topology-keyed, so everything hits and nothing recompiles.
  const std::vector<std::uint64_t> vb2 = bitstrings(16, 6, 2);
  const ApproxBatchResult second = approximate_fidelity_outputs(nc, 0, vb2, opts);
  EXPECT_EQ(second.contract_stats.plan_cache_hits, 2u);
  EXPECT_EQ(second.contract_stats.plan_cache_misses, 0u);
  EXPECT_EQ(second.contract_stats.plans_compiled, 0u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);

  // Cached results are bit-identical to cache-free results.
  ApproxOptions no_cache = opts;
  no_cache.plan_cache = nullptr;
  const ApproxBatchResult bare = approximate_fidelity_outputs(nc, 0, vb2, no_cache);
  EXPECT_EQ(bare.contract_stats.plan_cache_hits, 0u);
  EXPECT_EQ(bare.contract_stats.plan_cache_misses, 0u);
  for (std::size_t o = 0; o < vb2.size(); ++o) {
    EXPECT_EQ(bare.raw[o].real(), second.raw[o].real());
    EXPECT_EQ(bare.raw[o].imag(), second.raw[o].imag());
    EXPECT_EQ(bare.level_values[o], second.level_values[o]);
  }
}

TEST(PlanCache, SingleOutputSweepSharesTheCache) {
  const ch::NoisyCircuit nc = workload(603);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  PlanCache cache;
  opts.plan_cache = &cache;

  const ApproxResult first = approximate_fidelity(nc, 0, 5, opts);
  const ApproxResult again = approximate_fidelity(nc, 0, 5, opts);
  EXPECT_EQ(again.contract_stats.plan_cache_hits, 2u);
  EXPECT_EQ(again.contract_stats.plans_compiled, 0u);
  EXPECT_EQ(first.raw, again.raw);
  EXPECT_EQ(first.level_values, again.level_values);

  // A single output is a one-output sweep: its template sits under the
  // canonical v = 0 key with the caps substituted per output, so a
  // different bitstring hits every entry and compiles nothing.
  const ApproxResult other = approximate_fidelity(nc, 0, 6, opts);
  EXPECT_EQ(other.contract_stats.plan_cache_hits, 2u);
  EXPECT_EQ(other.contract_stats.plan_cache_misses, 0u);
  EXPECT_EQ(other.contract_stats.plans_compiled, 0u);

  ApproxOptions no_cache = opts;
  no_cache.plan_cache = nullptr;
  const ApproxResult bare = approximate_fidelity(nc, 0, 5, no_cache);
  EXPECT_EQ(bare.raw, first.raw);
  EXPECT_EQ(bare.level_values, first.level_values);
}

TEST(PlanCache, DifferentContractOptionsMiss) {
  const ch::NoisyCircuit nc = workload(605);
  const std::vector<std::uint64_t> vb = bitstrings(16, 4, 3);
  PlanCache cache;
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  opts.plan_cache = &cache;
  (void)approximate_fidelity_outputs(nc, 0, vb, opts);
  const std::size_t misses_after_first = cache.misses();

  // Same skeleton, different planner options -> different template key.
  ApproxOptions other = opts;
  other.eval.tn.max_tensor_elems = std::size_t{1} << 25;
  const ApproxBatchResult r = approximate_fidelity_outputs(nc, 0, vb, other);
  EXPECT_EQ(r.contract_stats.plan_cache_hits, 0u);
  EXPECT_EQ(cache.misses(), misses_after_first + 2);
  EXPECT_EQ(cache.size(), 2u);  // one template entry per option set
}

TEST(PlanCache, PortfolioKnobsChangeTheTemplateKey) {
  const ch::NoisyCircuit nc = workload(615);
  const std::vector<std::uint64_t> vb = bitstrings(16, 4, 7);
  PlanCache cache;
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  opts.plan_cache = &cache;
  (void)approximate_fidelity_outputs(nc, 0, vb, opts);

  // A known replay count changes the Auto search, so the template key
  // must miss: the priced search may legitimately pick a different
  // schedule, and serving either under the other's key would break replay
  // determinism.
  ApproxOptions priced = opts;
  priced.eval.tn.replays = 4;
  const ApproxBatchResult r_priced = approximate_fidelity_outputs(nc, 0, vb, priced);
  EXPECT_EQ(r_priced.contract_stats.plan_cache_hits, 0u);
  EXPECT_EQ(r_priced.contract_stats.plan_cache_misses, 2u);

  // A warm repeat of the original options still hits everything and stays
  // bitwise-equal to a cache-free run.
  const ApproxBatchResult warm = approximate_fidelity_outputs(nc, 0, vb, opts);
  EXPECT_EQ(warm.contract_stats.plan_cache_hits, 2u);
  EXPECT_EQ(warm.contract_stats.plans_compiled, 0u);
  ApproxOptions no_cache = opts;
  no_cache.plan_cache = nullptr;
  const ApproxBatchResult cold = approximate_fidelity_outputs(nc, 0, vb, no_cache);
  for (std::size_t o = 0; o < vb.size(); ++o) {
    EXPECT_EQ(cold.raw[o].real(), warm.raw[o].real());
    EXPECT_EQ(cold.raw[o].imag(), warm.raw[o].imag());
  }
}

TEST(PlanCache, DifferentSlotLayoutsMissOnBatchedPlansOnly) {
  const ch::NoisyCircuit nc = workload(607);
  const std::vector<std::uint64_t> vb = bitstrings(16, 4, 4);
  PlanCache cache;
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  opts.plan_cache = &cache;
  (void)approximate_fidelity_outputs(nc, 0, vb, opts);

  // A level-2 ladder step over the same skeleton: the template and its
  // environment schedule hit (the topology and noise sites are unchanged),
  // but the level-2 terms need a batched plan, which the level-1 sweep
  // never compiled, so it misses and compiles fresh.
  ApproxOptions ladder = opts;
  ladder.level = 2;
  const ApproxBatchResult r = approximate_fidelity_outputs(nc, 0, vb, ladder);
  EXPECT_EQ(r.contract_stats.plan_cache_hits, 2u);    // the template + schedule
  EXPECT_EQ(r.contract_stats.plan_cache_misses, 1u);  // the batched plan
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, LruEvictionPastMaxEntries) {
  const ch::NoisyCircuit a = workload(609);
  const ch::NoisyCircuit b = workload(611, 2);
  const std::vector<std::uint64_t> vb = bitstrings(16, 3, 5);
  PlanCache cache(1);  // exactly one circuit's template
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  opts.plan_cache = &cache;

  const ApproxBatchResult a1 = approximate_fidelity_outputs(a, 0, vb, opts);
  EXPECT_EQ(cache.size(), 1u);
  (void)approximate_fidelity_outputs(b, 0, vb, opts);  // evicts a's entry
  EXPECT_EQ(cache.size(), 1u);
  const ApproxBatchResult a2 = approximate_fidelity_outputs(a, 0, vb, opts);
  EXPECT_EQ(a2.contract_stats.plan_cache_hits, 0u);  // recompiled after eviction
  EXPECT_EQ(a2.contract_stats.plan_cache_misses, 2u);
  for (std::size_t o = 0; o < vb.size(); ++o) {
    EXPECT_EQ(a1.raw[o].real(), a2.raw[o].real());
    EXPECT_EQ(a1.raw[o].imag(), a2.raw[o].imag());
  }

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GT(cache.misses(), 0u);  // counters survive clear()
}

TEST(PlanCache, ConcurrentSweepsShareOneCacheRaceFree) {
  const ch::NoisyCircuit nc = workload(613);
  const std::vector<std::uint64_t> vb = bitstrings(16, 5, 6);
  ApproxOptions base;
  base.level = 1;
  base.eval = tn_eval();
  const ApproxBatchResult ref = approximate_fidelity_outputs(nc, 0, vb, base);

  PlanCache cache;
  constexpr std::size_t kThreads = 4;
  std::vector<ApproxBatchResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ApproxOptions opts = base;
      opts.plan_cache = &cache;
      opts.threads = 2;  // worker threads inside each concurrent sweep too
      results[t] = approximate_fidelity_outputs(nc, 0, vb, opts);
    });
  for (std::thread& t : threads) t.join();

  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t o = 0; o < vb.size(); ++o) {
      EXPECT_EQ(ref.raw[o].real(), results[t].raw[o].real()) << "thread " << t;
      EXPECT_EQ(ref.raw[o].imag(), results[t].raw[o].imag()) << "thread " << t;
    }
  // Racing misses may both compile (by design), but the cache must end up
  // with exactly the one template entry and every call fully served.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GE(cache.hits() + cache.misses(), 2u * kThreads);
}

}  // namespace
}  // namespace noisim::core
