// Environment-pass suite: the adjoint schedule (tn::EnvSchedule,
// core::EnvEvaluator) behind Algorithm 1's level-0 and level-1 terms.
// A dominant-factor self-check on every kernel tier, bitwise determinism of
// the sweep across threads, shards, batch widths and cache state, the
// re-planning oracle at roundoff, the Theorem-1 bound and the one-layer
// invariants against exact density simulation, the stats the pass reports,
// and its MAC cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "bench_support/generators.hpp"
#include "bench_support/oracle.hpp"
#include "channels/catalog.hpp"
#include "core/approx.hpp"
#include "core/plan_cache.hpp"
#include "sim/density.hpp"
#include "sim/statevector.hpp"
#include "tensor/kernels.hpp"

namespace noisim::core {
namespace {

EvalOptions tn_eval() {
  EvalOptions eval;
  eval.backend = EvalOptions::Backend::TensorNetwork;
  return eval;
}

/// A rows x cols QAOA grid with four noise sites of four kinds: thermal
/// relaxation after the 2nd two-qubit gate, a 2-qubit depolarizing site
/// after the 5th, amplitude damping after the 9th and phase damping after
/// the 13th.
ch::NoisyCircuit mixed_circuit(int rows, int cols, std::uint64_t seed) {
  const qc::Circuit c = bench::qaoa_grid(rows, cols, 1, seed);
  ch::NoisyCircuit nc(c.num_qubits());
  std::size_t twoq = 0;
  for (const qc::Gate& g : c.gates()) {
    nc.add_gate(g);
    if (g.num_qubits() != 2) continue;
    ++twoq;
    if (twoq == 2) nc.add_noise(g.qubits[0], ch::thermal_relaxation(1.0, 50.0, 40.0));
    if (twoq == 5) nc.add_noise_2q(g.qubits[0], g.qubits[1], ch::two_qubit_depolarizing(0.03));
    if (twoq == 9) nc.add_noise(g.qubits[1], ch::amplitude_damping(0.05));
    if (twoq == 13) nc.add_noise(g.qubits[0], ch::phase_damping(0.04));
  }
  return nc;
}

/// The `count` most likely outputs of the noise-free circuit, so every
/// value compared below is well away from zero.
std::vector<std::uint64_t> likely_outputs(const ch::NoisyCircuit& nc, std::size_t count) {
  sim::Statevector sv = sim::Statevector::basis(nc.num_qubits(), 0);
  sv.apply_circuit(nc.gates_only());
  std::vector<std::uint64_t> all(std::size_t{1} << nc.num_qubits());
  for (std::size_t b = 0; b < all.size(); ++b) all[b] = b;
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count), all.end(),
                    [&](std::uint64_t a, std::uint64_t b) {
                      return std::norm(sv.amplitude(a)) > std::norm(sv.amplitude(b));
                    });
  all.resize(count);
  return all;
}

/// The noisy circuit's gates with a custom gate at every noise site
/// (carrying `site_matrix(split, arity)`), plus each site's gate index and
/// split: the topology the sweep compiles its template for.
struct Skeleton {
  std::vector<qc::Gate> gates;
  std::vector<std::size_t> pos;
  std::vector<SplitNoise> splits;
  std::vector<int> arity;
};
template <class SiteMatrix>
Skeleton skeleton(const ch::NoisyCircuit& nc, SiteMatrix&& site_matrix) {
  Skeleton sk;
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op)) {
      sk.gates.push_back(*g);
      continue;
    }
    const ch::NoiseOp& noise = std::get<ch::NoiseOp>(op);
    sk.pos.push_back(sk.gates.size());
    sk.splits.push_back(split_noise(noise.channel));
    sk.arity.push_back(noise.num_qubits());
    const la::Matrix m = site_matrix(sk.splits.back(), noise.num_qubits());
    sk.gates.push_back(noise.num_qubits() == 1 ? qc::u1q(noise.qubit, m)
                                               : qc::u2q(noise.qubit, noise.qubit2, m));
  }
  return sk;
}

la::Matrix identity_site(const SplitNoise&, int arity) {
  return la::Matrix::identity(arity == 1 ? 2 : 4);
}

std::vector<std::size_t> site_nodes(const AmplitudeTemplate& tmpl, const Skeleton& sk) {
  std::vector<std::size_t> nodes;
  for (const std::size_t p : sk.pos) nodes.push_back(tmpl.node_of_gate(p));
  return nodes;
}

void expect_same_bits(const ApproxBatchResult& a, const ApproxBatchResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.raw.size(), b.raw.size()) << what;
  for (std::size_t o = 0; o < a.raw.size(); ++o) {
    EXPECT_EQ(a.raw[o], b.raw[o]) << what << " output " << o;
    EXPECT_EQ(a.term_sums[o], b.term_sums[o]) << what << " output " << o;
    EXPECT_EQ(a.level_values[o], b.level_values[o]) << what << " output " << o;
  }
}

// With the dominant factor at every site, each site's environment against
// that same factor is the network's value again -- at every site, on every
// kernel tier. The pass's value itself is the plan's replay value bit for
// bit.
TEST(EnvPass, DominantOverlapEqualsForwardValueOnEveryTier) {
  const ch::NoisyCircuit nc = mixed_circuit(3, 4, 3);
  const Skeleton sk = skeleton(
      nc, [](const SplitNoise& split, int) { return split.u[0]; });
  for (std::size_t t = 0; t < tsr::kNumKernelTiers; ++t) {
    const auto tier = static_cast<tsr::KernelTier>(t);
    if (!tsr::kernel_table(tier)) continue;
    const tsr::KernelTier prev = tsr::set_kernel_tier(tier);
    for (const std::uint64_t v : likely_outputs(nc, 3)) {
      const AmplitudeTemplate tmpl(12, sk.gates, 0, v, tn_eval());
      const std::vector<std::size_t> nodes = site_nodes(tmpl, sk);
      const tn::EnvSchedule sched = tmpl.compile_env(nodes);
      EnvEvaluator ev(tmpl, sched);
      const std::vector<char> all(nodes.size(), 1);
      // The template's own U_0 tensors.
      std::vector<tsr::Tensor> factors;
      for (std::size_t s = 0; s < nodes.size(); ++s)
        factors.push_back(gate_matrix_tensor(sk.splits[s].u[0], sk.arity[s]));
      std::vector<AmplitudeTemplate::Substitution> subs;
      for (std::size_t s = 0; s < nodes.size(); ++s) subs.emplace_back(nodes[s], &factors[s]);
      const cplx value = ev.evaluate(subs, all, 1);
      std::vector<const tsr::Tensor*> row;
      for (const tsr::Tensor& f : factors) row.push_back(&f);
      std::vector<std::size_t> counts(nodes.size(), 1);
      ReplayEvaluator replay(tmpl, ReplayLayout(tmpl, nodes, counts, 1, 1), nullptr);
      cplx replayed;
      replay.amplitudes(row, 1, std::span(&v, 1), std::span(&replayed, 1));
      EXPECT_EQ(value, replayed);
      ASSERT_GT(std::abs(value), 1e-3);
      for (std::size_t s = 0; s < nodes.size(); ++s)
        EXPECT_LE(std::abs(ev.overlap(s, factors[s]) - value), 1e-12 * std::abs(value))
            << tsr::kernel_tier_name(tier) << " output " << v << " site " << s;
    }
    tsr::set_kernel_tier(prev);
  }
}

// The environment values depend only on the plan, the output caps and the
// factors: never on how items split the term list, on threads, shards, or
// the cache. Level 2 mixes environment items with replayed level-2 items.
TEST(EnvPass, SweepBitIdenticalAcrossThreadsShardsBatchesAndCache) {
  const ch::NoisyCircuit nc = mixed_circuit(3, 4, 5);
  std::mt19937_64 rng(21);
  for (const std::size_t level : {1ul, 2ul}) {
    std::vector<std::uint64_t> vb(level == 1 ? 40 : 6);
    for (auto& v : vb) v = rng() & 0xfff;
    SweepOptions ref_opts;
    ref_opts.approx.level = level;
    ref_opts.approx.eval = tn_eval();
    const ApproxBatchResult ref = xeb_sweep(nc, 0, vb, ref_opts);
    PlanCache cache;
    SweepOptions warm_up = ref_opts;
    warm_up.approx.plan_cache = &cache;
    (void)xeb_sweep(nc, 0, vb, warm_up);
    for (const std::size_t threads : {1ul, 4ul})
      for (const std::size_t shard : {1ul, 3ul, 32ul})
        for (const std::size_t batch : {1ul, 2ul, 32ul})
          for (const bool cached : {false, true}) {
            if (level == 2 && shard != 3) continue;
            SweepOptions sopts = ref_opts;
            sopts.approx.threads = threads;
            sopts.approx.batch_terms = batch;
            sopts.approx.plan_cache = cached ? &cache : nullptr;
            sopts.shard_outputs = shard;
            expect_same_bits(xeb_sweep(nc, 0, vb, sopts), ref,
                             "level " + std::to_string(level) + " threads " +
                                 std::to_string(threads) + " shard " + std::to_string(shard) +
                                 " batch " + std::to_string(batch) + (cached ? " cached" : ""));
          }
  }
}

// Against the re-planning oracle, which contracts every term's two layers
// from scratch (the bottom one literally, with V = conj(U) and conjugated
// gates).
TEST(EnvPass, MatchesReplanningOracleWithTwoQubitSite) {
  const ch::NoisyCircuit nc = mixed_circuit(3, 4, 7);
  const std::vector<std::uint64_t> vb = likely_outputs(nc, 3);
  for (const std::size_t level : {1ul, 2ul}) {
    ApproxOptions opts;
    opts.level = level;
    opts.eval = tn_eval();
    const ApproxBatchResult r = approximate_fidelity_outputs(nc, 0, vb, opts);
    for (std::size_t o = 0; o < (level == 1 ? vb.size() : 1); ++o) {
      const ApproxResult ref = bench::replanned_fidelity(nc, 0, vb[o], level, opts.eval);
      EXPECT_EQ(bench::replay_mismatch(r, o, ref), "") << "level " << level << " output " << o;
    }
  }
}

// Theorem 1 against exact density-matrix simulation: every forced-TN value
// lies within the reported tight bound of the exact one. One evolution
// serves every output (sim::exact_fidelity_mm's computation, which would
// evolve once per output). Every term is |a|^2 of one layer, so each level
// sum is real (imaginary part exactly 0) and nonnegative, A(l) never
// decreases in l, and it never exceeds the exact value, the sum of every
// level.
TEST(EnvPass, WithinTightBoundOfExactDensity) {
  const ch::NoisyCircuit nc = mixed_circuit(2, 5, 9);
  const std::vector<std::uint64_t> vb = likely_outputs(nc, 3);
  sim::DensityMatrix rho(nc.num_qubits());
  rho.evolve(nc);
  std::vector<double> exact;
  for (const std::uint64_t v : vb) exact.push_back(rho.fidelity_basis(v));
  for (const std::size_t level : {0ul, 1ul, 2ul}) {
    ApproxOptions opts;
    opts.level = level;
    opts.eval = tn_eval();
    const ApproxBatchResult r = approximate_fidelity_outputs(nc, 0, vb, opts);
    for (std::size_t o = 0; o < vb.size(); ++o) {
      const std::string where = "level " + std::to_string(level) + " output " + std::to_string(o);
      ASSERT_GT(exact[o], 1e-3);
      EXPECT_LE(std::abs(r.values[o] - exact[o]), r.tight_error_bound) << where;
      for (std::size_t u = 0; u <= level; ++u) {
        EXPECT_EQ(r.term_sums[o][u].imag(), 0.0) << where << " T" << u;
        EXPECT_GE(r.term_sums[o][u].real(), 0.0) << where << " T" << u;
        if (u > 0) {
          EXPECT_GE(r.level_values[o][u], r.level_values[o][u - 1]) << where;
        }
        EXPECT_LE(r.level_values[o][u], exact[o] * (1.0 + 1e-12)) << where << " A(" << u << ")";
      }
    }
  }
}

// A level-1 sweep whose chunks each take all u <= 1 terms in one item runs,
// per output, exactly one forward and one full backward pass; its stats
// count them and every logical contraction.
TEST(EnvPass, StatsCountOneForwardAndBackwardPerOutputAndLayer) {
  const ch::NoisyCircuit nc = mixed_circuit(3, 4, 11);
  const Skeleton sk = skeleton(nc, identity_site);
  const AmplitudeTemplate tmpl(12, sk.gates, 0, 0, tn_eval());
  const tn::EnvSchedule sched = tmpl.compile_env(site_nodes(tmpl, sk));
  std::mt19937_64 rng(31);
  std::vector<std::uint64_t> vb(40);
  for (auto& v : vb) v = rng() & 0xfff;
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  const ApproxBatchResult r = approximate_fidelity_outputs(nc, 0, vb, opts);
  const tn::ContractStats& st = r.contract_stats;
  const std::size_t passes = vb.size();
  EXPECT_EQ(st.flops, passes * (sched.forward_flops() + sched.backward_flops()));
  EXPECT_EQ(st.num_pairwise,
            passes * (tmpl.plan().steps().size() + sched.backward_steps().size()));
  EXPECT_EQ(st.kernels_scalar + st.kernels_avx2 + st.kernels_avx512, st.num_pairwise);
  EXPECT_GT(st.bytes_moved, 0u);
  EXPECT_EQ(st.plans_compiled, 2u);  // the template's plan and its schedule
  EXPECT_EQ(st.plan_executions, r.contractions);
  EXPECT_EQ(st.plan_reuse_hits, r.contractions - 1);
}

// The point of the pass: a level-1 sweep costs a few forward contractions
// per output, not one per term.
TEST(EnvPass, LevelOneCostsAtMostThreeForwardsPerOutputAndLayer) {
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(36, 1, 77), 6, bench::realistic_noise(), 506);
  std::mt19937_64 rng(71);
  std::vector<std::uint64_t> vb(8);
  for (auto& v : vb) v = rng() & ((std::uint64_t{1} << 36) - 1);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  const double layer_flops = approx_cost_model(nc, 0, opts).layer_flops;
  const ApproxBatchResult r = approximate_fidelity_outputs(nc, 0, vb, opts);
  const double per_output =
      static_cast<double>(r.contract_stats.flops) / static_cast<double>(vb.size());
  EXPECT_LE(per_output, 3.0 * layer_flops) << "plan " << layer_flops << " MAC";
}

}  // namespace
}  // namespace noisim::core
