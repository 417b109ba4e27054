// Tests for the output-bitstring batching axis: batch_amplitudes / the
// batched plan of a site-free ReplayLayout, approximate_fidelity_outputs,
// trajectories_tn_sweep -- plus sampling-path regression tests
// (unnormalized mixtures, zero-sample entry points).
#include <gtest/gtest.h>

#include <random>

#include "bench_support/generators.hpp"
#include "bench_support/oracle.hpp"
#include "channels/catalog.hpp"
#include "core/approx.hpp"
#include "core/trajectories_tn.hpp"
#include "sim/trajectories.hpp"

namespace noisim::core {
namespace {

EvalOptions tn_eval() {
  EvalOptions eval;
  eval.backend = EvalOptions::Backend::TensorNetwork;
  return eval;
}

EvalOptions sv_eval() {
  EvalOptions eval;
  eval.backend = EvalOptions::Backend::StateVector;
  return eval;
}

std::vector<std::uint64_t> sampled_bitstrings(int n, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::uint64_t mask = n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  std::vector<std::uint64_t> out(count);
  for (auto& v : out) v = rng() & mask;
  return out;
}

void expect_batch_matches_amplitude(int n, const std::vector<qc::Gate>& gates,
                                    std::span<const std::uint64_t> vb,
                                    const EvalOptions& eval) {
  const std::vector<cplx> batch = batch_amplitudes(n, gates, 0, vb, eval);
  ASSERT_EQ(batch.size(), vb.size());
  for (std::size_t t = 0; t < vb.size(); ++t) {
    const cplx ref = amplitude(n, gates, 0, vb[t], eval);
    EXPECT_EQ(ref.real(), batch[t].real()) << "bitstring " << t;
    EXPECT_EQ(ref.imag(), batch[t].imag()) << "bitstring " << t;
  }
}

// --- batch_amplitudes ---------------------------------------------------------

TEST(BatchAmplitudes, BitwiseEqualsPerBitstringOnBothBackends) {
  const qc::Circuit c = bench::qaoa(16, 1, 9);
  std::vector<std::uint64_t> vb = sampled_bitstrings(16, 21, 3);
  vb.push_back(vb[4]);  // duplicate inside one batch
  vb.push_back(0);      // all-zeros
  vb.push_back((std::uint64_t{1} << 16) - 1);  // all-ones
  expect_batch_matches_amplitude(16, c.gates(), vb, tn_eval());
  expect_batch_matches_amplitude(16, c.gates(), vb, sv_eval());
}

TEST(BatchAmplitudes, SingleBitstringAndSingleQubit) {
  // K = 1 (degenerate batch) and n = 1 (caps are the whole network).
  const qc::Circuit c16 = bench::qaoa(16, 1, 5);
  const std::vector<std::uint64_t> one{0x2f1bull};
  expect_batch_matches_amplitude(16, c16.gates(), one, tn_eval());

  qc::Circuit c1(1);
  c1.add(qc::h(0)).add(qc::t(0)).add(qc::h(0));
  const std::vector<std::uint64_t> vb{0, 1, 1, 0};
  expect_batch_matches_amplitude(1, c1.gates(), vb, tn_eval());
  expect_batch_matches_amplitude(1, c1.gates(), vb, sv_eval());
}

TEST(BatchAmplitudes, ChunksLargerThanInternalCapacity) {
  // 70 bitstrings stream through capacity-64 chunks: a full chunk plus a
  // ragged tail that does NOT divide the capacity.
  const qc::Circuit c = bench::qaoa(16, 1, 7);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 70, 11);
  expect_batch_matches_amplitude(16, c.gates(), vb, tn_eval());
}

TEST(BatchAmplitudes, EmptyRequestYieldsEmptyResult) {
  const qc::Circuit c = bench::qaoa(16, 1, 7);
  EXPECT_TRUE(batch_amplitudes(16, c.gates(), 0, {}, tn_eval()).empty());
}

TEST(BatchedOutputs, PartialBatchesThroughTemplateApi) {
  // k < capacity and k not dividing capacity, straight on the template API.
  const qc::Circuit c = bench::qaoa(16, 1, 13);
  const AmplitudeTemplate tmpl(16, c.gates(), 0, 0, tn_eval());
  const ReplayLayout layout(tmpl, {}, {}, 1, 8);
  const tn::BatchedPlan bplan = layout.compile(tmpl);
  ReplayEvaluator batched(tmpl, layout, &bplan);
  ReplayEvaluator per_term(tmpl, layout, nullptr);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 3, 17);
  std::vector<cplx> out(3), ref(3);
  batched.amplitudes({}, 1, vb, out);
  per_term.amplitudes({}, 1, vb, ref);
  for (std::size_t t = 0; t < 3; ++t) EXPECT_EQ(ref[t], out[t]);
}

// --- sequential_flop_fraction fallback boundary -------------------------------
//
// output_batch_worthwhile draws the line at 0.999: a compiled batch whose
// schedule is essentially all sequential (per-term) work can only add
// bookkeeping over per-bitstring replay. The two supremacy depths below
// land just under and just over the threshold (0.9989 vs 0.9993 on the
// seeded planner), pinning the policy boundary AND the bit-identity of both
// execution strategies on both sides.

TEST(FlopFraction, JustBelowThresholdKeepsTheBatchedPath) {
  const qc::Circuit c = bench::supremacy_inst(4, 4, 16, 5);
  const AmplitudeTemplate tmpl(16, c.gates(), 0, 0, tn_eval());
  const tn::BatchedPlan bp = ReplayLayout(tmpl, {}, {}, 1, 2).compile(tmpl);
  EXPECT_GT(bp.sequential_flop_fraction(), 0.99);
  EXPECT_LT(bp.sequential_flop_fraction(), 0.999);
  // The exact branch condition batch_amplitudes / the sweep engine /
  // trajectories_tn_sweep test before keeping their batched plan.
  EXPECT_TRUE(output_batch_worthwhile(bp));
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 2, 71);
  expect_batch_matches_amplitude(16, c.gates(), vb, tn_eval());
}

TEST(FlopFraction, AtOrAboveThresholdFallsBackToPerBitstringReplay) {
  const qc::Circuit c = bench::supremacy_inst(4, 4, 24, 5);
  const AmplitudeTemplate tmpl(16, c.gates(), 0, 0, tn_eval());
  const tn::BatchedPlan bp = ReplayLayout(tmpl, {}, {}, 1, 2).compile(tmpl);
  EXPECT_GE(bp.sequential_flop_fraction(), 0.999);
  EXPECT_LE(bp.sequential_flop_fraction(), 1.0);
  EXPECT_FALSE(output_batch_worthwhile(bp));
  // The convenience API therefore replays per bitstring -- bit-identically.
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 2, 73);
  expect_batch_matches_amplitude(16, c.gates(), vb, tn_eval());

  // And the rejected batched plan itself still agrees bitwise with
  // per-term replay: the policy is a performance call, never a correctness
  // one.
  const ReplayLayout layout(tmpl, {}, {}, 1, 2);
  ReplayEvaluator batched(tmpl, layout, &bp);
  ReplayEvaluator per_term(tmpl, layout, nullptr);
  std::vector<cplx> out(2), ref(2);
  batched.amplitudes({}, 1, vb, out);
  per_term.amplitudes({}, 1, vb, ref);
  for (std::size_t t = 0; t < 2; ++t) EXPECT_EQ(ref[t], out[t]);
}

// --- approximate_fidelity_outputs ---------------------------------------------

ch::NoisyCircuit xeb_workload(int n, std::size_t noises, std::uint64_t seed) {
  return bench::insert_noises(bench::qaoa(n, 1, 77), noises,
                              bench::depolarizing_noise(0.01), seed);
}

void expect_outputs_match_per_bitstring(const ch::NoisyCircuit& nc,
                                        std::span<const std::uint64_t> vb,
                                        const ApproxOptions& opts) {
  const ApproxBatchResult batch = approximate_fidelity_outputs(nc, 0, vb, opts);
  ASSERT_EQ(batch.values.size(), vb.size());
  for (std::size_t o = 0; o < vb.size(); ++o) {
    const ApproxResult ref = approximate_fidelity(nc, 0, vb[o], opts);
    EXPECT_EQ(ref.raw.real(), batch.raw[o].real()) << "output " << o;
    EXPECT_EQ(ref.raw.imag(), batch.raw[o].imag()) << "output " << o;
    ASSERT_EQ(ref.level_values.size(), batch.level_values[o].size());
    for (std::size_t u = 0; u < ref.level_values.size(); ++u)
      EXPECT_EQ(ref.level_values[u], batch.level_values[o][u]) << "output " << o;
    EXPECT_EQ(ref.error_bound, batch.error_bound);
    EXPECT_EQ(ref.tight_error_bound, batch.tight_error_bound);
  }
}

TEST(ApproxOutputs, BitIdenticalToPerBitstringLevels0To2) {
  const ch::NoisyCircuit nc = xeb_workload(16, 3, 501);
  // Duplicates, all-zeros, all-ones ride along with the sampled strings.
  std::vector<std::uint64_t> vb = sampled_bitstrings(16, 5, 31);
  vb.push_back(vb[0]);
  vb.push_back(0);
  vb.push_back((std::uint64_t{1} << 16) - 1);
  for (std::size_t level = 0; level <= 2; ++level) {
    ApproxOptions opts;
    opts.level = level;
    opts.eval = tn_eval();
    expect_outputs_match_per_bitstring(nc, vb, opts);
  }
}

TEST(ApproxOutputs, BitIdenticalAcrossThreadCountsAndBatchSizes) {
  const ch::NoisyCircuit nc = xeb_workload(16, 3, 501);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 6, 37);
  ApproxOptions base;
  base.level = 2;
  base.eval = tn_eval();
  const ApproxBatchResult serial = approximate_fidelity_outputs(nc, 0, vb, base);
  for (const std::size_t threads : {4ul}) {
    for (const std::size_t batch_terms : {1ul, 2ul, 7ul, 32ul}) {
      ApproxOptions opts = base;
      opts.threads = threads;
      opts.batch_terms = batch_terms;
      const ApproxBatchResult other = approximate_fidelity_outputs(nc, 0, vb, opts);
      for (std::size_t o = 0; o < vb.size(); ++o) {
        EXPECT_EQ(serial.raw[o].real(), other.raw[o].real());
        EXPECT_EQ(serial.raw[o].imag(), other.raw[o].imag());
      }
    }
  }
}

TEST(ApproxOutputs, ReferencePathsMatchPerBitstring) {
  const ch::NoisyCircuit nc = xeb_workload(16, 2, 503);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 4, 41);
  // Tensor-network sweep vs the re-planning oracle, bitstring by bitstring.
  ApproxOptions tn;
  tn.level = 1;
  tn.eval = tn_eval();
  const ApproxBatchResult batch = approximate_fidelity_outputs(nc, 0, vb, tn);
  for (std::size_t o = 0; o < vb.size(); ++o) {
    const ApproxResult ref = bench::replanned_fidelity(nc, 0, vb[o], tn.level, tn.eval);
    EXPECT_EQ(bench::replay_mismatch(batch, o, ref), "") << "output " << o;
  }

  ApproxOptions sv;
  sv.level = 1;
  sv.eval = sv_eval();
  expect_outputs_match_per_bitstring(nc, vb, sv);
}

TEST(ApproxOutputs, PerTermReplayMatchesTheBatchedSweep) {
  // A one-output call with batch_terms = 1 has capacity 1: its u >= 2
  // terms replay the per-term plan (no batched plan is compiled), and they
  // must match the terms x outputs batch bit for bit. The u <= 1 terms come
  // from environment passes on both sides.
  const ch::NoisyCircuit nc = xeb_workload(16, 3, 505);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 5, 43);
  ApproxOptions opts;
  opts.level = 2;
  opts.eval = tn_eval();
  const ApproxBatchResult batched = approximate_fidelity_outputs(nc, 0, vb, opts);

  ApproxOptions per_term = opts;
  per_term.batch_terms = 1;
  for (std::size_t o = 0; o < vb.size(); ++o) {
    const ApproxResult r = approximate_fidelity(nc, 0, vb[o], per_term);
    // The template and the environment schedule; no batched plan.
    EXPECT_EQ(r.contract_stats.plans_compiled, 2u);
    EXPECT_EQ(r.raw, batched.raw[o]) << "output " << o;
    EXPECT_EQ(r.term_sums, batched.term_sums[o]) << "output " << o;
    EXPECT_EQ(r.level_values, batched.level_values[o]) << "output " << o;
  }
}

TEST(ApproxOutputs, ConeTrackingPastSixtyFourVaryingSlots) {
  // 64 output caps + 4 noise sites = 68 varying slots: the cone masks are
  // multi-word bitsets, so the row bounds stay tight (a single-word mask
  // limit used to silently degrade exactly this XEB-scale regime) and the
  // batched sweep still reproduces every per-bitstring value bit for bit.
  const ch::NoisyCircuit nc = xeb_workload(64, 4, 601);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(64, 3, 67);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  expect_outputs_match_per_bitstring(nc, vb, opts);
}

TEST(ApproxOutputs, BatchingCostsNoMoreFlopsThanPerOutputSweeps) {
  // 8 outputs x 19 level-1 terms fit one traversal. Its per-pair root pass
  // reuses a step only when neighbouring pairs agree on the step's
  // operands, so the pair layout decides the cost: term-major pairs differ
  // in output at every neighbour and spent ~1.5x the MACs of evaluating
  // each output alone. Output-major pairs must cost no more than that.
  const ch::NoisyCircuit nc =
      bench::insert_noises(bench::qaoa(36, 1, 77), 6, bench::realistic_noise(), 506);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(36, 8, 71);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  const ApproxBatchResult batch = approximate_fidelity_outputs(nc, 0, vb, opts);
  std::size_t per_output_flops = 0;
  for (std::size_t o = 0; o < vb.size(); ++o) {
    const ApproxResult ref = approximate_fidelity(nc, 0, vb[o], opts);
    per_output_flops += ref.contract_stats.flops;
    EXPECT_EQ(ref.raw.real(), batch.raw[o].real()) << "output " << o;
    EXPECT_EQ(ref.raw.imag(), batch.raw[o].imag()) << "output " << o;
  }
  EXPECT_LE(batch.contract_stats.flops, per_output_flops);
}

TEST(ApproxOutputs, EmptyOutputsReturnBoundsOnly) {
  const ch::NoisyCircuit nc = xeb_workload(16, 2, 507);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  const ApproxBatchResult r = approximate_fidelity_outputs(nc, 0, {}, opts);
  EXPECT_TRUE(r.values.empty());
  EXPECT_EQ(r.contractions, 0u);
  EXPECT_GT(r.tight_error_bound, 0.0);
}

TEST(ApproxOutputs, ContractionsCountEveryTermPerOutput) {
  const ch::NoisyCircuit nc = xeb_workload(16, 3, 509);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 4, 47);
  ApproxOptions opts;
  opts.level = 1;
  opts.eval = tn_eval();
  const ApproxBatchResult r = approximate_fidelity_outputs(nc, 0, vb, opts);
  EXPECT_EQ(r.contractions, (1u + 3u * nc.noise_count()) * vb.size());
}

// --- trajectories_tn_sweep, every bitstring in one shard -------------------
//
// Bit-identity with per-bitstring trajectories_tn across shards, threads and
// backends is SweepProperties.TrajectorySweepBitIdenticalAcrossShardsAndThreads.

ch::NoisyCircuit traj_workload(std::uint64_t seed) {
  return bench::insert_noises(bench::qaoa(16, 1, 5), 3, bench::depolarizing_noise(0.02),
                              seed);
}

TEST(TrajOutputs, PerSampleReplayMatchesTheOutputBatch) {
  // One-sample chunks: a one-output shard has capacity 1 and replays the
  // per-term plan, a whole-set shard batches the outputs. Both draw the
  // same (seed, chunk_size) streams, so every estimate matches bit for bit.
  const ch::NoisyCircuit nc = traj_workload(19);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 4, 59);
  sim::ParallelOptions serial;
  serial.threads = 1;
  serial.chunk_size = 1;
  const auto batched = trajectories_tn_sweep(nc, 0, vb, 64, 7, serial, {}, vb.size());
  const auto per_sample = trajectories_tn_sweep(nc, 0, vb, 64, 7, serial, {}, 1);
  for (std::size_t o = 0; o < vb.size(); ++o) {
    EXPECT_EQ(batched[o].mean, per_sample[o].mean);
    EXPECT_EQ(batched[o].std_error, per_sample[o].std_error);
  }
}

TEST(TrajOutputs, ZeroSamplesAndNoOutputs) {
  const ch::NoisyCircuit nc = traj_workload(23);
  const std::vector<std::uint64_t> vb = sampled_bitstrings(16, 3, 61);
  sim::ParallelOptions popts;
  const auto empty = trajectories_tn_sweep(nc, 0, vb, 0, 7, popts, {}, vb.size());
  ASSERT_EQ(empty.size(), vb.size());
  for (const sim::TrajectoryResult& r : empty) {
    EXPECT_EQ(r.samples, 0u);
    EXPECT_EQ(r.mean, 0.0);
    EXPECT_EQ(r.std_error, 0.0);
  }
  EXPECT_TRUE(trajectories_tn_sweep(nc, 0, {}, 10, 7, popts).empty());
}

// samples == 0 used to return the empty estimate before any input check, so
// an out-of-range label or a non-mixture channel passed silently where
// sim::trajectories_sv rejects it.
TEST(TrajectoriesTn, ZeroSamplesStillValidateInputs) {
  ch::NoisyCircuit nc(3);
  nc.add_gate(qc::h(0));
  nc.add_noise(0, ch::depolarizing(0.1));
  std::mt19937_64 rng(1);
  sim::ParallelOptions popts;
  const std::uint64_t out_of_range = 8;  // bit 3 of a 3-qubit label
  const std::vector<std::uint64_t> vb{0, out_of_range};
  EXPECT_THROW(trajectories_tn(nc, out_of_range, 0, 0, rng), LinalgError);
  EXPECT_THROW(trajectories_tn(nc, 0, out_of_range, 0, rng), LinalgError);
  EXPECT_THROW(trajectories_tn(nc, out_of_range, 0, 0, 7, popts), LinalgError);
  EXPECT_THROW(trajectories_tn(nc, 0, out_of_range, 0, 7, popts), LinalgError);
  EXPECT_THROW(trajectories_tn_sweep(nc, 0, vb, 0, 7, popts), LinalgError);
  EXPECT_THROW(sim::trajectories_sv(nc, 0, out_of_range, 0, rng), LinalgError);

  ch::NoisyCircuit damped(3);
  damped.add_gate(qc::h(0));
  damped.add_noise(0, ch::amplitude_damping(0.3));
  EXPECT_THROW(trajectories_tn(damped, 0, 0, 0, rng), LinalgError);
  EXPECT_THROW(trajectories_tn(damped, 0, 0, 0, 7, popts), LinalgError);
  EXPECT_THROW(trajectories_tn_sweep(damped, 0, std::span(vb).first(1), 0, 7, popts), LinalgError);
}

// --- zero-sample entry points (SV / TN) ---------------------------------------

TEST(ZeroSamples, AllBackendsReturnEmptyEstimates) {
  const ch::NoisyCircuit nc = traj_workload(29);
  std::mt19937_64 rng(1);
  sim::ParallelOptions popts;

  const sim::TrajectoryResult tn_direct = trajectories_tn(nc, 0, 0, 0, rng);
  const sim::TrajectoryResult tn_seeded = trajectories_tn(nc, 0, 0, 0, 7, popts);
  const sim::TrajectoryResult sv_direct = sim::trajectories_sv(nc, 0, 0, 0, rng);
  const sim::TrajectoryResult sv_seeded = sim::trajectories_sv(nc, 0, 0, 0, 7, popts);
  for (const sim::TrajectoryResult& r : {tn_direct, tn_seeded, sv_direct, sv_seeded}) {
    EXPECT_EQ(r.samples, 0u);
    EXPECT_EQ(r.mean, 0.0);
    EXPECT_EQ(r.std_error, 0.0);
  }
}

// --- unnormalized mixtures (sample_index regression) --------------------------

TEST(SampleIndex, UnnormalizedMixtureFailsLoudly) {
  // A non-CPTP "channel" whose Kraus set is a mixture of unitaries with
  // probabilities summing to 0.6. Pre-fix, the inverse-CDF fall-through
  // silently sampled the LAST unitary with the missing 0.4 mass; now the
  // skeleton builder rejects the distribution up front.
  const la::Matrix x{{0.0, 1.0}, {1.0, 0.0}};
  std::vector<la::Matrix> kraus{std::sqrt(0.3) * la::Matrix::identity(2),
                                std::sqrt(0.3) * x};
  const ch::Channel bad("unnormalized", std::move(kraus), /*tol=*/0.0);
  ch::NoisyCircuit nc(1);
  nc.add_gate(qc::h(0));
  nc.add_noise(0, bad);
  std::mt19937_64 rng(1);
  EXPECT_THROW(trajectories_tn(nc, 0, 0, 10, rng), LinalgError);
  sim::ParallelOptions popts;
  EXPECT_THROW(trajectories_tn(nc, 0, 0, 10, 7, popts), LinalgError);
  const std::vector<std::uint64_t> vb{0, 1};
  EXPECT_THROW(trajectories_tn_sweep(nc, 0, vb, 10, 7, popts, {}, vb.size()), LinalgError);
}

TEST(SampleIndex, RoundoffDeficitIsNormalizedAway) {
  // Probabilities summing to 1 - 1e-10 (inside the roundoff tolerance) are
  // renormalized and sample fine.
  const la::Matrix x{{0.0, 1.0}, {1.0, 0.0}};
  std::vector<la::Matrix> kraus{std::sqrt(0.5) * la::Matrix::identity(2),
                                std::sqrt(0.5 - 1e-10) * x};
  const ch::Channel nearly("nearly-normalized", std::move(kraus), /*tol=*/0.0);
  ch::NoisyCircuit nc(1);
  nc.add_gate(qc::h(0));
  nc.add_noise(0, nearly);
  std::mt19937_64 rng(2);
  const sim::TrajectoryResult r = trajectories_tn(nc, 0, 0, 200, rng);
  EXPECT_EQ(r.samples, 200u);
  EXPECT_GE(r.mean, 0.0);
  EXPECT_LE(r.mean, 1.0 + 1e-12);
}

}  // namespace
}  // namespace noisim::core
