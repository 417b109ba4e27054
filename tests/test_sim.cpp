// Tests for the state-vector, density-matrix and trajectories simulators.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "bench_support/generators.hpp"
#include "channels/catalog.hpp"
#include "core/backend.hpp"
#include "linalg/qr.hpp"
#include "run_backend.hpp"
#include "sim/density.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectories.hpp"
#include "tensor/kernels.hpp"
#include "uneven_sampler.hpp"

namespace noisim::sim {
namespace {

qc::Circuit random_circuit(int n, int gates, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> q(0, n - 1);
  std::uniform_int_distribution<int> kind(0, 5);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  qc::Circuit c(n);
  for (int i = 0; i < gates; ++i) {
    switch (kind(rng)) {
      case 0: c.add(qc::h(q(rng))); break;
      case 1: c.add(qc::t(q(rng))); break;
      case 2: c.add(qc::rx(q(rng), angle(rng))); break;
      case 3: c.add(qc::rz(q(rng), angle(rng))); break;
      default: {
        int a = q(rng), b = q(rng);
        if (a == b) b = (a + 1) % n;
        c.add(qc::cz(a, b));
      }
    }
  }
  return c;
}

TEST(Statevector, InitialState) {
  Statevector sv(3);
  EXPECT_TRUE(approx_equal(sv.amplitude(0), cplx{1, 0}));
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, BasisState) {
  const Statevector sv = Statevector::basis(3, 0b101);
  EXPECT_TRUE(approx_equal(sv.amplitude(0b101), cplx{1, 0}));
  EXPECT_TRUE(approx_equal(sv.amplitude(0), cplx{0, 0}));
}

TEST(Statevector, XOnQubitZeroFlipsHighBit) {
  Statevector sv(2);
  sv.apply_gate(qc::x(0));
  EXPECT_TRUE(approx_equal(sv.amplitude(0b10), cplx{1, 0}));
}

TEST(Statevector, BellPairAmplitudes) {
  Statevector sv(2);
  sv.apply_gate(qc::h(0));
  sv.apply_gate(qc::cx(0, 1));
  EXPECT_NEAR(std::abs(sv.amplitude(0b00)), 1 / std::numbers::sqrt2, 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(0b11)), 1 / std::numbers::sqrt2, 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(0b01)), 0.0, 1e-12);
}

class SvVsDenseUnitary : public ::testing::TestWithParam<int> {};

TEST_P(SvVsDenseUnitary, MatchesCircuitUnitaryColumn) {
  const int n = 4;
  const qc::Circuit c = random_circuit(n, 20, static_cast<std::uint64_t>(GetParam()));
  const la::Matrix u = qc::circuit_unitary(c);
  Statevector sv = Statevector::basis(n, 5);
  sv.apply_circuit(c);
  for (std::size_t row = 0; row < (1u << n); ++row)
    EXPECT_TRUE(approx_equal(sv.amplitude(row), u(row, 5), 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvVsDenseUnitary, ::testing::Range(0, 10));

TEST(Statevector, Expectation1MatchesDirect) {
  std::mt19937_64 rng(3);
  Statevector sv(3);
  sv.apply_circuit(random_circuit(3, 15, 99));
  const la::Matrix m = la::random_ginibre(2, 2, rng);
  // Compare against applying the operator and taking the inner product.
  Statevector applied = sv;
  applied.apply_matrix1(m, 1);
  EXPECT_TRUE(approx_equal(sv.expectation1(m, 1), sv.inner(applied), 1e-10));
}

TEST(Statevector, NonUnitaryApplication) {
  Statevector sv(1);
  sv.apply_gate(qc::h(0));
  const la::Matrix proj{{1, 0}, {0, 0}};  // |0><0|
  sv.apply_matrix1(proj, 0);
  EXPECT_NEAR(sv.norm2(), 0.5, 1e-12);
}

TEST(Statevector, QubitCountGuard) {
  EXPECT_THROW(Statevector(0), LinalgError);
  EXPECT_THROW(Statevector(27), LinalgError);
}

// --- density matrix ----------------------------------------------------------

TEST(DensityMatrix, PureStateEvolutionMatchesStatevector) {
  for (int seed = 0; seed < 6; ++seed) {
    const int n = 3;
    const qc::Circuit c = random_circuit(n, 18, static_cast<std::uint64_t>(seed) + 50);
    Statevector sv(n);
    sv.apply_circuit(c);
    DensityMatrix dm(n);
    dm.evolve(ch::NoisyCircuit(c));
    for (std::size_t r = 0; r < (1u << n); ++r)
      for (std::size_t cc = 0; cc < (1u << n); ++cc)
        EXPECT_TRUE(approx_equal(dm.element(r, cc),
                                 sv.amplitude(r) * std::conj(sv.amplitude(cc)), 1e-10));
  }
}

TEST(DensityMatrix, ChannelApplicationMatchesDenseKraus) {
  // Apply a channel on qubit 1 of 2 and compare against the dense formula
  // with lifted Kraus operators.
  const ch::Channel noise = ch::amplitude_damping(0.3);
  qc::Circuit prep(2);
  prep.add(qc::h(0)).add(qc::cx(0, 1));
  DensityMatrix dm(2);
  dm.evolve(ch::NoisyCircuit(prep));
  la::Matrix rho = dm.to_matrix();
  dm.apply_channel(noise, 1);

  la::Matrix want(4, 4);
  for (const la::Matrix& k : noise.kraus()) {
    const la::Matrix lifted = la::kron(la::Matrix::identity(2), k);
    want += lifted * rho * lifted.adjoint();
  }
  EXPECT_TRUE(dm.to_matrix().approx_equal(want, 1e-10));
}

TEST(DensityMatrix, TraceIsPreservedThroughNoisyCircuit) {
  qc::Circuit c(3);
  c.add(qc::h(0)).add(qc::cx(0, 1)).add(qc::rx(2, 0.7));
  ch::NoisyCircuit nc(c);
  nc.add_noise(0, ch::depolarizing(0.1));
  nc.add_noise(2, ch::thermal_relaxation(0.05, 1.0, 1.5));
  DensityMatrix dm(3);
  dm.evolve(nc);
  EXPECT_NEAR(dm.trace(), 1.0, 1e-10);
}

TEST(DensityMatrix, FidelityAgainstVector) {
  qc::Circuit c(2);
  c.add(qc::h(0));
  DensityMatrix dm(2);
  dm.evolve(ch::NoisyCircuit(c));
  la::Vector v(4);
  v[0] = cplx{1 / std::numbers::sqrt2, 0};
  v[2] = cplx{1 / std::numbers::sqrt2, 0};
  EXPECT_NEAR(dm.fidelity(v), 1.0, 1e-10);
  EXPECT_NEAR(dm.fidelity_basis(0), 0.5, 1e-10);
}

TEST(DensityMatrix, DepolarizingDrivesTowardsMixed) {
  ch::NoisyCircuit nc(1);
  for (int i = 0; i < 50; ++i) nc.add_noise(0, ch::depolarizing(0.2));
  DensityMatrix dm(1);
  dm.evolve(nc);
  EXPECT_NEAR(dm.fidelity_basis(0), 0.5, 1e-6);
}

// --- trajectories ------------------------------------------------------------

TEST(Trajectories, NoiselessCircuitIsDeterministic) {
  qc::Circuit c(2);
  c.add(qc::h(0)).add(qc::cx(0, 1));
  std::mt19937_64 rng(1);
  const TrajectoryResult r = trajectories_sv(ch::NoisyCircuit(c), 0, 0b11, 50, rng);
  EXPECT_NEAR(r.mean, 0.5, 1e-12);
  // Equal samples: the Welford fold's deviations are exactly zero.
  EXPECT_EQ(r.std_error, 0.0);
}

class TrajectoriesConverge : public ::testing::TestWithParam<int> {};

TEST_P(TrajectoriesConverge, AgreesWithDensityMatrixWithinError) {
  const int n = 3;
  const qc::Circuit c = random_circuit(n, 12, static_cast<std::uint64_t>(GetParam()) + 7);
  ch::NoisyCircuit nc(c);
  nc.add_noise(0, ch::depolarizing(0.15));
  nc.add_noise(2, ch::amplitude_damping(0.2));
  nc.add_noise(1, ch::thermal_relaxation(0.02, 0.5, 0.8));

  const double exact = exact_fidelity_mm(nc, 0, 0);
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 1);
  const TrajectoryResult r = trajectories_sv(nc, 0, 0, 4000, rng);
  // 5 sigma (plus epsilon for the zero-variance corner case).
  EXPECT_NEAR(r.mean, exact, 5.0 * r.std_error + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrajectoriesConverge, ::testing::Range(0, 5));

TEST(Trajectories, HoeffdingSampleCount) {
  // r = ln(2/0.01) / (2 * 0.01^2) ~ 26492.
  EXPECT_EQ(hoeffding_samples(0.01, 0.01), 26492u);
  EXPECT_THROW(hoeffding_samples(0.0, 0.5), LinalgError);
}

TEST(Trajectories, HoeffdingRejectsDegenerateInputs) {
  EXPECT_THROW(hoeffding_samples(-0.1, 0.5), LinalgError);
  EXPECT_THROW(hoeffding_samples(0.1, 0.0), LinalgError);
  EXPECT_THROW(hoeffding_samples(0.1, -0.5), LinalgError);
  // failure_prob >= 2 makes ln(2/failure) <= 0: the cast used to overflow
  // to a bogus huge count (or return 0) instead of failing loudly.
  EXPECT_THROW(hoeffding_samples(0.1, 2.0), LinalgError);
  EXPECT_THROW(hoeffding_samples(0.1, 5.0), LinalgError);
  // Vacuous-confidence but well-defined region still returns a count.
  EXPECT_GE(hoeffding_samples(0.1, 1.5), 1u);
}

// --- parallel engine ---------------------------------------------------------

TEST(Trajectories, SvCostChargesTheCleanEvolutionOncePerCall) {
  // dim 8: a 1-qubit pass is 16 modeled flops, a 2-qubit pass 32, priced
  // per source gate whatever the fused program runs.
  qc::Circuit c(3);
  c.add(qc::h(0)).add(qc::cx(0, 1));
  const double gates = 16.0 + 32.0;
  ch::NoisyCircuit nc(c);
  const TrajectoryCost noiseless = sv_trajectory_cost(nc);
  EXPECT_EQ(noiseless.per_sample_flops, 0.0);
  EXPECT_EQ(noiseless.per_call_flops, gates);

  // Identity weights 0.7 and 0.9: a sample is clean with probability 0.63,
  // and only the others pay the evolution with its expected noise passes.
  nc.add_noise(0, ch::depolarizing(0.3));
  nc.add_noise(1, ch::bit_flip(0.1));
  const TrajectoryCost mixtures = sv_trajectory_cost(nc);
  EXPECT_NEAR(mixtures.per_sample_flops, (1.0 - 0.7 * 0.9) * (gates + (0.3 + 0.1) * 16.0), 1e-9);
  EXPECT_EQ(mixtures.per_call_flops, gates);

  // A Born site evolves every sample: no reuse is priced.
  nc.add_noise(2, ch::amplitude_damping(0.2));
  const TrajectoryCost born = sv_trajectory_cost(nc);
  EXPECT_NEAR(born.per_sample_flops, gates + (0.3 + 0.1) * 16.0 + (2.0 + 2.0) * 16.0, 1e-9);
  EXPECT_EQ(born.per_call_flops, 0.0);
}

TEST(ParallelEngine, WelfordMatchesTwoPassStatistics) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::vector<double> xs(257);
  for (double& x : xs) x = unif(rng);

  Welford w;
  for (double x : xs) w.add(x);

  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_EQ(w.count, xs.size());
  EXPECT_NEAR(w.mean, mean, 1e-13);
  EXPECT_NEAR(w.variance(), var, 1e-13);
}

TEST(ParallelEngine, WelfordMergeMatchesSinglePass) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  Welford whole, a, b, empty;
  for (int i = 0; i < 100; ++i) {
    const double x = unif(rng);
    whole.add(x);
    (i < 37 ? a : b).add(x);
  }
  a.merge(b);
  a.merge(empty);  // merging an empty accumulator is a no-op
  EXPECT_EQ(a.count, whole.count);
  EXPECT_NEAR(a.mean, whole.mean, 1e-13);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-13);
}

ch::NoisyCircuit parallel_test_circuit() {
  const qc::Circuit c = random_circuit(4, 16, 77);
  ch::NoisyCircuit nc(c);
  nc.add_noise(0, ch::depolarizing(0.1));
  nc.add_noise(2, ch::amplitude_damping(0.15));
  nc.add_noise(3, ch::thermal_relaxation(0.03, 0.6, 0.9));
  return nc;
}

TEST(ParallelEngine, SameSeedSameEstimateAcrossThreadCounts) {
  const ch::NoisyCircuit nc = parallel_test_circuit();
  ParallelOptions opts;
  opts.threads = 1;
  const TrajectoryResult base = trajectories_sv(nc, 0, 0, 500, 42, opts);
  for (std::size_t threads : {2u, 3u, 4u, 8u}) {
    opts.threads = threads;
    const TrajectoryResult r = trajectories_sv(nc, 0, 0, 500, 42, opts);
    // Bit-for-bit: chunk streams and the merge order do not depend on the
    // thread count.
    EXPECT_EQ(r.mean, base.mean) << threads << " threads";
    EXPECT_EQ(r.std_error, base.std_error) << threads << " threads";
    EXPECT_EQ(r.samples, base.samples);
  }

  // Uneven per-item cost and many more chunks than threads + 2: items
  // finish out of order, so the queue stashes them and the bounded pool
  // fills, at every thread count and shard size. The serial oracle folds
  // each chunk's per-estimate statistics from zero in sample order and
  // merges them in chunk order.
  constexpr std::size_t kSamples = 300, kEstimates = 5, kChunk = 8;
  ParallelOptions uneven;
  uneven.chunk_size = kChunk;
  const ShardChunkSamplerFactory factory = uneven_sampler();
  const ShardChunkSampler serial = factory(0);
  std::vector<Welford> oracle(kEstimates);
  std::vector<double> values(kChunk * kEstimates);
  for (std::size_t c = 0; c * kChunk < kSamples; ++c) {
    std::mt19937_64 rng = chunk_rng(42, c);
    const std::size_t count = std::min(kChunk, kSamples - c * kChunk);
    serial(rng, 0, kEstimates, count, std::span<double>(values.data(), count * kEstimates));
    for (std::size_t o = 0; o < kEstimates; ++o) {
      Welford chunk;
      for (std::size_t s = 0; s < count; ++s) chunk.add(values[s * kEstimates + o]);
      oracle[o].merge(chunk);
    }
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t shard : {0u, 1u, 3u}) {
      uneven.threads = threads;
      const std::vector<TrajectoryResult> r =
          run_trajectories_sharded(kSamples, kEstimates, shard, 42, factory, uneven);
      ASSERT_EQ(r.size(), kEstimates);
      for (std::size_t o = 0; o < kEstimates; ++o) {
        const TrajectoryResult want = oracle[o].result();
        EXPECT_EQ(r[o].mean, want.mean) << threads << " threads, shard " << shard << ", o " << o;
        EXPECT_EQ(r[o].std_error, want.std_error)
            << threads << " threads, shard " << shard << ", o " << o;
        EXPECT_EQ(r[o].samples, kSamples);
      }
    }
  }
}

TEST(ParallelEngine, DifferentSeedsDiffer) {
  const ch::NoisyCircuit nc = parallel_test_circuit();
  ParallelOptions opts;
  opts.threads = 2;
  const TrajectoryResult a = trajectories_sv(nc, 0, 0, 200, 1, opts);
  const TrajectoryResult b = trajectories_sv(nc, 0, 0, 200, 2, opts);
  EXPECT_NE(a.mean, b.mean);
}

TEST(ParallelEngine, ParallelAgreesWithSerialWithinStatisticalError) {
  const ch::NoisyCircuit nc = parallel_test_circuit();
  const double exact = exact_fidelity_mm(nc, 0, 0);

  std::mt19937_64 rng(11);
  const TrajectoryResult serial = trajectories_sv(nc, 0, 0, 3000, rng);
  ParallelOptions opts;
  opts.threads = 4;
  const TrajectoryResult parallel = trajectories_sv(nc, 0, 0, 3000, 11, opts);

  // Both are unbiased estimators of the same fidelity: check each against
  // the exact value at 5 sigma, and against each other at combined error.
  EXPECT_NEAR(serial.mean, exact, 5.0 * serial.std_error + 1e-6);
  EXPECT_NEAR(parallel.mean, exact, 5.0 * parallel.std_error + 1e-6);
  EXPECT_NEAR(parallel.mean, serial.mean,
              5.0 * (parallel.std_error + serial.std_error) + 1e-6);
}

TEST(ParallelEngine, PartialFinalChunkCountsAllSamples) {
  const ch::NoisyCircuit nc = parallel_test_circuit();
  ParallelOptions opts;
  opts.threads = 3;
  opts.chunk_size = 7;  // 100 = 14 * 7 + 2: exercises the short last chunk
  const TrajectoryResult r = trajectories_sv(nc, 0, 0, 100, 5, opts);
  EXPECT_EQ(r.samples, 100u);
  EXPECT_GE(r.mean, 0.0);
  EXPECT_LE(r.mean, 1.0 + 1e-12);
}

TEST(ParallelEngine, RejectsDegenerateArguments) {
  const ch::NoisyCircuit nc = parallel_test_circuit();
  ParallelOptions opts;
  opts.chunk_size = 0;
  EXPECT_THROW(trajectories_sv(nc, 0, 0, 10, 1, opts), LinalgError);
}

TEST(ParallelEngine, ZeroSamplesIsAWellDefinedEmptyEstimate) {
  // A sweep driver that partitions a sample budget can land on an empty
  // shard; that must be an empty estimate, not an exception.
  const ch::NoisyCircuit nc = parallel_test_circuit();
  ParallelOptions opts;
  const TrajectoryResult r = trajectories_sv(nc, 0, 0, 0, 1, opts);
  EXPECT_EQ(r.samples, 0u);
  EXPECT_EQ(r.mean, 0.0);
  EXPECT_EQ(r.std_error, 0.0);
  std::mt19937_64 rng(1);
  const TrajectoryResult direct = trajectories_sv(nc, 0, 0, 0, rng);
  EXPECT_EQ(direct.samples, 0u);
  EXPECT_EQ(direct.mean, 0.0);
}

TEST(ParallelEngine, WorkerExceptionsPropagate) {
  ParallelOptions opts;
  opts.threads = 4;
  opts.chunk_size = 1;
  const SamplerFactory factory = [](std::size_t) -> Sampler {
    return [](std::mt19937_64&) -> double { throw LinalgError("boom"); };
  };
  EXPECT_THROW(run_trajectories(64, 9, factory, opts), LinalgError);
}

TEST(Trajectories, SingleSampleOfUnitaryMixtureIsValidFidelity) {
  qc::Circuit c(2);
  c.add(qc::h(0));
  ch::NoisyCircuit nc(c);
  nc.add_noise(0, ch::depolarizing(0.5));
  std::mt19937_64 rng(9);
  for (int i = 0; i < 20; ++i) {
    const double f = sample_trajectory_sv(nc, 0, 0, rng);
    EXPECT_GE(f, -1e-12);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
}

// --- out-of-range arguments ----------------------------------------------------

TEST(Trajectories, OutOfRangeBitstringsThrowBeforeSampling) {
  qc::Circuit c(3);
  c.add(qc::h(0)).add(qc::cx(0, 1));
  ch::NoisyCircuit nc(c);
  nc.add_noise(1, ch::depolarizing(0.1));
  const std::uint64_t huge = std::uint64_t{1} << 40;
  for (const std::uint64_t bad : {std::uint64_t{8}, huge}) {
    std::mt19937_64 rng(3);
    EXPECT_THROW(sample_trajectory_sv(nc, 0, bad, rng), LinalgError);
    EXPECT_THROW(sample_trajectory_sv(nc, bad, 0, rng), LinalgError);
    EXPECT_THROW(trajectories_sv(nc, 0, bad, 10, rng), LinalgError);
    EXPECT_THROW(trajectories_sv(nc, bad, 0, 0, rng), LinalgError);
    // Nothing was drawn: the stream is where a fresh generator starts.
    EXPECT_EQ(rng(), std::mt19937_64(3)());
    ParallelOptions opts;
    opts.threads = 4;
    EXPECT_THROW(trajectories_sv(nc, 0, bad, 64, 1, opts), LinalgError);
    EXPECT_THROW(trajectories_sv(nc, bad, 0, 64, 1, opts), LinalgError);
  }
  // The last valid output still samples.
  std::mt19937_64 rng(3);
  EXPECT_NO_THROW(sample_trajectory_sv(nc, 7, 7, rng));
}

TEST(Trajectories, SvTrajectoriesBackendRejectsOutOfRangeOutput) {
  qc::Circuit c(3);
  c.add(qc::h(0)).add(qc::cx(0, 1));
  ch::NoisyCircuit nc(c);
  nc.add_noise(1, ch::depolarizing(0.1));
  core::SimulateOptions opts;
  opts.error_budget = 5e-2;
  EXPECT_THROW(core::run_backend(core::BackendKind::SvTrajectories, nc, 0,
                                 std::uint64_t{1} << 40, opts),
               LinalgError);
}

TEST(Statevector, OutOfRangeQubitAndBitsThrow) {
  const Statevector sv(3);
  const la::Matrix z{{1, 0}, {0, -1}};
  EXPECT_THROW(sv.expectation1(z, -1), LinalgError);
  EXPECT_THROW(sv.expectation1(z, 3), LinalgError);
  EXPECT_NO_THROW(sv.expectation1(z, 2));
  EXPECT_THROW(sv.amplitude(8), LinalgError);
  EXPECT_THROW(sv.amplitude(std::uint64_t{1} << 40), LinalgError);
  EXPECT_EQ(sv.amplitude(0), cplx(1.0, 0.0));
}

// --- golden estimate bits ------------------------------------------------------
//
// Fixed-seed trajectories_sv estimates pinned as hex-float literals. Every
// case evolves the fused gate program (each run of gates between two noise
// sites multiplied out into <= 2-qubit operators), so any change to the
// fusion rules, the operators' shape classes or the kernels that apply them
// moves at least one pin. The amplitude-damping case goes through the Born
// path: it also pins the Born probabilities, Kraus selection,
// renormalization and the amplitude read-out. The depolarizing cases are
// unitary mixtures, drawn from their fixed weights (sim/mixture_draw.hpp):
// they pin the fixed-weight draw, the identity-branch skip, the branch
// unitaries' kernels and the call's one noise-free evolution, whose value
// every clean sample on every worker returns. All four cases were
// re-recorded when the gate runs were fused and moved only at roundoff
// (at most 2 ulp; the same branches are chosen). Every kernel tier must
// reproduce every case, at one and four threads and through the serial
// overload.

struct GoldenCase {
  const char* name;
  ch::NoisyCircuit nc;
  std::uint64_t v;
  std::size_t samples;
  double mean, std_error;                // seed 2024, chunk_size 8, any thread count
  double serial_mean, serial_std_error;  // std::mt19937_64(2024) overload
};

ch::NoisyCircuit golden_fig5(double p) {
  return bench::insert_noises(bench::qaoa_grid(4, 4, 1, 7), 12, bench::depolarizing_noise(p), 11);
}

ch::NoisyCircuit golden_damping() {
  return bench::insert_noises(bench::qaoa_grid(3, 3, 1, 5), 10,
                              [](std::mt19937_64&) { return ch::amplitude_damping(0.25); }, 13);
}

/// Two-qubit depolarizing after every fifth 2-qubit gate, alternating the
/// (high, low) qubit order of the channel.
ch::NoisyCircuit golden_two_qubit() {
  const qc::Circuit c = bench::qaoa_grid(3, 3, 1, 5);
  ch::NoisyCircuit nc(c.num_qubits());
  int twoq = 0;
  for (const qc::Gate& g : c.gates()) {
    nc.add_gate(g);
    if (g.num_qubits() != 2) continue;
    ++twoq;
    if (twoq % 10 == 0)
      nc.add_noise_2q(g.qubits[0], g.qubits[1], ch::two_qubit_depolarizing(0.2));
    else if (twoq % 5 == 0)
      nc.add_noise_2q(g.qubits[1], g.qubits[0], ch::two_qubit_depolarizing(0.2));
  }
  return nc;
}

TEST(TrajectoryGolden, EstimatesMatchPinnedBitsOnEveryTierAndThreadCount) {
  const GoldenCase cases[] = {
      {"fig5 depolarizing(1e-3)", golden_fig5(1e-3), 11289, 32, 0x1.f3c41d839a29bp-11, 0x0p+0,
       0x1.f3c41d839a29bp-11, 0x0p+0},
      {"fig5 depolarizing(0.3)", golden_fig5(0.3), 11289, 32, 0x1.985ab0efa330bp-13,
       0x1.815e4ceec5f54p-15, 0x1.11d1d14900981p-13, 0x1.a7e7fd627d751p-16},
      {"amplitude_damping(0.25)", golden_damping(), 110, 64, 0x1.d5842abcfe0e4p-7,
       0x1.9eff4680a461ap-10, 0x1.084d8b510c1e2p-6, 0x1.a2cf8c837edb5p-10},
      {"two_qubit_depolarizing(0.2)", golden_two_qubit(), 110, 64, 0x1.3f3a43d45dabfp-6,
       0x1.115b9856bef04p-9, 0x1.9ccb966b34d65p-6, 0x1.120c5efe49df7p-9},
  };
  for (std::size_t t = 0; t < tsr::kNumKernelTiers; ++t) {
    const auto tier = static_cast<tsr::KernelTier>(t);
    if (!tsr::kernel_table(tier)) continue;
    const tsr::KernelTier prev = tsr::set_kernel_tier(tier);
    for (const GoldenCase& gc : cases) {
      const std::string where = std::string(gc.name) + " on " + tsr::kernel_tier_name(tier);
      for (const std::size_t threads : {1ul, 4ul}) {
        ParallelOptions opts;
        opts.threads = threads;
        opts.chunk_size = 8;
        const TrajectoryResult r = trajectories_sv(gc.nc, 0, gc.v, gc.samples, 2024, opts);
        EXPECT_EQ(r.mean, gc.mean) << where << ", threads " << threads;
        EXPECT_EQ(r.std_error, gc.std_error) << where << ", threads " << threads;
      }
      std::mt19937_64 rng(2024);
      const TrajectoryResult r = trajectories_sv(gc.nc, 0, gc.v, gc.samples, rng);
      EXPECT_EQ(r.mean, gc.serial_mean) << where << ", serial";
      EXPECT_EQ(r.std_error, gc.serial_std_error) << where << ", serial";
    }
    tsr::set_kernel_tier(prev);
  }
}

}  // namespace
}  // namespace noisim::sim
