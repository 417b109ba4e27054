// Cross-engine oracle for the trajectory samplers. The state-vector sampler
// (sim::trajectories_sv) and the tensor-network sampler
// (core::trajectories_tn) draw unitary-mixture noise through one protocol
// (sim/mixture_draw.hpp): for the same seed and chunk size they choose the
// same branches, so their estimates differ only by the roundoff of two
// amplitude evaluators. A sampler that drew its branches in another order
// would agree with the other only statistically, and fails here. The
// state-vector estimate is also checked against the exact density-matrix
// reference.
//
// The state-vector sampler evolves the noise-free trajectory once per worker
// and reuses its value for every later sample whose branches are all
// identities. Its serial estimate must therefore equal, bit for bit, a
// Welford fold of sample_trajectory_sv calls (which compile per call and so
// always evolve) on the same stream, and leave that stream in the same
// state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <string>

#include "bench_support/generators.hpp"
#include "channels/catalog.hpp"
#include "core/trajectories_tn.hpp"
#include "sim/density.hpp"
#include "sim/parallel.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectories.hpp"

namespace noisim {
namespace {

constexpr double kRtol = 1e-12;

qc::Circuit grid() { return bench::qaoa_grid(3, 3, 1, 5); }

/// `count` copies of `channel` after distinct seeded gates of the grid.
ch::NoisyCircuit grid_with(const ch::Channel& channel, std::size_t count) {
  return bench::insert_noises(
      grid(), count, [channel](std::mt19937_64&) { return channel; }, 13);
}

/// Two-qubit depolarizing after every third 2-qubit gate, alternating the
/// (high, low) qubit order of the channel.
ch::NoisyCircuit grid_two_qubit(double p) {
  const qc::Circuit c = grid();
  ch::NoisyCircuit nc(c.num_qubits());
  int twoq = 0;
  for (const qc::Gate& g : c.gates()) {
    nc.add_gate(g);
    if (g.num_qubits() != 2 || ++twoq % 3 != 0) continue;
    if (twoq % 2 == 0)
      nc.add_noise_2q(g.qubits[0], g.qubits[1], ch::two_qubit_depolarizing(p));
    else
      nc.add_noise_2q(g.qubits[1], g.qubits[0], ch::two_qubit_depolarizing(p));
  }
  return nc;
}

/// The grid's most likely noise-free output, so every estimate is far from
/// zero.
std::uint64_t likely_output() {
  const qc::Circuit c = grid();
  sim::Statevector sv(c.num_qubits());
  sv.apply_circuit(c);
  std::uint64_t best = 0;
  for (std::uint64_t b = 1; b < sv.size(); ++b)
    if (std::norm(sv.amplitude(b)) > std::norm(sv.amplitude(best))) best = b;
  return best;
}

core::EvalOptions tn_eval() {
  core::EvalOptions eval;
  eval.backend = core::EvalOptions::Backend::TensorNetwork;
  return eval;
}

void expect_close(double sv, double tn, const std::string& what) {
  EXPECT_LE(std::abs(sv - tn), kRtol * std::max(std::abs(sv), std::abs(tn)))
      << what << ": sv " << sv << " vs tn " << tn;
}

/// Both samplers on one circuit: seeded at 1 and 4 threads, and through
/// the serial std::mt19937_64 overloads. The std_error must be well above
/// roundoff, or some branch never fired and the check would be vacuous.
void expect_engines_agree(const ch::NoisyCircuit& nc, const std::string& name) {
  const std::uint64_t v = likely_output();
  constexpr std::size_t kSamples = 512;
  for (const std::size_t threads : {1ul, 4ul}) {
    sim::ParallelOptions popts;
    popts.threads = threads;
    popts.chunk_size = 16;
    const sim::TrajectoryResult sv = sim::trajectories_sv(nc, 0, v, kSamples, 77, popts);
    const sim::TrajectoryResult tn =
        core::trajectories_tn(nc, 0, v, kSamples, 77, popts, tn_eval());
    const std::string where = name + ", threads " + std::to_string(threads);
    EXPECT_GT(sv.std_error, 1e-6 * sv.mean) << where;
    expect_close(sv.mean, tn.mean, where + " mean");
    expect_close(sv.std_error, tn.std_error, where + " std_error");
  }
  std::mt19937_64 rng_sv(78), rng_tn(78);
  const sim::TrajectoryResult sv = sim::trajectories_sv(nc, 0, v, kSamples, rng_sv);
  const sim::TrajectoryResult tn = core::trajectories_tn(nc, 0, v, kSamples, rng_tn, tn_eval());
  EXPECT_GT(sv.std_error, 1e-6 * sv.mean) << name << ", serial";
  expect_close(sv.mean, tn.mean, name + ", serial mean");
  expect_close(sv.std_error, tn.std_error, name + ", serial std_error");
}

/// The serial estimate against its per-sample oracle, bit for bit, with the
/// caller's stream left in the same state.
sim::TrajectoryResult expect_reuse_matches_per_sample(const ch::NoisyCircuit& nc,
                                                       const std::string& name) {
  const std::uint64_t v = likely_output();
  constexpr std::size_t kSamples = 512;
  std::mt19937_64 rng_run(91), rng_ref(91);
  const sim::TrajectoryResult run = sim::trajectories_sv(nc, 0, v, kSamples, rng_run);
  sim::Welford ref;
  for (std::size_t s = 0; s < kSamples; ++s) ref.add(sim::sample_trajectory_sv(nc, 0, v, rng_ref));
  const sim::TrajectoryResult want = ref.result();
  EXPECT_EQ(run.samples, kSamples) << name;
  EXPECT_EQ(run.mean, want.mean) << name << ": mean";
  EXPECT_EQ(run.std_error, want.std_error) << name << ": std_error";
  EXPECT_TRUE(rng_run == rng_ref) << name << ": the streams diverged";
  return run;
}

/// A unitary mixture whose identity branch comes last, as a phase times I:
/// X with weight 0.05, Z with 0.03, e^{i pi/3} I with 0.92.
ch::Channel identity_last() {
  la::Matrix x{{0.0, 1.0}, {1.0, 0.0}}, z{{1.0, 0.0}, {0.0, -1.0}};
  la::Matrix id = la::Matrix::identity(2);
  x *= std::sqrt(0.05);
  z *= std::sqrt(0.03);
  id *= std::polar(std::sqrt(0.92), std::numbers::pi / 3.0);
  return ch::Channel("identity_last", {x, z, id});
}

TEST(TrajReuseOracle, DepolarizingLowNoiseMostlyClean) {
  const auto r = expect_reuse_matches_per_sample(grid_with(ch::depolarizing(1e-3), 30),
                                                 "depolarizing(1e-3)");
  EXPECT_GT(r.std_error, 0.0);  // some samples drew an error
}

TEST(TrajReuseOracle, DepolarizingHighNoiseMostlyEvolving) {
  const auto r = expect_reuse_matches_per_sample(grid_with(ch::depolarizing(0.3), 12),
                                                 "depolarizing(0.3)");
  EXPECT_GT(r.std_error, 0.0);
}

TEST(TrajReuseOracle, TwoQubitDepolarizing) {
  const auto r = expect_reuse_matches_per_sample(grid_two_qubit(0.2), "two_qubit_depolarizing");
  EXPECT_GT(r.std_error, 0.0);
}

TEST(TrajReuseOracle, IdentityBranchNotFirst) {
  const auto r = expect_reuse_matches_per_sample(grid_with(identity_last(), 12), "identity_last");
  EXPECT_GT(r.std_error, 0.0);
}

TEST(TrajReuseOracle, MixturesWithABornSite) {
  ch::NoisyCircuit nc = grid_with(ch::depolarizing(0.05), 12);
  nc.add_noise(4, ch::amplitude_damping(0.3));
  const auto r = expect_reuse_matches_per_sample(nc, "mixtures + amplitude_damping");
  EXPECT_GT(r.std_error, 0.0);
}

TEST(TrajReuseOracle, NoiseFreeHasZeroError) {
  const auto r = expect_reuse_matches_per_sample(ch::NoisyCircuit(grid()), "noise-free");
  EXPECT_EQ(r.std_error, 0.0);
  EXPECT_GT(r.mean, 0.0);
}

TEST(TrajCrossEngine, DepolarizingLowNoise) {
  expect_engines_agree(grid_with(ch::depolarizing(1e-3), 30), "depolarizing(1e-3)");
}

TEST(TrajCrossEngine, DepolarizingHighNoise) {
  expect_engines_agree(grid_with(ch::depolarizing(0.3), 12), "depolarizing(0.3)");
}

TEST(TrajCrossEngine, BitFlip) {
  expect_engines_agree(grid_with(ch::bit_flip(0.05), 12), "bit_flip(0.05)");
}

TEST(TrajCrossEngine, PhaseFlip) {
  expect_engines_agree(grid_with(ch::phase_flip(0.05), 12), "phase_flip(0.05)");
}

TEST(TrajCrossEngine, TwoQubitDepolarizing) {
  expect_engines_agree(grid_two_qubit(0.2), "two_qubit_depolarizing(0.2)");
}

TEST(TrajCrossEngine, StateVectorEstimateMatchesExactDensity) {
  // Every mixture kind at once; the fixed-weight draw must stay unbiased.
  ch::NoisyCircuit nc = grid_with(ch::depolarizing(0.05), 6);
  nc.add_noise(2, ch::bit_flip(0.1));
  nc.add_noise(4, ch::phase_flip(0.1));
  nc.add_noise_2q(3, 4, ch::two_qubit_depolarizing(0.1));
  const std::uint64_t v = likely_output();
  const double exact = sim::exact_fidelity_mm(nc, 0, v);
  ASSERT_GT(exact, 8.0 / 512.0);  // eight times the uniform 2^-9
  sim::ParallelOptions popts;
  popts.threads = 4;
  const sim::TrajectoryResult r = sim::trajectories_sv(nc, 0, v, 4096, 2025, popts);
  EXPECT_GT(r.std_error, 0.0);
  EXPECT_LE(std::abs(r.mean - exact), 5.0 * r.std_error)
      << "estimate " << r.mean << " +- " << r.std_error << " vs exact " << exact;
}

}  // namespace
}  // namespace noisim
