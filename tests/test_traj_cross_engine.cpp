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
// The state-vector sampler evolves the noise-free trajectory once per call
// and reuses its value for every later sample whose branches are all
// identities. Its serial estimate must therefore equal, bit for bit, a
// Welford fold of sample_trajectory_sv calls (which compile per call and so
// always evolve) on the same stream, and leave that stream in the same
// state; and a threaded call whose every sample is clean must equal the
// serial estimate bit for bit.
//
// The sampler evolves a fused gate program (each run of gates between two
// noise sites multiplied out into <= 2-qubit operators). The fusion oracle
// holds it to the unfused Statevector::apply_gate, gate by gate, at 1e-12
// relative on seeded random circuits built so every fusion rule fires.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "bench_support/generators.hpp"
#include "channels/catalog.hpp"
#include "core/trajectories_tn.hpp"
#include "linalg/qr.hpp"
#include "sim/density.hpp"
#include "sim/parallel.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectories.hpp"
#include "tensor/kernels.hpp"

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
        core::trajectories_tn(nc, 0, v, kSamples, 77, popts, tn::ContractOptions{});
    const std::string where = name + ", threads " + std::to_string(threads);
    EXPECT_GT(sv.std_error, 1e-6 * sv.mean) << where;
    expect_close(sv.mean, tn.mean, where + " mean");
    expect_close(sv.std_error, tn.std_error, where + " std_error");
  }
  std::mt19937_64 rng_sv(78), rng_tn(78);
  const sim::TrajectoryResult sv = sim::trajectories_sv(nc, 0, v, kSamples, rng_sv);
  const sim::TrajectoryResult tn =
      core::trajectories_tn(nc, 0, v, kSamples, rng_tn, tn::ContractOptions{});
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

// --- fused gate program --------------------------------------------------------

/// How often each fusion case occurs in a generated circuit.
struct FusionCoverage {
  int one_after_two_high = 0;  // 1-qubit gate on the 2-qubit gate's first qubit
  int one_after_two_low = 0;   // ... on its second qubit
  int same_pair_same_order = 0;
  int same_pair_reversed = 0;
  int cx = 0, cz = 0, swap = 0, u2q = 0;
};

la::Matrix swap_matrix() {
  la::Matrix m(4, 4);
  m(0, 0) = m(1, 2) = m(2, 1) = m(3, 3) = cplx{1.0, 0.0};
  return m;
}

/// The k-th 2-qubit gate kind on (a, b): CX, CZ, SWAP, a Haar-random U2q,
/// then the catalog's parameterized kinds.
qc::Gate two_qubit_gate(int k, int a, int b, std::mt19937_64& rng, FusionCoverage& cov) {
  std::uniform_real_distribution<double> angle(0.1, 6.2);
  switch (k % 8) {
    case 0: ++cov.cx; return qc::cx(a, b);
    case 1: ++cov.cz; return qc::cz(a, b);
    case 2: ++cov.swap; return qc::u2q(a, b, swap_matrix());
    case 3: ++cov.u2q; return qc::u2q(a, b, la::random_unitary(4, rng));
    case 4: return qc::zz(a, b, angle(rng));
    case 5: return qc::fsim(a, b, angle(rng), angle(rng));
    case 6: return qc::cphase(a, b, angle(rng));
    default: return qc::cu(a, b, la::random_unitary(2, rng));
  }
}

qc::Gate one_qubit_gate(int q, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> angle(0.1, 6.2);
  switch (rng() % 6) {
    case 0: return qc::h(q);
    case 1: return qc::rx(q, angle(rng));
    case 2: return qc::ry(q, angle(rng));
    case 3: return qc::rz(q, angle(rng));
    case 4: return qc::t(q);
    default: return qc::u1q(q, la::random_unitary(2, rng));
  }
}

/// A seeded random n-qubit circuit of `blocks` blocks. A block is a 1-qubit
/// layer on random qubits, then a 2-qubit gate on a random ordered pair
/// followed by one of: a 1-qubit gate on its first or second qubit, a
/// 2-qubit gate on the same pair in the same or reversed order, or nothing.
/// With `noise`, a bit_flip(1.0) site (a forced X) follows each gate with
/// probability 1/5, splitting the gate runs the sampler fuses.
ch::NoisyCircuit fusion_circuit(int n, int blocks, std::uint64_t seed, bool noise,
                                FusionCoverage& cov) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> qubit(0, n - 1);
  ch::NoisyCircuit nc(n);
  const auto add = [&](const qc::Gate& g) {
    nc.add_gate(g);
    if (noise && rng() % 5 == 0) nc.add_noise(qubit(rng), ch::bit_flip(1.0));
  };
  int kind = 0;
  for (int b = 0; b < blocks; ++b) {
    for (int q = 0; q < n; ++q)
      if (rng() % 2 == 0) add(one_qubit_gate(q, rng));
    const int a = qubit(rng);
    int c = qubit(rng);
    while (c == a) c = qubit(rng);
    add(two_qubit_gate(kind++, a, c, rng, cov));
    switch (rng() % 5) {
      case 0: ++cov.one_after_two_high; add(one_qubit_gate(a, rng)); break;
      case 1: ++cov.one_after_two_low; add(one_qubit_gate(c, rng)); break;
      case 2: ++cov.same_pair_same_order; add(two_qubit_gate(kind++, a, c, rng, cov)); break;
      case 3: ++cov.same_pair_reversed; add(two_qubit_gate(kind++, c, a, rng, cov)); break;
      default: break;
    }
  }
  return nc;
}

/// The unfused oracle: Statevector::apply_circuit over the circuit's gates,
/// with every (forced bit_flip(1.0)) noise site replaced by an X gate.
sim::Statevector unfused_state(const ch::NoisyCircuit& nc, std::uint64_t psi) {
  qc::Circuit c(nc.num_qubits());
  for (const ch::Op& op : nc.ops()) {
    if (const qc::Gate* g = std::get_if<qc::Gate>(&op))
      c.add(*g);
    else
      c.add(qc::x(std::get<ch::NoiseOp>(op).qubit));
  }
  sim::Statevector sv = sim::Statevector::basis(nc.num_qubits(), psi);
  sv.apply_circuit(c);
  return sv;
}

/// One sample of the fused program against the unfused oracle at every
/// output at least as likely as the uniform 2^-n, on every kernel tier.
void expect_fused_matches_unfused(bool noise) {
  FusionCoverage cov;
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const int n = 4 + static_cast<int>(seed % 3);
    const ch::NoisyCircuit nc = fusion_circuit(n, 24, 1000 + seed, noise, cov);
    const std::uint64_t psi = (seed * 0x9e3779b97f4a7c15ULL) >> (64 - n);
    for (std::size_t t = 0; t < tsr::kNumKernelTiers; ++t) {
      const auto tier = static_cast<tsr::KernelTier>(t);
      if (!tsr::kernel_table(tier)) continue;
      const tsr::KernelTier prev = tsr::set_kernel_tier(tier);
      const sim::Statevector ref = unfused_state(nc, psi);
      for (std::uint64_t v = 0; v < ref.size(); ++v) {
        const double want = std::norm(ref.amplitude(v));
        if (want * static_cast<double>(ref.size()) < 1.0) continue;
        std::mt19937_64 rng(seed);
        const sim::TrajectoryResult got = sim::trajectories_sv(nc, psi, v, 1, rng);
        EXPECT_LE(std::abs(got.mean - want), kRtol * want)
            << "seed " << seed << ", v " << v << " on " << tsr::kernel_tier_name(tier)
            << ": fused " << got.mean << " vs unfused " << want;
        ++checked;
      }
      tsr::set_kernel_tier(prev);
    }
  }
  EXPECT_GT(checked, 0);
  // Every fusion case occurred in some circuit.
  EXPECT_GT(cov.one_after_two_high, 0);
  EXPECT_GT(cov.one_after_two_low, 0);
  EXPECT_GT(cov.same_pair_same_order, 0);
  EXPECT_GT(cov.same_pair_reversed, 0);
  EXPECT_GT(cov.cx, 0);
  EXPECT_GT(cov.cz, 0);
  EXPECT_GT(cov.swap, 0);
  EXPECT_GT(cov.u2q, 0);
}

TEST(TrajFusionOracle, NoiseFreeMatchesUnfusedApplyCircuit) {
  expect_fused_matches_unfused(false);
}

TEST(TrajFusionOracle, ForcedBitFlipsMatchUnfusedGatesAndXs) {
  expect_fused_matches_unfused(true);
}

TEST(TrajFusionOracle, ThreadedAllCleanEqualsSerialBitwise) {
  // Two identity branches (I and a phase times I): every sample draws a
  // branch per site but is clean, so every worker waits for or returns the
  // call's one noise-free evolution.
  la::Matrix id = la::Matrix::identity(2), phased = la::Matrix::identity(2);
  id *= std::sqrt(0.5);
  phased *= std::polar(std::sqrt(0.5), std::numbers::pi / 3.0);
  const ch::Channel two_identities("two_identities", {id, phased});
  FusionCoverage cov;
  ch::NoisyCircuit nc(6);
  const ch::NoisyCircuit gates = fusion_circuit(6, 30, 11, false, cov);
  int placed = 0;
  for (const ch::Op& op : gates.ops()) {
    nc.add_gate(std::get<qc::Gate>(op));
    if (++placed % 7 == 0) nc.add_noise(placed % 6, two_identities);
  }
  sim::Statevector ref(6);
  ref.apply_circuit(nc.gates_only());
  std::uint64_t v = 0;
  for (std::uint64_t b = 1; b < ref.size(); ++b)
    if (std::norm(ref.amplitude(b)) > std::norm(ref.amplitude(v))) v = b;

  std::mt19937_64 rng(5);
  const sim::TrajectoryResult serial = sim::trajectories_sv(nc, 0, v, 256, rng);
  EXPECT_EQ(serial.std_error, 0.0);
  EXPECT_LE(std::abs(serial.mean - std::norm(ref.amplitude(v))),
            kRtol * std::norm(ref.amplitude(v)));
  for (const std::size_t threads : {2ul, 4ul}) {
    sim::ParallelOptions popts;
    popts.threads = threads;
    popts.chunk_size = 4;
    const sim::TrajectoryResult r = sim::trajectories_sv(nc, 0, v, 256, 5, popts);
    EXPECT_EQ(r.samples, 256u);
    EXPECT_EQ(r.mean, serial.mean) << threads << " threads";
    EXPECT_EQ(r.std_error, serial.std_error) << threads << " threads";
  }
}

}  // namespace
}  // namespace noisim
