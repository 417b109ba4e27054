// Property tests for the sharded XEB sweep engine: seeded random small
// circuits x noise models, asserting BITWISE equality of core::xeb_sweep
// against the per-bitstring approximate_fidelity reference across thread
// counts {1, 2, 7}, shard sizes {1, 3, K}, plan-cache cold vs warm vs
// disabled, and levels 0-2 -- plus the sharded trajectory sweep against its
// per-bitstring reference and the degenerate (K = 0) inputs of every
// output-batched API -- and absolute pins of the TN trajectory engine's
// estimates and of Algorithm-1 values.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <sstream>

#include "bench_support/generators.hpp"
#include "channels/catalog.hpp"
#include "core/approx.hpp"
#include "core/plan_cache.hpp"
#include "core/trajectories_tn.hpp"
#include "sim/parallel.hpp"
#include "tensor/kernels.hpp"

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

/// Seeded random circuit on n qubits: a few layers' worth of 1- and 2-qubit
/// gates drawn from a mixed gate set (Cliffords, rotations, entanglers).
qc::Circuit random_circuit(int n, std::mt19937_64& rng) {
  qc::Circuit c(n);
  std::uniform_int_distribution<int> qubit(0, n - 1);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  const std::size_t count = 3 * static_cast<std::size_t>(n) + rng() % (3 * n);
  for (std::size_t i = 0; i < count; ++i) {
    switch (rng() % 8) {
      case 0: c.add(qc::h(qubit(rng))); break;
      case 1: c.add(qc::t(qubit(rng))); break;
      case 2: c.add(qc::rx(qubit(rng), angle(rng))); break;
      case 3: c.add(qc::rz(qubit(rng), angle(rng))); break;
      case 4: c.add(qc::sqrt_y(qubit(rng))); break;
      default: {
        if (n < 2) {
          c.add(qc::s(qubit(rng)));
          break;
        }
        int a = qubit(rng), b = qubit(rng);
        while (b == a) b = qubit(rng);
        c.add(rng() % 2 ? qc::cz(a, b) : qc::cx(a, b));
        break;
      }
    }
  }
  return c;
}

std::vector<std::uint64_t> random_bitstrings(int n, std::size_t count, std::mt19937_64& rng) {
  const std::uint64_t mask = n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  std::vector<std::uint64_t> out(count);
  for (auto& v : out) v = rng() & mask;
  return out;
}

void expect_sweep_matches_refs(const ApproxBatchResult& sweep,
                               const std::vector<ApproxResult>& refs, const char* what) {
  ASSERT_EQ(sweep.raw.size(), refs.size()) << what;
  for (std::size_t o = 0; o < refs.size(); ++o) {
    EXPECT_EQ(refs[o].raw.real(), sweep.raw[o].real()) << what << " output " << o;
    EXPECT_EQ(refs[o].raw.imag(), sweep.raw[o].imag()) << what << " output " << o;
    ASSERT_EQ(refs[o].level_values.size(), sweep.level_values[o].size()) << what;
    for (std::size_t u = 0; u < refs[o].level_values.size(); ++u)
      EXPECT_EQ(refs[o].level_values[u], sweep.level_values[o][u])
          << what << " output " << o << " level " << u;
    ASSERT_EQ(refs[o].term_sums.size(), sweep.term_sums[o].size()) << what;
    for (std::size_t u = 0; u < refs[o].term_sums.size(); ++u)
      EXPECT_EQ(refs[o].term_sums[u], sweep.term_sums[o][u])
          << what << " output " << o << " level " << u;
  }
}

// --- the randomized property pass ---------------------------------------------

TEST(SweepProperties, RandomCircuitsBitIdenticalAcrossThreadsShardsCacheLevels) {
  constexpr std::size_t kCircuits = 50;
  for (std::size_t i = 0; i < kCircuits; ++i) {
    SCOPED_TRACE("circuit " + std::to_string(i));
    std::mt19937_64 rng(9000 + i);
    const int n = 2 + static_cast<int>(i % 5);  // 2..6 qubits
    const qc::Circuit circuit = random_circuit(n, rng);
    const std::size_t noises = 1 + i % 3;
    const bench::NoiseModel model =
        i % 2 ? bench::depolarizing_noise(0.01 + 0.01 * static_cast<double>(i % 4))
              : bench::realistic_noise();
    const ch::NoisyCircuit nc = bench::insert_noises(circuit, noises, model, 40 + i);

    ApproxOptions base;
    base.level = i % 3;
    base.eval = i % 4 == 3 ? sv_eval() : tn_eval();
    const std::size_t K = 1 + i % 5;
    std::vector<std::uint64_t> vb = random_bitstrings(n, K, rng);
    if (i % 4 == 0 && K >= 2) vb.back() = vb.front();  // duplicate in-batch

    // Per-bitstring reference: the bit-identity anchor for every variant.
    std::vector<ApproxResult> refs;
    refs.reserve(K);
    for (const std::uint64_t v : vb) refs.push_back(approximate_fidelity(nc, 0, v, base));

    PlanCache cache;  // cold on the first variant, warm afterwards
    for (const std::size_t threads : {1ul, 2ul, 7ul}) {
      for (const std::size_t shard : {std::size_t{1}, std::size_t{3}, K}) {
        for (const bool cached : {false, true}) {
          SweepOptions sopts;
          sopts.approx = base;
          sopts.approx.threads = threads;
          sopts.approx.plan_cache = cached ? &cache : nullptr;
          sopts.shard_outputs = shard;
          const ApproxBatchResult sweep = xeb_sweep(nc, 0, vb, sopts);
          const std::string what = "threads " + std::to_string(threads) + " shard " +
                                   std::to_string(shard) + (cached ? " cached" : "");
          expect_sweep_matches_refs(sweep, refs, what.c_str());
        }
      }
    }
  }
}

TEST(SweepProperties, LargeBitstringSetWithRaggedShards) {
  // K = 40 across shard 7 (non-dividing, multi-chunk stash/fold) and odd
  // thread counts; compared against approximate_fidelity_outputs (itself
  // anchored to the per-bitstring reference by the suite above and the
  // batch-output tests).
  const ch::NoisyCircuit nc = bench::insert_noises(
      bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 501);
  std::mt19937_64 rng(77);
  const std::vector<std::uint64_t> vb = random_bitstrings(16, 40, rng);
  ApproxOptions base;
  base.level = 1;
  base.eval = tn_eval();
  const ApproxBatchResult ref = approximate_fidelity_outputs(nc, 0, vb, base);
  PlanCache cache;
  for (const std::size_t threads : {1ul, 3ul, 7ul}) {
    for (const std::size_t shard : {7ul, 13ul, 40ul}) {
      SweepOptions sopts;
      sopts.approx = base;
      sopts.approx.threads = threads;
      sopts.approx.plan_cache = &cache;
      sopts.shard_outputs = shard;
      const ApproxBatchResult sweep = xeb_sweep(nc, 0, vb, sopts);
      for (std::size_t o = 0; o < vb.size(); ++o) {
        EXPECT_EQ(ref.raw[o].real(), sweep.raw[o].real())
            << "threads " << threads << " shard " << shard << " output " << o;
        EXPECT_EQ(ref.raw[o].imag(), sweep.raw[o].imag())
            << "threads " << threads << " shard " << shard << " output " << o;
      }
    }
  }
}

TEST(SweepProperties, ContractionsCountEveryTermOnceAcrossShards) {
  const ch::NoisyCircuit nc = bench::insert_noises(
      bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 503);
  std::mt19937_64 rng(78);
  const std::vector<std::uint64_t> vb = random_bitstrings(16, 9, rng);
  SweepOptions sopts;
  sopts.approx.level = 1;
  sopts.approx.eval = tn_eval();
  sopts.approx.threads = 4;
  sopts.shard_outputs = 2;  // 5 chunks: every term folds across 5 items
  const ApproxBatchResult r = xeb_sweep(nc, 0, vb, sopts);
  EXPECT_EQ(r.contractions, (1u + 3u * nc.noise_count()) * vb.size());
}

TEST(SweepProperties, PerTermReplayStaysBitIdenticalToTheBatchedSweep) {
  // A one-output call with batch_terms = 1 has capacity 1, so its u >= 2
  // terms replay the per-term plan; the sharded sweep batches them across
  // terms and outputs. Every value matches bit for bit at any shard size.
  const ch::NoisyCircuit nc = bench::insert_noises(
      bench::qaoa(16, 1, 77), 3, bench::depolarizing_noise(0.01), 505);
  std::mt19937_64 rng(79);
  const std::vector<std::uint64_t> vb = random_bitstrings(16, 11, rng);
  ApproxOptions base;
  base.level = 2;
  base.eval = tn_eval();
  ApproxOptions per_term = base;
  per_term.batch_terms = 1;
  std::vector<ApproxResult> refs;
  for (const std::uint64_t v : vb) refs.push_back(approximate_fidelity(nc, 0, v, per_term));

  for (const std::size_t shard : {3ul, 11ul}) {
    SweepOptions sopts;
    sopts.approx = base;
    sopts.approx.threads = 2;
    sopts.shard_outputs = shard;
    expect_sweep_matches_refs(xeb_sweep(nc, 0, vb, sopts), refs,
                              ("shard " + std::to_string(shard)).c_str());
  }
}

// --- sharded trajectory sweep -------------------------------------------------

TEST(SweepProperties, TrajectorySweepBitIdenticalAcrossShardsAndThreads) {
  // A 3x3 grid keeps the per-sample contractions small enough to afford
  // the full shard x thread cross under the sanitizer jobs.
  const ch::NoisyCircuit nc = bench::insert_noises(
      bench::qaoa(9, 1, 5), 3, bench::depolarizing_noise(0.02), 31);
  std::mt19937_64 rng(80);
  std::vector<std::uint64_t> vb = random_bitstrings(9, 5, rng);
  vb.push_back(vb[2]);  // duplicate
  vb.push_back(0);      // all-zeros
  sim::ParallelOptions serial;
  serial.threads = 1;
  sim::ParallelOptions quad;
  quad.threads = 4;
  const std::size_t K = vb.size();

  std::vector<sim::TrajectoryResult> refs;
  for (const std::uint64_t v : vb) refs.push_back(trajectories_tn(nc, 0, v, 48, 7, serial));
  for (const std::size_t shard : {std::size_t{1}, std::size_t{3}, K}) {
    for (const sim::ParallelOptions& popts : {serial, quad}) {
      const auto sweep = trajectories_tn_sweep(nc, 0, vb, 48, 7, popts, {}, shard);
      ASSERT_EQ(sweep.size(), K);
      for (std::size_t o = 0; o < K; ++o) {
        EXPECT_EQ(refs[o].mean, sweep[o].mean)
            << "shard " << shard << " threads " << popts.threads << " output " << o;
        EXPECT_EQ(refs[o].std_error, sweep[o].std_error)
            << "shard " << shard << " threads " << popts.threads << " output " << o;
      }
    }
  }
}

// --- TN trajectory golden -----------------------------------------------------

/// 3x3 QAOA grid with depolarizing(0.1) after every sixth gate and
/// two_qubit_depolarizing(0.2) after every fourth 2-qubit gate, so both
/// mixture sizes (4 and 16 unitaries) are sampled.
ch::NoisyCircuit tn_golden_circuit() {
  const qc::Circuit c = bench::qaoa_grid(3, 3, 1, 5);
  ch::NoisyCircuit nc(c.num_qubits());
  std::size_t gates = 0, twoq = 0;
  for (const qc::Gate& g : c.gates()) {
    nc.add_gate(g);
    if (++gates % 6 == 0) nc.add_noise(g.qubits[0], ch::depolarizing(0.1));
    if (g.num_qubits() == 2 && ++twoq % 4 == 0)
      nc.add_noise_2q(g.qubits[0], g.qubits[1], ch::two_qubit_depolarizing(0.2));
  }
  return nc;
}

std::string hex(double x) {
  std::ostringstream os;
  os << std::hexfloat << x;
  return os.str();
}

void expect_pinned(const sim::TrajectoryResult& r, double mean, double std_error,
                   const std::string& where) {
  EXPECT_EQ(r.mean, mean) << where << ": mean " << hex(r.mean);
  EXPECT_EQ(r.std_error, std_error) << where << ": std_error " << hex(r.std_error);
}

// Absolute pin of the TN trajectory estimates (mean/std_error as %a
// literals): the relative checks elsewhere (sweep vs per-bitstring, threads
// vs serial) cannot see a change in RNG consumption or fold order that
// every entry point shares. Every case runs the plan-replay path; the
// serial pins are also checked through one-sample calls, which have
// capacity 1 and replay the per-term plan instead of a batched traversal:
// they evaluate the same sampled amplitudes through the same plan, so they
// share pins.
TEST(TnTrajectoryGolden, EstimatesMatchPinnedBits) {
  const ch::NoisyCircuit nc = tn_golden_circuit();
  const std::vector<std::uint64_t> vb{0, 0x0a5, 0x1ff};
  constexpr std::size_t kSamples = 70;
  constexpr std::uint64_t kSeed = 2024;

  struct Pins {
    double serial_mean, serial_std_error;
    double mean[3], std_error[3];  // per output of vb; vb[0] is the threaded case
  };
  // Recorded before the TN samplers moved onto one replay path; the serial
  // std_error was re-recorded (one ulp) when the serial overload moved to
  // the runner's Welford fold.
  const Pins pins{0x1.76c26108e8ac7p-8,
                  0x1.0cd1175d98cb5p-10,
                  {0x1.c5a8f40493511p-9, 0x1.9d113c51e10aap-9, 0x1.7cc6049d1554fp-11},
                  {0x1.a908a9131e5f2p-11, 0x1.d5d1f52a982abp-11, 0x1.fe50181881617p-13}};

  for (std::size_t t = 0; t < tsr::kNumKernelTiers; ++t) {
    const auto tier = static_cast<tsr::KernelTier>(t);
    if (!tsr::kernel_table(tier)) continue;
    const tsr::KernelTier prev = tsr::set_kernel_tier(tier);
    const std::string where = std::string("tn on ") + tsr::kernel_tier_name(tier);
    std::mt19937_64 rng(kSeed);
    expect_pinned(trajectories_tn(nc, 0, vb[0], kSamples, rng), pins.serial_mean,
                  pins.serial_std_error, where + ", serial");
    std::mt19937_64 per_sample_rng(kSeed);
    sim::Welford fold;
    for (std::size_t s = 0; s < kSamples; ++s)
      fold.add(trajectories_tn(nc, 0, vb[0], 1, per_sample_rng).mean);
    expect_pinned(fold.result(), pins.serial_mean, pins.serial_std_error,
                  where + ", serial per-sample replay");
    for (const std::size_t threads : {1ul, 4ul}) {
      sim::ParallelOptions popts;
      popts.threads = threads;
      expect_pinned(trajectories_tn(nc, 0, vb[0], kSamples, kSeed, popts), pins.mean[0],
                    pins.std_error[0], where + ", threads " + std::to_string(threads));
      for (const std::size_t shard : {1ul, 3ul}) {
        const auto sweep = trajectories_tn_sweep(nc, 0, vb, kSamples, kSeed, popts, {}, shard);
        ASSERT_EQ(sweep.size(), vb.size());
        for (std::size_t o = 0; o < vb.size(); ++o)
          expect_pinned(sweep[o], pins.mean[o], pins.std_error[o],
                        where + ", sweep threads " + std::to_string(threads) + " shard " +
                            std::to_string(shard) + " output " + std::to_string(o));
      }
    }
    tsr::set_kernel_tier(prev);
  }
}

// --- Algorithm-1 golden pins ------------------------------------------------------

/// qaoa_16 + 3 realistic (thermal-relaxation) noises: the Fig. 4 shape at
/// test size, on the plan-replay path.
ch::NoisyCircuit approx_golden_tn() {
  return bench::insert_noises(bench::qaoa(16, 1, 2), 3, bench::realistic_noise(), 11);
}

/// hf_8 with amplitude damping between two 2-qubit depolarizing sites. The
/// circuit conserves particle number, so every term carrying a subdominant
/// damping factor vanishes at the 4-particle outputs; the second
/// depolarizing site keeps T_2 nonzero.
ch::NoisyCircuit approx_golden_sv() {
  const qc::Circuit c = bench::hf_vqe(8, 3);
  ch::NoisyCircuit nc(c.num_qubits());
  std::size_t twoq = 0;
  for (const qc::Gate& g : c.gates()) {
    nc.add_gate(g);
    if (g.num_qubits() != 2) continue;
    ++twoq;
    if (twoq == 6 || twoq == 16)
      nc.add_noise_2q(g.qubits[0], g.qubits[1], ch::two_qubit_depolarizing(0.05));
    if (twoq == 11) nc.add_noise(g.qubits[1], ch::amplitude_damping(0.1));
  }
  return nc;
}

/// raw (real, imag) of A(0), A(1), A(2) at one output.
using LevelPins = std::array<std::array<double, 2>, 3>;

void expect_level_pins(const cplx& raw, const std::vector<double>& level_values,
                       std::size_t level, const LevelPins& pins, const std::string& where) {
  EXPECT_EQ(raw.real(), pins[level][0]) << where << ": raw.real " << hex(raw.real());
  EXPECT_EQ(raw.imag(), pins[level][1]) << where << ": raw.imag " << hex(raw.imag());
  // level_values[u] folds the same term sums in the same order as the
  // level-u call's raw, so it carries that call's real-part pin.
  ASSERT_EQ(level_values.size(), level + 1) << where;
  for (std::size_t u = 0; u <= level; ++u)
    EXPECT_EQ(level_values[u], pins[u][0])
        << where << ": level_values[" << u << "] " << hex(level_values[u]);
}

// Absolute pin of Algorithm-1 values (%a literals) across commits. The
// relative suites compare the sweep against a reference that shares its
// evaluator, so a change both see alike -- how the layers are planned,
// conjugated or folded -- passes them; these pins do not move. Outputs are
// the noise-free circuit's most likely bitstrings, so every value is well
// away from zero. The TN level-1 and level-2 pins were re-recorded once
// when level-1 terms moved to environment passes (imaginary parts moved by
// <= 5.5e-19 of |raw|; every real part and every level-0 pin held). Every
// pin was re-recorded once when each term became |a|^2 of one layer
// instead of top * conj(bottom) with the bottom factors from the SVD's v:
// real parts moved by <= 6 ulp (1.2e-15 relative), and every imaginary part
// became exactly 0.
TEST(ApproxGolden, ValuesMatchPinnedBits) {
  const struct {
    const char* name;
    ch::NoisyCircuit nc;
    EvalOptions eval;
    std::vector<std::uint64_t> vb;
    std::vector<LevelPins> pins;  // per output
  } cases[] = {
      {"tn qaoa_16",
       approx_golden_tn(),
       tn_eval(),
       {0x5e7, 0x927, 0x8de7, 0x9e7, 0x92b},
       {{{{0x1.f92366ab0ff33p-8, 0x0p+0},
          {0x1.fa9c903abfff4p-8, 0x0p+0},
          {0x1.fa9efc84482b8p-8, 0x0p+0}}},
        {{{0x1.e77f62cb4f99cp-8, 0x0p+0},
          {0x1.e9357764ddf97p-8, 0x0p+0},
          {0x1.e938d8a2c2abep-8, 0x0p+0}}},
        {{{0x1.c854646f57171p-8, 0x0p+0},
          {0x1.c9b45157168d6p-8, 0x0p+0},
          {0x1.c9b684dcc2422p-8, 0x0p+0}}},
        {{{0x1.c36e7db5b3a78p-8, 0x0p+0},
          {0x1.c51c52871c934p-8, 0x0p+0},
          {0x1.c51f5b7801f27p-8, 0x0p+0}}},
        {{{0x1.98b451d65906p-8, 0x0p+0},
          {0x1.9a1a545146cd5p-8, 0x0p+0},
          {0x1.9a1d09cea3e3bp-8, 0x0p+0}}}}},
      {"sv hf_8",
       approx_golden_sv(),
       sv_eval(),
       {0xc6, 0xa6, 0xb4, 0xd4, 0xc5},
       {{{{0x1.a40b0f033d421p-4, 0x0p+0},
          {0x1.ae1610da60de5p-4, 0x0p+0},
          {0x1.ae2f34096a891p-4, 0x0p+0}}},
        {{{0x1.8d589208c5e64p-4, 0x0p+0},
          {0x1.95d0ae14a1791p-4, 0x0p+0},
          {0x1.95e68f4e1e181p-4, 0x0p+0}}},
        {{{0x1.5c8e55c84b0f5p-4, 0x0p+0},
          {0x1.65156bd1c959ep-4, 0x0p+0},
          {0x1.652c46f5546a3p-4, 0x0p+0}}},
        {{{0x1.2e6146bab05d5p-4, 0x0p+0},
          {0x1.37fadb56fe2b9p-4, 0x0p+0},
          {0x1.38130f9c6dba1p-4, 0x0p+0}}},
        {{{0x1.26dc3e19eaa13p-4, 0x0p+0},
          {0x1.2ef39a3c72121p-4, 0x0p+0},
          {0x1.2f0ae2029d892p-4, 0x0p+0}}}}},
  };

  for (std::size_t t = 0; t < tsr::kNumKernelTiers; ++t) {
    const auto tier = static_cast<tsr::KernelTier>(t);
    if (!tsr::kernel_table(tier)) continue;
    const tsr::KernelTier prev = tsr::set_kernel_tier(tier);
    for (const auto& gc : cases) {
      for (const std::size_t threads : {1ul, 4ul}) {
        for (std::size_t level = 0; level <= 2; ++level) {
          const std::string where = std::string(gc.name) + " on " +
                                    tsr::kernel_tier_name(tier) + ", threads " +
                                    std::to_string(threads) + ", level " + std::to_string(level);
          ApproxOptions opts;
          opts.level = level;
          opts.eval = gc.eval;
          opts.threads = threads;
          for (std::size_t o = 0; o < gc.vb.size(); ++o) {
            const ApproxResult r = approximate_fidelity(gc.nc, 0, gc.vb[o], opts);
            expect_level_pins(r.raw, r.level_values, level, gc.pins[o],
                              where + ", output " + std::to_string(o));
          }
          for (const std::size_t shard : {1ul, 3ul}) {
            SweepOptions sopts;
            sopts.approx = opts;
            sopts.shard_outputs = shard;
            const ApproxBatchResult r = xeb_sweep(gc.nc, 0, gc.vb, sopts);
            ASSERT_EQ(r.raw.size(), gc.vb.size()) << where;
            for (std::size_t o = 0; o < gc.vb.size(); ++o)
              expect_level_pins(r.raw[o], r.level_values[o], level, gc.pins[o],
                                where + ", xeb shard " + std::to_string(shard) + " output " +
                                    std::to_string(o));
          }
        }
      }
    }
    tsr::set_kernel_tier(prev);
  }
}

// --- degenerate inputs across every output-batched API ------------------------

TEST(SweepProperties, EmptyBitstringSpansAreWellDefinedEverywhere) {
  const ch::NoisyCircuit nc = bench::insert_noises(
      bench::qaoa(16, 1, 7), 2, bench::depolarizing_noise(0.01), 11);
  sim::ParallelOptions popts;
  for (const EvalOptions& eval : {tn_eval(), sv_eval()}) {
    // batch_amplitudes: empty result, no compiled capacity-0 plan.
    EXPECT_TRUE(
        batch_amplitudes(16, nc.gates_only().gates(), 0, {}, eval).empty());

    // approximate_fidelity_outputs / xeb_sweep: bounds only.
    ApproxOptions aopts;
    aopts.level = 1;
    aopts.eval = eval;
    const ApproxBatchResult outputs = approximate_fidelity_outputs(nc, 0, {}, aopts);
    EXPECT_TRUE(outputs.values.empty());
    EXPECT_TRUE(outputs.raw.empty());
    EXPECT_EQ(outputs.contractions, 0u);
    EXPECT_GT(outputs.tight_error_bound, 0.0);

    SweepOptions sopts;
    sopts.approx = aopts;
    sopts.shard_outputs = 4;
    const ApproxBatchResult sweep = xeb_sweep(nc, 0, {}, sopts);
    EXPECT_TRUE(sweep.values.empty());
    EXPECT_EQ(sweep.contractions, 0u);
    EXPECT_GT(sweep.tight_error_bound, 0.0);
  }

  // Trajectory sweeps: no outputs -> no estimates; zero samples -> K empty
  // estimates (and no capacity-0 plan).
  EXPECT_TRUE(trajectories_tn_sweep(nc, 0, {}, 10, 7, popts).empty());
  const std::vector<std::uint64_t> vb{0, 1, 2};
  const auto zero = trajectories_tn_sweep(nc, 0, vb, 0, 7, popts);
  ASSERT_EQ(zero.size(), vb.size());
  for (const sim::TrajectoryResult& r : zero) {
    EXPECT_EQ(r.samples, 0u);
    EXPECT_EQ(r.mean, 0.0);
    EXPECT_EQ(r.std_error, 0.0);
  }
}

}  // namespace
}  // namespace noisim::core
