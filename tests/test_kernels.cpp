// Kernel-tier suite (ctest -L kernels): every tier, scalar included, must
// write the bits of the naive fill-then-accumulate loop kept below -- per
// matmul kernel family (every entry of the tier's `matmul` array, one per
// rung of the tsr::matmul_shape ladder, and the gathered variant), into
// NaN-filled outputs, across a shape grid exercising odd/non-dividing
// sizes, signed-zero and all-zero rows and gathered operands -- and SIMD
// tiers must be BITWISE identical to the scalar reference end to end
// through approximate_fidelity / xeb_sweep with each tier forced at
// multiple thread counts. Also covers the dispatch machinery (cpuid
// detection, NOISIM_KERNELS parsing and fallback, per-tier stats
// counters), the ladder's edges, that every plan executor's plain products
// go through the table's `matmul` entry of the step's compiled rung, that
// compiled plans replay on the tier active at replay, and the
// 64-byte-alignment guarantee of the executor's arenas. The state-vector
// families are checked against a test-side copy of the engine's original
// branchy loops, and the trajectory estimates they feed must carry the
// same bits on every tier. The compiled permutation walks
// (tsr::PermuteWalk) are checked against the per-element odometer they
// replaced, here so the ASan job runs them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/generators.hpp"
#include "channels/catalog.hpp"
#include "core/approx.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectories.hpp"
#include "tensor/aligned.hpp"
#include "tensor/contract.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"
#include "tn/plan.hpp"

namespace noisim::tsr {
namespace {

/// Every tier this host+build can actually run (scalar always first).
std::vector<KernelTier> available_tiers() {
  std::vector<KernelTier> tiers;
  for (std::size_t t = 0; t < kNumKernelTiers; ++t)
    if (kernel_table(static_cast<KernelTier>(t))) tiers.push_back(static_cast<KernelTier>(t));
  return tiers;
}

/// Restore the active tier on scope exit so tests compose in any order.
struct TierGuard {
  KernelTier prev;
  explicit TierGuard(KernelTier tier) : prev(set_kernel_tier(tier)) {}
  ~TierGuard() { set_kernel_tier(prev); }
};

/// Random interleaved complex buffer; when `with_zeros`, ~25% of elements
/// are exact zeros of every sign pattern ((+-0, +-0) all trip the kernels'
/// zero-skip), so the skip and the sign of zero sums are exercised.
aligned_vector<cplx> random_buf(std::size_t elems, std::mt19937_64& rng, bool with_zeros) {
  std::normal_distribution<double> gauss;
  aligned_vector<cplx> buf(elems);
  for (auto& v : buf) {
    if (with_zeros && rng() % 4 == 0)
      v = cplx{rng() % 2 ? -0.0 : 0.0, rng() % 2 ? -0.0 : 0.0};
    else
      v = cplx{gauss(rng), gauss(rng)};
  }
  return buf;
}

/// An m x k left operand from random_buf whose middle row is all (signed)
/// zeros: the kernels skip that row's every product, so its outputs must
/// come out +0.0 whatever the buffer held.
aligned_vector<cplx> lhs_buf(std::size_t m, std::size_t k, std::mt19937_64& rng) {
  aligned_vector<cplx> a = random_buf(m * k, rng, true);
  for (std::size_t kk = 0; kk < k; ++kk)
    a[(m / 2) * k + kk] = cplx{kk % 2 ? -0.0 : 0.0, kk % 3 ? 0.0 : -0.0};
  return a;
}

/// The value every matmul kernel must write, bit for bit: each output
/// element starts at +0.0 and adds a(i, kk) * b(kk, j) in ascending kk,
/// skipping exact-zero a(i, kk) -- the fill-then-accumulate loop that
/// defines the kernel family.
aligned_vector<cplx> naive_matmul(const cplx* a, const cplx* b, std::size_t m, std::size_t k,
                                  std::size_t n) {
  aligned_vector<cplx> out(m * n, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = 0; kk < k; ++kk) {
      const cplx x = a[i * k + kk];
      if (x.real() == 0.0 && x.imag() == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const cplx y = b[kk * n + j];
        const cplx o = out[i * n + j];
        out[i * n + j] = cplx{o.real() + (x.real() * y.real() - x.imag() * y.imag()),
                              o.imag() + (x.real() * y.imag() + x.imag() * y.real())};
      }
    }
  return out;
}

/// Output buffers start as NaN: a kernel that leaves any element unwritten
/// (or reads it back before writing) fails the bitwise check.
aligned_vector<cplx> nan_buf(std::size_t elems) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return aligned_vector<cplx>(elems, cplx{nan, nan});
}

/// Identical bit patterns, zero signs included.
bool same_bits(const cplx& a, const cplx& b) {
  return std::bit_cast<std::uint64_t>(a.real()) == std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) == std::bit_cast<std::uint64_t>(b.imag());
}

void expect_same_bits(const aligned_vector<cplx>& ref, const aligned_vector<cplx>& got,
                      const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_TRUE(same_bits(ref[i], got[i]))
        << what << " elem " << i << ": " << ref[i] << " vs " << got[i];
}

struct Shape {
  std::size_t m, k, n;
};

/// Odd/non-dividing sizes around every vector width and the 64-wide cache
/// blocks, plus at least one shape on every rung of the matmul_shape ladder
/// (k in {2,4,8,16} x n in {2,4}, and the m*n <= 64 small-k path), k past
/// the register kernels' 256-wide k blocks, and the environment-pass
/// shapes of the xeb workload (long rows, long k, tiny panels).
const Shape kShapes[] = {
    {1, 1, 1},   {1, 2, 2},     {3, 2, 4},   {2, 4, 1},    {5, 2, 4},  {7, 4, 2},
    {9, 16, 4},  {4, 8, 2},     {6, 16, 2},  {8, 2, 8},    {5, 7, 3},  {3, 5, 5},
    {13, 3, 7},  {1, 6, 31},    {2, 9, 33},  {3, 130, 5},  {2, 3, 130}, {65, 4, 2},
    {33, 2, 3},  {4, 66, 66},   {3, 600, 5}, {4, 4, 4096}, {8, 4, 2048}, {16, 256, 4},
    {8, 2, 2},   {2, 2, 8},     {3, 4, 4},   {5, 8, 4},
};

std::string shape_name(const char* family, const KernelTable& kt, const Shape& s) {
  return std::string(family) + " " + kt.name + " " + std::to_string(s.m) + "x" +
         std::to_string(s.k) + "x" + std::to_string(s.n);
}

TEST(Kernels, ScalarTableAlwaysAvailableAndDetectionOrdered) {
  ASSERT_NE(kernel_table(KernelTier::Scalar), nullptr);
  const std::vector<KernelTier> tiers = available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), KernelTier::Scalar);
  // The detected tier must itself be runnable, and every tier at or below
  // a runnable tier's resolve must be runnable.
  EXPECT_NE(kernel_table(detected_kernel_tier()), nullptr);
  for (std::size_t t = 0; t < kNumKernelTiers; ++t) {
    const KernelTier resolved = resolve_kernel_tier(static_cast<KernelTier>(t));
    EXPECT_LE(static_cast<int>(resolved), static_cast<int>(t));
    EXPECT_NE(kernel_table(resolved), nullptr);
  }
}

TEST(Kernels, ParseValidatesAndNamesTheEnvVar) {
  EXPECT_EQ(parse_kernel_tier("scalar"), KernelTier::Scalar);
  EXPECT_EQ(parse_kernel_tier("avx2"), KernelTier::Avx2);
  EXPECT_EQ(parse_kernel_tier("avx512"), KernelTier::Avx512);
  EXPECT_EQ(parse_kernel_tier("auto"), detected_kernel_tier());
  try {
    parse_kernel_tier("sse9");
    FAIL() << "expected LinalgError";
  } catch (const LinalgError& e) {
    EXPECT_NE(std::string(e.what()).find("NOISIM_KERNELS"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sse9"), std::string::npos);
  }
}

TEST(Kernels, SetTierReturnsPreviousAndFallsBackWhenUnsupported) {
  const KernelTier original = active_kernel_tier();
  const KernelTier prev = set_kernel_tier(KernelTier::Scalar);
  EXPECT_EQ(prev, original);
  EXPECT_EQ(active_kernel_tier(), KernelTier::Scalar);
  // Requesting the top tier lands on the best supported tier, never an
  // unrunnable one (on AVX-512 hosts that IS avx512; elsewhere it falls
  // back with a one-time stderr warning).
  set_kernel_tier(KernelTier::Avx512);
  EXPECT_EQ(active_kernel_tier(), resolve_kernel_tier(KernelTier::Avx512));
  set_kernel_tier(original);
  EXPECT_EQ(active_kernel_tier(), original);
}

TEST(Kernels, EveryMatmulRungWritesTheNaiveLoopsBitsOnEveryTier) {
  // The scalar generic kernel (detail::matmul, the generic rung and the
  // reference the fixed-shape kernels are derived from) and every entry of
  // every tier's matmul array write the naive loop's bits. Each shape runs
  // the entry its rung names, and the grid reaches every entry, so an
  // array out of the enum's order (a fixed-k kernel on another k) fails.
  std::mt19937_64 rng(41);
  std::vector<char> reached(kNumMatmulShapes, 0);
  for (const Shape& s : kShapes) {
    const MatmulShape rung = matmul_shape(s.m, s.k, s.n);
    reached[rung] = 1;
    for (const bool zeros : {false, true}) {
      const aligned_vector<cplx> a =
          zeros ? lhs_buf(s.m, s.k, rng) : random_buf(s.m * s.k, rng, false);
      const aligned_vector<cplx> b = random_buf(s.k * s.n, rng, zeros);
      const aligned_vector<cplx> ref = naive_matmul(a.data(), b.data(), s.m, s.k, s.n);
      aligned_vector<cplx> got = nan_buf(s.m * s.n);
      detail::matmul(a.data(), b.data(), got.data(), s.m, s.k, s.n);
      expect_same_bits(ref, got, shape_name("matmul", *kernel_table(KernelTier::Scalar), s));
      for (const KernelTier tier : available_tiers()) {
        const KernelTable& kt = *kernel_table(tier);
        got = nan_buf(s.m * s.n);
        kt.matmul[rung](a.data(), b.data(), got.data(), s.m, s.k, s.n);
        expect_same_bits(ref, got,
                         shape_name("matmul rung", kt, s) + " #" + std::to_string(rung));
      }
    }
  }
  for (std::size_t r = 0; r < kNumMatmulShapes; ++r)
    EXPECT_TRUE(reached[r]) << "no shape of the grid reaches matmul rung " << r;
}

TEST(Kernels, MatmulShapePinsTheLaddersEdges) {
  // Fixed-k rungs end at m*n = 64; panels take any m.
  EXPECT_EQ(matmul_shape(8, 2, 8), kMatmulK2);
  EXPECT_EQ(matmul_shape(1, 2, 64), kMatmulK2);
  EXPECT_EQ(matmul_shape(5, 2, 13), kMatmulGeneric);
  EXPECT_EQ(matmul_shape(1, 2, 65), kMatmulGeneric);
  EXPECT_EQ(matmul_shape(8, 4, 8), kMatmulK4);
  EXPECT_EQ(matmul_shape(64, 4, 1), kMatmulK4);
  EXPECT_EQ(matmul_shape(13, 4, 5), kMatmulGeneric);
  EXPECT_EQ(matmul_shape(65, 4, 1), kMatmulGeneric);
  EXPECT_EQ(matmul_shape(4096, 2, 2), kMatmulK2N2);
  EXPECT_EQ(matmul_shape(4096, 2, 4), kMatmulK2N4);
  EXPECT_EQ(matmul_shape(4096, 4, 2), kMatmulK4N2);
  EXPECT_EQ(matmul_shape(4096, 4, 4), kMatmulK4N4);
  // k = 8 and 16 have panels only: n = 3 between them is generic.
  EXPECT_EQ(matmul_shape(7, 8, 2), kMatmulK8N2);
  EXPECT_EQ(matmul_shape(7, 8, 3), kMatmulGeneric);
  EXPECT_EQ(matmul_shape(7, 8, 4), kMatmulK8N4);
  EXPECT_EQ(matmul_shape(7, 16, 2), kMatmulK16N2);
  EXPECT_EQ(matmul_shape(7, 16, 3), kMatmulGeneric);
  EXPECT_EQ(matmul_shape(7, 16, 4), kMatmulK16N4);
  // No rung for k = 3, however small the output.
  EXPECT_EQ(matmul_shape(1, 3, 1), kMatmulGeneric);
  EXPECT_EQ(matmul_shape(2, 3, 2), kMatmulGeneric);
}

TEST(Kernels, GatheredWritesTheNaiveLoopsBitsInEveryIndexMode) {
  std::mt19937_64 rng(43);
  for (const Shape& s : kShapes) {
    const aligned_vector<cplx> a = lhs_buf(s.m, s.k, rng);
    const aligned_vector<cplx> b = random_buf(s.k * s.n, rng, true);
    const aligned_vector<cplx> ref = naive_matmul(a.data(), b.data(), s.m, s.k, s.n);
    // Gather tables: random permutations, the shape permute_gather produces
    // for fused permutations. The gathered copies hold logical element e at
    // offset idx[e], so every index mode reads the same logical operands.
    std::vector<std::uint32_t> a_idx(s.m * s.k), b_idx(s.k * s.n);
    std::iota(a_idx.begin(), a_idx.end(), 0u);
    std::iota(b_idx.begin(), b_idx.end(), 0u);
    std::shuffle(a_idx.begin(), a_idx.end(), rng);
    std::shuffle(b_idx.begin(), b_idx.end(), rng);
    aligned_vector<cplx> a_gath(a.size()), b_gath(b.size());
    for (std::size_t e = 0; e < a.size(); ++e) a_gath[a_idx[e]] = a[e];
    for (std::size_t e = 0; e < b.size(); ++e) b_gath[b_idx[e]] = b[e];
    for (const bool ga : {false, true}) {
      for (const bool gb : {false, true}) {
        for (const KernelTier tier : available_tiers()) {
          const KernelTable& kt = *kernel_table(tier);
          aligned_vector<cplx> got = nan_buf(s.m * s.n);
          kt.gathered(ga ? a_gath.data() : a.data(), ga ? a_idx.data() : nullptr,
                      gb ? b_gath.data() : b.data(), gb ? b_idx.data() : nullptr, got.data(),
                      s.m, s.k, s.n);
          expect_same_bits(ref, got,
                           shape_name("gathered", kt, s) + (ga ? " a-idx" : "") +
                               (gb ? " b-idx" : ""));
        }
      }
    }
  }
}

TEST(Kernels, ArenaAndScratchBuffersAre64ByteAligned) {
  // Regression: operator new on complex<double> only guarantees 16 bytes;
  // every kernel-visible executor buffer must start on a 64-byte boundary.
  for (const std::size_t elems : {1ul, 3ul, 17ul, 1000ul, 4097ul}) {
    aligned_vector<cplx> v(elems);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kKernelAlignment, 0u)
        << "aligned_vector of " << elems;
    tn::ArenaBuffer arena;
    arena.ensure(elems);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.data()) % kKernelAlignment, 0u)
        << "ArenaBuffer of " << elems;
  }
  // PlanWorkspace's buffers go through the same types.
  tn::PlanWorkspace ws;
  ws.arena.resize(129);
  ws.scratch_a.resize(65);
  ws.scratch_b.resize(33);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ws.arena.data()) % kKernelAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ws.scratch_a.data()) % kKernelAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ws.scratch_b.data()) % kKernelAlignment, 0u);
}

// --- whole-pipeline bit-identity with each tier forced -----------------------

qc::Circuit pipeline_circuit(int n, std::mt19937_64& rng) {
  qc::Circuit c(n);
  std::uniform_int_distribution<int> qubit(0, n - 1);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  for (std::size_t i = 0; i < 4 * static_cast<std::size_t>(n); ++i) {
    switch (rng() % 6) {
      case 0: c.add(qc::h(qubit(rng))); break;
      case 1: c.add(qc::t(qubit(rng))); break;
      case 2: c.add(qc::rx(qubit(rng), angle(rng))); break;
      case 3: c.add(qc::rz(qubit(rng), angle(rng))); break;
      default: {
        int a = qubit(rng), b = qubit(rng);
        while (b == a) b = qubit(rng);
        c.add(rng() % 2 ? qc::cz(a, b) : qc::cx(a, b));
        break;
      }
    }
  }
  return c;
}

TEST(Kernels, PipelineBitwiseAcrossForcedTiers) {
  using core::ApproxBatchResult;
  using core::ApproxOptions;
  using core::ApproxResult;
  using core::SweepOptions;
  std::mt19937_64 rng(45);
  const int n = 5;
  const qc::Circuit circuit = pipeline_circuit(n, rng);
  const ch::NoisyCircuit nc = bench::insert_noises(circuit, 2, bench::realistic_noise(), 7);
  std::vector<std::uint64_t> vb;
  for (int i = 0; i < 9; ++i) vb.push_back(rng() & ((std::uint64_t{1} << n) - 1));

  ApproxOptions base;
  base.level = 2;
  // Force the tensor-network backend: it is the path that runs the plan
  // executor's kernels (Auto would pick the state vector at 5 qubits).
  base.eval.backend = core::EvalOptions::Backend::TensorNetwork;

  // Scalar-tier reference for every bitstring...
  std::vector<ApproxResult> refs;
  {
    TierGuard guard(KernelTier::Scalar);
    for (const std::uint64_t v : vb) refs.push_back(core::approximate_fidelity(nc, 0, v, base));
  }

  // ...must be reproduced EXACTLY by every tier, per-bitstring and through
  // the sharded sweep, at multiple thread counts.
  for (const KernelTier tier : available_tiers()) {
    TierGuard guard(tier);
    for (std::size_t o = 0; o < vb.size(); ++o) {
      const ApproxResult got = core::approximate_fidelity(nc, 0, vb[o], base);
      EXPECT_EQ(refs[o].value, got.value) << kernel_tier_name(tier) << " output " << o;
      EXPECT_EQ(refs[o].raw.real(), got.raw.real()) << kernel_tier_name(tier);
      EXPECT_EQ(refs[o].raw.imag(), got.raw.imag()) << kernel_tier_name(tier);
      ASSERT_EQ(refs[o].level_values.size(), got.level_values.size());
      for (std::size_t u = 0; u < got.level_values.size(); ++u)
        EXPECT_EQ(refs[o].level_values[u], got.level_values[u]) << kernel_tier_name(tier);
    }
    for (const std::size_t threads : {1ul, 3ul}) {
      SweepOptions sopts;
      sopts.approx = base;
      sopts.approx.threads = threads;
      sopts.shard_outputs = 4;  // ragged: 9 outputs across shards of 4
      const ApproxBatchResult sweep = core::xeb_sweep(nc, 0, vb, sopts);
      ASSERT_EQ(sweep.raw.size(), vb.size());
      for (std::size_t o = 0; o < vb.size(); ++o) {
        EXPECT_EQ(refs[o].raw.real(), sweep.raw[o].real())
            << kernel_tier_name(tier) << " threads " << threads << " output " << o;
        EXPECT_EQ(refs[o].raw.imag(), sweep.raw[o].imag())
            << kernel_tier_name(tier) << " threads " << threads << " output " << o;
      }
    }
  }
}

TEST(Kernels, DispatchCountersAttributeEveryKernelToTheForcedTier) {
  using core::ApproxOptions;
  std::mt19937_64 rng(46);
  const qc::Circuit circuit = pipeline_circuit(4, rng);
  const ch::NoisyCircuit nc = bench::insert_noises(circuit, 2, bench::realistic_noise(), 11);
  ApproxOptions base;
  base.level = 1;
  base.eval.backend = core::EvalOptions::Backend::TensorNetwork;
  for (const KernelTier tier : available_tiers()) {
    TierGuard guard(tier);
    const core::ApproxResult r = core::approximate_fidelity(nc, 0, 5, base);
    const tn::ContractStats& st = r.contract_stats;
    ASSERT_GT(st.num_pairwise, 0u) << kernel_tier_name(tier);
    EXPECT_EQ(st.kernels_scalar + st.kernels_avx2 + st.kernels_avx512, st.num_pairwise);
    const std::size_t in_tier = tier == KernelTier::Scalar   ? st.kernels_scalar
                                : tier == KernelTier::Avx2   ? st.kernels_avx2
                                                             : st.kernels_avx512;
    EXPECT_EQ(in_tier, st.num_pairwise) << kernel_tier_name(tier);
  }
}

/// A tensor of standard-normal complex entries.
Tensor gauss_tensor(std::vector<std::size_t> shape, std::mt19937_64& rng) {
  Tensor t(std::move(shape));
  std::normal_distribution<double> gauss;
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = cplx{gauss(rng), gauss(rng)};
  return t;
}

/// A ring of three nodes: its value is a scalar, so it has an environment
/// schedule.
tn::Network ring_network(std::mt19937_64& rng) {
  tn::Network net;
  const tn::EdgeId e0 = net.new_edge(), e1 = net.new_edge(), e2 = net.new_edge();
  net.add_node(gauss_tensor({2, 3}, rng), {e0, e1});
  net.add_node(gauss_tensor({3, 4}, rng), {e1, e2});
  net.add_node(gauss_tensor({4, 2}, rng), {e2, e0});
  return net;
}

/// A chain whose varying leaf (slot 0, kChainTerms variants) feeds a
/// 2048-element output, so a batched replay runs the root step per term
/// (the sequential pass) after the batched pass.
constexpr std::size_t kChainTerms = 4;

tn::Network chain_network(std::mt19937_64& rng) {
  tn::Network chain;
  const tn::EdgeId p = chain.new_edge(), q = chain.new_edge(), r = chain.new_edge();
  const tn::EdgeId u = chain.new_edge(), w = chain.new_edge();
  chain.add_node(gauss_tensor({2, 8}, rng), {p, q});
  chain.add_node(gauss_tensor({2, 8}, rng), {r, q});
  chain.add_node(gauss_tensor({16, 2, 64}, rng), {w, r, u});
  return chain;
}

tn::BatchedPlan chain_batched(const tn::ContractionPlan& plan) {
  const std::vector<std::size_t> slots{0}, counts{kChainTerms};
  return plan.compile_batched(slots, kChainTerms, {}, nullptr, counts);
}

std::vector<const Tensor*> node_tensors(const tn::Network& net) {
  std::vector<const Tensor*> out;
  for (std::size_t i = 0; i < net.num_nodes(); ++i) out.push_back(&net.node(i).tensor);
  return out;
}

/// A copy of the scalar table whose matmul entries count their calls,
/// check that the executor indexed the entry of the call's own shape, and
/// run the scalar entry; its `gathered` counts likewise. An executor that
/// multiplies around the table shows up as a kernel call the counters
/// miss, one that indexes a stale rung as a wrong-rung call.
std::atomic<std::size_t> g_matmul_calls{0}, g_gathered_calls{0}, g_wrong_rung{0};

template <std::size_t Rung>
void counting_matmul(const cplx* a, const cplx* b, cplx* out, std::size_t m, std::size_t k,
                     std::size_t n) {
  g_matmul_calls.fetch_add(1, std::memory_order_relaxed);
  if (matmul_shape(m, k, n) != Rung) g_wrong_rung.fetch_add(1, std::memory_order_relaxed);
  kernel_table(KernelTier::Scalar)->matmul[Rung](a, b, out, m, k, n);
}

template <std::size_t... Rung>
detail::MatmulKernels counting_matmuls(std::index_sequence<Rung...>) {
  return {&counting_matmul<Rung>...};
}

void counting_gathered(const cplx* a, const std::uint32_t* a_idx, const cplx* b,
                       const std::uint32_t* b_idx, cplx* out, std::size_t m, std::size_t k,
                       std::size_t n) {
  g_gathered_calls.fetch_add(1, std::memory_order_relaxed);
  detail::matmul_gathered(a, a_idx, b, b_idx, out, m, k, n);
}

KernelTable counting_table() {
  KernelTable kt = *kernel_table(KernelTier::Scalar);
  kt.matmul = counting_matmuls(std::make_index_sequence<kNumMatmulShapes>{});
  kt.gathered = &counting_gathered;
  return kt;
}

TEST(Kernels, WorkspaceTableOverridesActiveTier) {
  // The executor seam: a table injected through PlanWorkspace::kernels wins
  // over the process-wide dispatch, its invocations are attributed to ITS
  // tier, and every executor makes each plain product through the
  // `matmul` entry of the step's rung -- the contract a GPU/remote table
  // will rely on.
  std::mt19937_64 rng(47);
  const tn::Network net = ring_network(rng);
  const tn::ContractionPlan plan = tn::ContractionPlan::compile(net, {});

  TierGuard guard(resolve_kernel_tier(KernelTier::Avx512));  // active != injected below
  const KernelTable counting = counting_table();
  auto reset_counts = [] {
    g_matmul_calls = 0;
    g_gathered_calls = 0;
    g_wrong_rung = 0;
  };

  // Per-term replay: one kernel call per step.
  tn::PlanWorkspace ws;
  ws.kernels = &counting;
  tn::ContractStats stats;
  reset_counts();
  const Tensor via_scalar = plan.execute(net, ws, &stats);
  EXPECT_EQ(stats.kernels_scalar, stats.num_pairwise);
  EXPECT_EQ(stats.num_pairwise, plan.steps().size());
  EXPECT_EQ(g_matmul_calls.load(), stats.num_pairwise);
  EXPECT_EQ(g_gathered_calls.load(), 0u);
  EXPECT_EQ(g_wrong_rung.load(), 0u);
  ws.kernels = nullptr;
  const Tensor via_active = plan.execute(net, ws);
  ASSERT_EQ(via_scalar.size(), via_active.size());
  for (std::size_t i = 0; i < via_scalar.size(); ++i) EXPECT_EQ(via_scalar[i], via_active[i]);

  // An environment pass toward every input: forward and backward steps.
  const std::vector<std::size_t> targets{0, 1, 2};
  const tn::EnvSchedule env = plan.compile_env(targets);
  const std::vector<const Tensor*> inputs = node_tensors(net);
  const std::vector<char> want(targets.size(), 1);
  ws.kernels = &counting;
  stats = {};
  reset_counts();
  env.execute(inputs, want, ws, &stats);
  EXPECT_EQ(stats.num_pairwise, plan.steps().size() + env.backward_steps().size());
  EXPECT_EQ(g_matmul_calls.load(), stats.num_pairwise);
  EXPECT_EQ(g_gathered_calls.load(), 0u);
  EXPECT_EQ(g_wrong_rung.load(), 0u);

  // A batched traversal through both passes. Every kernel call is either a
  // matmul entry or a gathered one.
  const tn::Network chain = chain_network(rng);
  const tn::ContractionPlan chain_plan = tn::ContractionPlan::compile(chain, {});
  const tn::BatchedPlan bplan = chain_batched(chain_plan);
  ASSERT_GT(bplan.sequential_flop_fraction(), 0.0);
  ASSERT_LT(bplan.sequential_flop_fraction(), 1.0);
  std::vector<Tensor> variants;
  for (std::size_t t = 0; t < kChainTerms; ++t) variants.push_back(gauss_tensor({2, 8}, rng));
  std::vector<const Tensor*> varying;
  for (const Tensor& v : variants) varying.push_back(&v);
  stats = {};
  reset_counts();
  bplan.execute(node_tensors(chain), varying, kChainTerms, ws, &stats);
  EXPECT_GT(g_matmul_calls.load(), 0u);
  EXPECT_EQ(g_matmul_calls.load() + g_gathered_calls.load(), stats.num_pairwise);
  EXPECT_EQ(g_wrong_rung.load(), 0u);
  EXPECT_EQ(stats.kernels_scalar, stats.num_pairwise);
}

void expect_same_tensor_bits(const Tensor& ref, const Tensor& got, const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_TRUE(same_bits(ref[i], got[i])) << what << " elem " << i;
}

TEST(Kernels, CompiledPlansReplayOnTheTierActiveAtReplay) {
  // A plan stores each step's rung, never a kernel: a plan, an environment
  // schedule and a batched plan (both passes) compiled while the scalar
  // tier is active replay on whichever tier is active at replay, every
  // kernel call counted on that tier, with the scalar replay's bits.
  std::mt19937_64 rng(48);
  const tn::Network ring = ring_network(rng);
  const tn::Network chain = chain_network(rng);
  std::vector<Tensor> variants;
  for (std::size_t t = 0; t < kChainTerms; ++t) variants.push_back(gauss_tensor({2, 8}, rng));
  std::vector<const Tensor*> varying;
  for (const Tensor& v : variants) varying.push_back(&v);
  const std::vector<std::size_t> targets{0, 1, 2};
  const std::vector<char> want(targets.size(), 1);

  TierGuard scalar(KernelTier::Scalar);
  const tn::ContractionPlan plan = tn::ContractionPlan::compile(ring, {});
  const tn::EnvSchedule env = plan.compile_env(targets);
  const tn::ContractionPlan chain_plan = tn::ContractionPlan::compile(chain, {});
  const tn::BatchedPlan bplan = chain_batched(chain_plan);
  ASSERT_GT(bplan.sequential_flop_fraction(), 0.0);
  ASSERT_LT(bplan.sequential_flop_fraction(), 1.0);

  struct Replay {
    Tensor plan_value, batched;
    cplx env_value;
    std::vector<Tensor> envs;
    tn::ContractStats stats;
  };
  auto replay = [&] {
    Replay r;
    tn::PlanWorkspace ws;
    r.plan_value = plan.execute(ring, ws, &r.stats);
    r.env_value = env.execute(node_tensors(ring), want, ws, &r.stats);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const std::span<const cplx> e = env.env(t, ws);
      Tensor copy({e.size()});
      std::copy(e.begin(), e.end(), copy.data());
      r.envs.push_back(std::move(copy));
    }
    r.batched = bplan.execute(node_tensors(chain), varying, kChainTerms, ws, &r.stats);
    return r;
  };
  const Replay ref = replay();
  ASSERT_EQ(ref.stats.kernels_scalar, ref.stats.num_pairwise);

  for (const KernelTier tier : available_tiers()) {
    TierGuard guard(tier);
    const Replay got = replay();
    const tn::ContractStats& st = got.stats;
    const std::string name = kernel_tier_name(tier);
    EXPECT_EQ(st.num_pairwise, ref.stats.num_pairwise) << name;
    const std::size_t in_tier = tier == KernelTier::Scalar ? st.kernels_scalar
                                : tier == KernelTier::Avx2 ? st.kernels_avx2
                                                           : st.kernels_avx512;
    EXPECT_EQ(in_tier, st.num_pairwise) << name;
    expect_same_tensor_bits(ref.plan_value, got.plan_value, name + " plan");
    EXPECT_TRUE(same_bits(ref.env_value, got.env_value)) << name << " environment value";
    for (std::size_t t = 0; t < targets.size(); ++t)
      expect_same_tensor_bits(ref.envs[t], got.envs[t], name + " environment " + std::to_string(t));
    expect_same_tensor_bits(ref.batched, got.batched, name + " batched");
  }
}

// --- state-vector families -----------------------------------------------------

// Reference oracle: the state-vector engine's original loops, which visit
// every index and skip half (or three quarters) of them with a branch.
// They define the bits every kernel tier must reproduce.
void oracle_apply1(std::vector<cplx>& v, const std::vector<cplx>& m, std::size_t bit) {
  const cplx m00 = m[0], m01 = m[1], m10 = m[2], m11 = m[3];
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i & bit) continue;
    const cplx a0 = v[i];
    const cplx a1 = v[i | bit];
    v[i] = m00 * a0 + m01 * a1;
    v[i | bit] = m10 * a0 + m11 * a1;
  }
}

void oracle_apply2(std::vector<cplx>& v, const std::vector<cplx>& m, std::size_t bit_a,
                   std::size_t bit_b) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i & (bit_a | bit_b)) continue;
    cplx old[4], neu[4];
    for (std::size_t t = 0; t < 4; ++t)
      old[t] = v[i | ((t & 2) ? bit_a : 0) | ((t & 1) ? bit_b : 0)];
    for (std::size_t r = 0; r < 4; ++r) {
      neu[r] = cplx{0.0, 0.0};
      for (std::size_t c = 0; c < 4; ++c) neu[r] += m[4 * r + c] * old[c];
    }
    for (std::size_t t = 0; t < 4; ++t)
      v[i | ((t & 2) ? bit_a : 0) | ((t & 1) ? bit_b : 0)] = neu[t];
  }
}

cplx oracle_expectation1(const std::vector<cplx>& v, const std::vector<cplx>& m,
                         std::size_t bit) {
  cplx s{0.0, 0.0};
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i & bit) continue;
    const cplx a0 = v[i], a1 = v[i | bit];
    s += std::conj(a0) * (m[0] * a0 + m[1] * a1);
    s += std::conj(a1) * (m[2] * a0 + m[3] * a1);
  }
  return s;
}

la::Matrix as_matrix(const std::vector<cplx>& m) {
  const std::size_t d = m.size() == 4 ? 2 : 4;
  la::Matrix out(d, d);
  for (std::size_t e = 0; e < m.size(); ++e) out(e / d, e % d) = m[e];
  return out;
}

std::vector<cplx> random_state(std::size_t size, std::mt19937_64& rng) {
  std::normal_distribution<double> gauss;
  std::vector<cplx> v(size);
  for (cplx& a : v) a = rng() % 5 == 0 ? cplx{0.0, 0.0} : cplx{gauss(rng), gauss(rng)};
  return v;
}

/// Row-major d x d matrices of every shape class: dense (non-unitary),
/// diagonal (with and without entries exactly 1), and for d == 4 the CX
/// permutation (also with the -0 imaginary parts conj() produces) and a
/// permutation that is not CX (SWAP, dense class).
std::vector<std::vector<cplx>> shape_matrices(std::size_t d, std::mt19937_64& rng) {
  std::normal_distribution<double> gauss;
  auto entry = [&] { return cplx{gauss(rng), gauss(rng)}; };
  std::vector<std::vector<cplx>> out;
  std::vector<cplx> dense(d * d), diag(d * d), diag_ones(d * d);
  for (cplx& x : dense) x = entry();
  for (std::size_t t = 0; t < d; ++t) {
    diag[t * d + t] = entry();
    diag_ones[t * d + t] = t + 1 == d ? cplx{-1.0, 0.0} : cplx{1.0, 0.0};
  }
  diag_ones[0] = entry();  // T-like: one general entry, the rest exact +-1
  out = {dense, diag, diag_ones};
  if (d == 4) {
    std::vector<cplx> cx(16), cx_conj(16), swap(16);
    for (const std::size_t e : {0, 5, 11, 14}) {  // (0,0) (1,1) (2,3) (3,2)
      cx[e] = cplx{1.0, 0.0};
      cx_conj[e] = cplx{1.0, -0.0};
    }
    for (const std::size_t e : {0, 6, 9, 15}) swap[e] = 1.0;  // (0,0) (1,2) (2,1) (3,3)
    out.push_back(cx);
    out.push_back(cx_conj);
    out.push_back(swap);
  }
  return out;
}

/// Scalar vs oracle: equal as values (an exact zero may change sign).
void expect_values_equal(const std::vector<cplx>& ref, const std::vector<cplx>& got,
                         const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].real(), got[i].real()) << what << " elem " << i;
    ASSERT_EQ(ref[i].imag(), got[i].imag()) << what << " elem " << i;
  }
}

/// Tier vs scalar: identical bit patterns, zero signs included.
void expect_bitwise(const std::vector<cplx>& ref, const std::vector<cplx>& got,
                    const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_TRUE(same_bits(ref[i], got[i])) << what << " elem " << i;
}

TEST(SvKernels, EveryTierMatchesScalar) {
  std::mt19937_64 rng(2026);
  const KernelTable& scalar = *kernel_table(KernelTier::Scalar);
  const std::vector<std::vector<cplx>> mats1 = shape_matrices(2, rng);
  const std::vector<std::vector<cplx>> mats2 = shape_matrices(4, rng);
  for (const KernelTier tier : available_tiers()) {
    const KernelTable& kt = *kernel_table(tier);
    for (int n = 1; n <= 10; ++n) {
      const std::size_t size = std::size_t{1} << n;
      for (int q = 0; q < n; ++q) {
        const std::size_t bit = sim::qubit_bit(n, q);
        for (std::size_t mi = 0; mi < mats1.size(); ++mi) {
          const std::vector<cplx>& m = mats1[mi];
          const std::string what = std::string(kernel_tier_name(tier)) + " n=" +
                                   std::to_string(n) + " q=" + std::to_string(q) +
                                   " 2x2 #" + std::to_string(mi);
          const std::vector<cplx> psi = random_state(size, rng);
          std::vector<cplx> ref = psi, base = psi, got = psi;
          oracle_apply1(ref, m, bit);
          const sim::SvOp op = sim::SvOp::one(as_matrix(m), bit);
          op.apply(base.data(), size, scalar);
          op.apply(got.data(), size, kt);
          expect_values_equal(ref, base, what);
          expect_bitwise(base, got, what);

          // Fused Kraus apply == apply, then the 2x2 pass diag(s, s).
          const double s = 1.0 / std::sqrt(0.37);
          const std::vector<cplx> renorm{{s, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {s, 0.0}};
          ref = psi;
          oracle_apply1(ref, m, bit);
          oracle_apply1(ref, renorm, bit);
          base = psi;
          got = psi;
          scalar.sv_kraus1(base.data(), size, bit, m.data(), s);
          kt.sv_kraus1(got.data(), size, bit, m.data(), s);
          expect_values_equal(ref, base, what + " kraus1");
          expect_bitwise(base, got, what + " kraus1");

          // Born expectation: the same bits as the textbook loop.
          const cplx e_ref = oracle_expectation1(psi, m, bit);
          const cplx e_got = sim::expectation1(psi.data(), size, op);
          EXPECT_TRUE(same_bits(e_ref, e_got)) << what;
        }
        for (int b = 0; b < n; ++b) {
          if (b == q) continue;  // (q, b) and (b, q) both visited
          const std::size_t bit_b = sim::qubit_bit(n, b);
          for (std::size_t mi = 0; mi < mats2.size(); ++mi) {
            const std::vector<cplx>& m = mats2[mi];
            const std::string what = std::string(kernel_tier_name(tier)) + " n=" +
                                     std::to_string(n) + " (a,b)=(" + std::to_string(q) + "," +
                                     std::to_string(b) + ") 4x4 #" + std::to_string(mi);
            const std::vector<cplx> psi = random_state(size, rng);
            std::vector<cplx> ref = psi, base = psi, got = psi;
            oracle_apply2(ref, m, bit, bit_b);
            const sim::SvOp op = sim::SvOp::two(as_matrix(m), bit, bit_b);
            op.apply(base.data(), size, scalar);
            op.apply(got.data(), size, kt);
            expect_values_equal(ref, base, what);
            expect_bitwise(base, got, what);

            // Out-of-place apply: same bits, source untouched.
            std::vector<cplx> src = psi, into_scalar(size), into(size);
            scalar.sv_dense2_into(src.data(), into_scalar.data(), size, bit, bit_b, m.data());
            kt.sv_dense2_into(src.data(), into.data(), size, bit, bit_b, m.data());
            expect_bitwise(psi, src, what + " into: source");
            expect_values_equal(ref, into_scalar, what + " into");
            expect_bitwise(into_scalar, into, what + " into");
          }
        }
      }
    }
  }
}

TEST(SvKernels, OperatorsClassifyByExactZeroPattern) {
  using Shape = sim::SvOp::Shape;
  EXPECT_EQ(sim::SvOp::one(qc::h(0).matrix(), 1).shape, Shape::Dense1);
  EXPECT_EQ(sim::SvOp::one(qc::t(0).matrix(), 1).shape, Shape::Diag1);
  EXPECT_EQ(sim::SvOp::one(qc::rz(0, 0.3).matrix(), 1).shape, Shape::Diag1);
  EXPECT_EQ(sim::SvOp::two(qc::cz(0, 1).matrix(), 2, 1).shape, Shape::Diag2);
  EXPECT_EQ(sim::SvOp::two(qc::cx(0, 1).matrix(), 2, 1).shape, Shape::Cx);
  EXPECT_EQ(sim::SvOp::two(qc::cx(0, 1).matrix().conj(), 2, 1).shape, Shape::Cx);
  EXPECT_EQ(sim::SvOp::two(qc::fsim(0, 1, 0.3, 0.2).matrix(), 2, 1).shape, Shape::Dense2);
}

/// Small noisy circuit mixing every gate shape class with 1-qubit unitary-
/// mixture and non-mixture noise and 2-qubit noise in both qubit orders.
ch::NoisyCircuit tier_trajectory_circuit() {
  std::mt19937_64 rng(77);
  const int n = 6;
  qc::Circuit c(n);
  for (int q = 0; q < n; ++q) c.add(qc::h(q));
  for (int layer = 0; layer < 4; ++layer) {
    for (int q = 0; q + 1 < n; q += 2) c.add(layer % 2 ? qc::cz(q, q + 1) : qc::cx(q + 1, q));
    for (int q = 0; q < n; ++q)
      c.add(q % 3 == 0 ? qc::rx(q, 0.3 * layer + 0.1) : q % 3 == 1 ? qc::t(q) : qc::rz(q, 0.7));
  }
  ch::NoisyCircuit nc(n);
  std::size_t i = 0;
  for (const qc::Gate& g : c.gates()) {
    nc.add_gate(g);
    switch (i++ % 9) {
      case 2: nc.add_noise(g.qubits[0], ch::depolarizing(0.2)); break;
      case 5: nc.add_noise(g.qubits[0], ch::amplitude_damping(0.3)); break;
      case 7:
        nc.add_noise_2q(static_cast<int>(rng() % 3), 3 + static_cast<int>(rng() % 3),
                        ch::two_qubit_depolarizing(0.2));
        break;
      case 8:
        nc.add_noise_2q(5, static_cast<int>(rng() % 5), ch::two_qubit_depolarizing(0.1));
        break;
      default: break;
    }
  }
  return nc;
}

TEST(Trajectories, EstimateBitsAcrossTiers) {
  const ch::NoisyCircuit nc = tier_trajectory_circuit();
  const std::uint64_t v = 0b101101;
  sim::TrajectoryResult ref_par, ref_serial;
  double ref_sample = 0.0;
  {
    TierGuard guard(KernelTier::Scalar);
    sim::ParallelOptions opts;
    opts.threads = 1;
    opts.chunk_size = 16;
    ref_par = sim::trajectories_sv(nc, 0, v, 200, 5, opts);
    std::mt19937_64 rng(5);
    ref_serial = sim::trajectories_sv(nc, 0, v, 100, rng);
    ref_sample = sim::sample_trajectory_sv(nc, 0, v, rng);
  }
  EXPECT_GT(ref_par.mean, 0.0);
  for (const KernelTier tier : available_tiers()) {
    TierGuard guard(tier);
    for (const std::size_t threads : {1ul, 3ul}) {
      sim::ParallelOptions opts;
      opts.threads = threads;
      opts.chunk_size = 16;
      const sim::TrajectoryResult r = sim::trajectories_sv(nc, 0, v, 200, 5, opts);
      EXPECT_EQ(r.mean, ref_par.mean) << kernel_tier_name(tier) << " threads " << threads;
      EXPECT_EQ(r.std_error, ref_par.std_error) << kernel_tier_name(tier) << " threads " << threads;
    }
    std::mt19937_64 rng(5);
    const sim::TrajectoryResult serial = sim::trajectories_sv(nc, 0, v, 100, rng);
    EXPECT_EQ(serial.mean, ref_serial.mean) << kernel_tier_name(tier);
    EXPECT_EQ(serial.std_error, ref_serial.std_error) << kernel_tier_name(tier);
    EXPECT_EQ(sim::sample_trajectory_sv(nc, 0, v, rng), ref_sample) << kernel_tier_name(tier);
  }
}

// --- compiled permutation walks ---------------------------------------------

/// The per-element odometer the executor ran before walks were compiled:
/// the oracle for tsr::permute_walk (gather: dst[flat] = src[at]) and
/// tsr::scatter_walk (dst[at] = src[flat]), `at` the source offset of row-
/// major position `flat` of `shape` read at `stride`.
void odometer_walk(const cplx* src, const std::vector<std::size_t>& shape,
                   const std::vector<std::size_t>& stride, cplx* dst, bool scatter) {
  std::size_t total = 1;
  for (std::size_t d : shape) total *= d;
  std::vector<std::size_t> idx(shape.size(), 0);
  std::size_t at = 0;
  for (std::size_t flat = 0; flat < total; ++flat) {
    if (scatter)
      dst[at] = src[flat];
    else
      dst[flat] = src[at];
    for (std::size_t ax = shape.size(); ax-- > 0;) {
      if (++idx[ax] < shape[ax]) {
        at += stride[ax];
        break;
      }
      at -= stride[ax] * (shape[ax] - 1);
      idx[ax] = 0;
    }
  }
}

/// One walk case: a source shape and the permutation read through it.
struct WalkCase {
  std::vector<std::size_t> shape, perm;
};

/// Seeded cases over ranks 0-14 and dims 1-4 (at most 2^14 elements), in
/// four kinds: a random permutation; the identity (already contiguous);
/// the leading axes shuffled under an in-order suffix (one long contiguous
/// innermost run); and the last axis rotated to the front (one long
/// innermost run at a stride, the environment pass's large walks). Size-1
/// axes occur at random and in an all-ones case per rank.
std::vector<WalkCase> walk_cases(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<WalkCase> cases;
  for (std::size_t rank = 0; rank <= 14; ++rank) {
    for (std::size_t kind = 0; kind < 4; ++kind) {
      for (std::size_t rep = 0; rep < 6; ++rep) {
        WalkCase c;
        std::size_t total = 1;
        for (std::size_t ax = 0; ax < rank; ++ax) {
          c.shape.push_back(1 + rng() % 4);
          total *= c.shape.back();
        }
        while (total > (std::size_t{1} << 14)) {  // shrink a random axis
          std::size_t& d = c.shape[rng() % rank];
          if (d > 1) total = total / d * (d - 1), --d;
        }
        c.perm.resize(rank);
        std::iota(c.perm.begin(), c.perm.end(), std::size_t{0});
        const std::size_t suffix = rank == 0 ? 0 : rng() % rank;
        if (kind == 0) std::shuffle(c.perm.begin(), c.perm.end(), rng);
        if (kind == 2) std::shuffle(c.perm.begin(), c.perm.end() - suffix, rng);
        if (kind == 3 && rank > 0) std::rotate(c.perm.begin(), c.perm.end() - 1, c.perm.end());
        cases.push_back(c);
      }
    }
    WalkCase ones;
    ones.shape.assign(rank, 1);
    ones.perm.resize(rank);
    std::iota(ones.perm.rbegin(), ones.perm.rend(), std::size_t{0});
    cases.push_back(ones);
  }
  return cases;
}

TEST(Walks, CompiledWalksMatchTheOdometerExactly) {
  std::mt19937_64 rng(2211);
  std::size_t long_strided = 0, long_contiguous = 0, dropped_ones = 0;
  for (const WalkCase& c : walk_cases(17)) {
    const std::vector<std::size_t> strides = row_major_strides(c.shape);
    std::vector<std::size_t> out_shape, src_stride;
    std::size_t total = 1;
    for (const std::size_t p : c.perm) {
      out_shape.push_back(c.shape[p]);
      src_stride.push_back(strides[p]);
      total *= c.shape[p];
    }
    std::ostringstream label;
    label << "shape";
    for (std::size_t d : c.shape) label << ' ' << d;
    label << " perm";
    for (std::size_t p : c.perm) label << ' ' << p;
    const std::string what = label.str();

    const PermuteWalk walk = compile_walk(out_shape, src_stride);
    ASSERT_EQ(walk.elems(), total) << what;
    for (const PermuteWalk::Axis& a : walk.outer) ASSERT_GE(a.extent, 2u) << what;
    if (walk.inner_len >= 64) ++(walk.inner_stride == 1 ? long_contiguous : long_strided);
    if (std::count(c.shape.begin(), c.shape.end(), std::size_t{1}) > 0) ++dropped_ones;

    // Exact-size buffers, so a strided loop running past either end shows
    // under ASan; zeros of both signs check that the copy moves bits.
    const std::vector<cplx> src = [&] {
      std::vector<cplx> v(total);
      std::normal_distribution<double> gauss;
      for (cplx& x : v) x = rng() % 5 == 0 ? cplx{-0.0, 0.0} : cplx{gauss(rng), gauss(rng)};
      return v;
    }();
    const cplx sentinel{std::numeric_limits<double>::quiet_NaN(), 7.0};

    // Gather, through the compiled walk, permute_into and permute_gather.
    std::vector<cplx> ref(total, sentinel), got(total, sentinel), into(total, sentinel);
    odometer_walk(src.data(), out_shape, src_stride, ref.data(), /*scatter=*/false);
    permute_walk(src.data(), walk, got.data());
    expect_bitwise(ref, got, "gather " + what);
    permute_into(src.data(), c.shape, c.perm, into.data());
    expect_bitwise(ref, into, "permute_into " + what);
    const std::vector<std::uint32_t> table = permute_gather(out_shape, src_stride);
    ASSERT_EQ(table.size(), total) << what;
    bool in_order = true;
    for (std::size_t f = 0; f < total; ++f) {
      ASSERT_TRUE(same_bits(ref[f], src[table[f]])) << "permute_gather " << what << " elem " << f;
      in_order = in_order && table[f] == f;
    }
    EXPECT_EQ(walk.contiguous(), in_order) << what;

    // Scatter: the dual, and the inverse of the gather.
    std::vector<cplx> sref(total, sentinel), sgot(total, sentinel);
    odometer_walk(src.data(), out_shape, src_stride, sref.data(), /*scatter=*/true);
    scatter_walk(src.data(), walk, sgot.data());
    expect_bitwise(sref, sgot, "scatter " + what);
    std::vector<cplx> back(total, sentinel);
    scatter_walk(got.data(), walk, back.data());
    expect_bitwise(src, back, "scatter of gather " + what);
  }
  // The generator reached the shapes the coalescing is for.
  EXPECT_GT(long_strided, 0u);
  EXPECT_GT(long_contiguous, 0u);
  EXPECT_GT(dropped_ones, 0u);
}

TEST(Walks, CoalescingMergesCoAdjacentAxesAndDropsOnes) {
  // The environment pass's large walk: [2, 8192] read transposed from a
  // rank-14 all-2 tensor, plus size-1 axes anywhere.
  std::vector<std::size_t> shape(14, 2);
  std::vector<std::size_t> perm(14);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::rotate(perm.begin(), perm.end() - 1, perm.end());  // last axis first
  const std::vector<std::size_t> strides = row_major_strides(shape);
  std::vector<std::size_t> out_shape{1}, src_stride{99};
  for (const std::size_t p : perm) {
    out_shape.push_back(shape[p]);
    src_stride.push_back(strides[p]);
    out_shape.push_back(1);
    src_stride.push_back(5);
  }
  const PermuteWalk walk = compile_walk(out_shape, src_stride);
  EXPECT_EQ(walk.inner_len, 8192u);
  EXPECT_EQ(walk.inner_stride, 2u);
  ASSERT_EQ(walk.outer.size(), 1u);
  EXPECT_EQ(walk.outer[0].extent, 2u);
  EXPECT_EQ(walk.outer[0].stride, 1u);
  EXPECT_FALSE(walk.contiguous());

  // Only size-1 axes moved: a plain copy.
  const PermuteWalk copy = compile_walk(std::vector<std::size_t>{3, 1, 4},
                                        std::vector<std::size_t>{4, 1, 1});
  EXPECT_TRUE(copy.contiguous());
  EXPECT_EQ(copy.inner_len, 12u);
  // Rank 0 and zero-extent shapes.
  EXPECT_EQ(compile_walk({}, {}).elems(), 1u);
  EXPECT_EQ(compile_walk(std::vector<std::size_t>{3, 0, 2}, std::vector<std::size_t>{1, 3, 3})
                .elems(),
            0u);
}

}  // namespace
}  // namespace noisim::tsr
