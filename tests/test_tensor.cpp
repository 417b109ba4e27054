// Unit tests for dense tensors and pairwise contraction.
#include <gtest/gtest.h>

#include <array>
#include <random>

#include "linalg/qr.hpp"
#include "tensor/contract.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"

namespace noisim::tsr {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, std::mt19937_64& rng) {
  Tensor t(std::move(shape));
  std::normal_distribution<double> gauss;
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = cplx{gauss(rng), gauss(rng)};
  return t;
}

TEST(Tensor, ScalarRoundTrip) {
  const Tensor s = Tensor::scalar(cplx{2.5, -1.0});
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(approx_equal(s.to_scalar(), cplx{2.5, -1.0}));
}

TEST(Tensor, FromMatrixPreservesLayout) {
  la::Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Tensor t = Tensor::from_matrix(m);
  EXPECT_EQ(t.shape(), (std::vector<std::size_t>{2, 3}));
  EXPECT_TRUE(approx_equal(t.at({1, 2}), cplx{6, 0}));
  EXPECT_TRUE(t.to_matrix().approx_equal(m));
}

TEST(Tensor, MultiIndexIsRowMajor) {
  Tensor t({2, 3, 4});
  t.at({1, 2, 3}) = cplx{9, 0};
  EXPECT_TRUE(approx_equal(t[1 * 12 + 2 * 4 + 3], cplx{9, 0}));
}

TEST(Tensor, PermuteTransposesMatrix) {
  la::Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Tensor t = Tensor::from_matrix(m).permute({1, 0});
  EXPECT_TRUE(t.to_matrix().approx_equal(m.transpose()));
}

TEST(Tensor, PermuteIsInverseOfInversePermutation) {
  std::mt19937_64 rng(1);
  const Tensor t = random_tensor({2, 3, 4, 5}, rng);
  const Tensor p = t.permute({2, 0, 3, 1});
  // inverse of (2,0,3,1) is (1,3,0,2)
  EXPECT_TRUE(p.permute({1, 3, 0, 2}).approx_equal(t));
}

TEST(Tensor, PermuteValidatesInput) {
  Tensor t({2, 2});
  EXPECT_THROW(t.permute({0, 0}), LinalgError);
  EXPECT_THROW(t.permute({0}), LinalgError);
  EXPECT_THROW(t.permute({0, 2}), LinalgError);
}

TEST(Tensor, IdentityPermuteIsExactCopy) {
  std::mt19937_64 rng(2);
  const Tensor t = random_tensor({2, 3, 4}, rng);
  const Tensor p = t.permute({0, 1, 2});  // fast path: no element walk
  ASSERT_EQ(p.shape(), t.shape());
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(p[i], t[i]);
  const std::vector<std::size_t> id{0, 1, 2}, swapped{1, 0, 2};
  EXPECT_TRUE(is_identity_permutation(id));
  EXPECT_FALSE(is_identity_permutation(swapped));
}

TEST(Tensor, PermuteIntoMatchesPermute) {
  std::mt19937_64 rng(3);
  const Tensor t = random_tensor({3, 4, 5}, rng);
  const Tensor p = t.permute({2, 0, 1});
  Tensor dst({5, 3, 4});
  const std::vector<std::size_t> perm{2, 0, 1};
  permute_into(t.data(), t.shape(), perm, dst.data());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(dst[i], p[i]);
}

TEST(Tensor, ReshapeKeepsData) {
  std::mt19937_64 rng(2);
  const Tensor t = random_tensor({4, 6}, rng);
  const Tensor r = t.reshape({2, 2, 6});
  EXPECT_EQ(r.rank(), 3u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_TRUE(approx_equal(t[i], r[i]));
  EXPECT_THROW(t.reshape({5, 5}), LinalgError);
}

TEST(Tensor, ConjNegatesImaginaryParts) {
  Tensor t({2});
  t[0] = cplx{1, 2};
  t[1] = cplx{-3, -4};
  const Tensor c = t.conj();
  EXPECT_TRUE(approx_equal(c[0], cplx{1, -2}));
  EXPECT_TRUE(approx_equal(c[1], cplx{-3, 4}));
}

TEST(Tensor, TraceAxesEqualsMatrixTrace) {
  std::mt19937_64 rng(3);
  const Tensor t = random_tensor({3, 3}, rng);
  const Tensor tr = trace_axes(t, 0, 1);
  EXPECT_EQ(tr.rank(), 0u);
  EXPECT_TRUE(approx_equal(tr.to_scalar(), t.to_matrix().trace(), 1e-10));
}

TEST(Tensor, TraceAxesPartial) {
  std::mt19937_64 rng(4);
  const Tensor t = random_tensor({2, 3, 2}, rng);
  const Tensor tr = trace_axes(t, 0, 2);
  ASSERT_EQ(tr.shape(), (std::vector<std::size_t>{3}));
  for (std::size_t j = 0; j < 3; ++j) {
    cplx want = t.at({0, j, 0}) + t.at({1, j, 1});
    EXPECT_TRUE(approx_equal(tr[j], want, 1e-10));
  }
}

TEST(Tensor, OuterProductShapeAndValues) {
  Tensor a({2});
  a[0] = cplx{1, 0};
  a[1] = cplx{2, 0};
  Tensor b({3});
  b[0] = cplx{1, 0};
  b[1] = cplx{0, 1};
  b[2] = cplx{-1, 0};
  const Tensor o = outer(a, b);
  ASSERT_EQ(o.shape(), (std::vector<std::size_t>{2, 3}));
  EXPECT_TRUE(approx_equal(o.at({1, 1}), cplx{0, 2}));
}

// --- contraction -------------------------------------------------------------

TEST(Contract, MatrixProductEquivalence) {
  std::mt19937_64 rng(5);
  const la::Matrix a = la::random_ginibre(3, 4, rng);
  const la::Matrix b = la::random_ginibre(4, 5, rng);
  const Tensor c = contract(Tensor::from_matrix(a), {1}, Tensor::from_matrix(b), {0});
  EXPECT_TRUE(c.to_matrix().approx_equal(a * b, 1e-10));
}

TEST(Contract, InnerProductFullContraction) {
  std::mt19937_64 rng(6);
  const Tensor a = random_tensor({2, 3}, rng);
  const Tensor b = random_tensor({2, 3}, rng);
  const Tensor s = contract(a, {0, 1}, b, {0, 1});
  cplx want{0, 0};
  for (std::size_t i = 0; i < a.size(); ++i) want += a[i] * b[i];
  EXPECT_TRUE(approx_equal(s.to_scalar(), want, 1e-10));
}

TEST(Contract, MultiAxisAgainstManualSum) {
  std::mt19937_64 rng(7);
  const Tensor a = random_tensor({2, 3, 4}, rng);
  const Tensor b = random_tensor({4, 2, 5}, rng);
  // Contract a's axes (0, 2) with b's axes (1, 0): result [3, 5].
  const Tensor c = contract(a, {0, 2}, b, {1, 0});
  ASSERT_EQ(c.shape(), (std::vector<std::size_t>{3, 5}));
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t m = 0; m < 5; ++m) {
      cplx want{0, 0};
      for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t k = 0; k < 4; ++k) want += a.at({i, j, k}) * b.at({k, i, m});
      EXPECT_TRUE(approx_equal(c.at({j, m}), want, 1e-10));
    }
}

TEST(Contract, ZeroAxesIsOuterProduct) {
  std::mt19937_64 rng(8);
  const Tensor a = random_tensor({2, 2}, rng);
  const Tensor b = random_tensor({3}, rng);
  const Tensor c = contract(a, {}, b, {});
  EXPECT_TRUE(c.approx_equal(outer(a, b), 1e-10));
}

TEST(Contract, ResultSizePredicts) {
  std::mt19937_64 rng(9);
  const Tensor a = random_tensor({2, 3, 4}, rng);
  const Tensor b = random_tensor({4, 5}, rng);
  std::vector<std::size_t> axes_a{2}, axes_b{0};
  EXPECT_EQ(contract_result_size(a, axes_a, b, axes_b), 2u * 3u * 5u);
  EXPECT_EQ(contract(a, axes_a, b, axes_b).size(), 2u * 3u * 5u);
}

TEST(Contract, DimensionMismatchThrows) {
  Tensor a({2, 3}), b({4, 2});
  EXPECT_THROW(contract(a, {1}, b, {0}), LinalgError);
  EXPECT_THROW(contract(a, {0}, b, {0, 1}), LinalgError);
  EXPECT_THROW(contract(a, {0, 0}, b, {0, 1}), LinalgError);
}

// Property: contraction is bilinear (checked over random seeds).
class ContractBilinear : public ::testing::TestWithParam<int> {};

TEST_P(ContractBilinear, LinearInFirstArgument) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const Tensor a1 = random_tensor({3, 4}, rng);
  const Tensor a2 = random_tensor({3, 4}, rng);
  const Tensor b = random_tensor({4, 2}, rng);
  const cplx alpha{1.5, -0.5};
  Tensor lhs_in = a1;
  lhs_in += a2;
  Tensor scaled = lhs_in;
  scaled *= alpha;
  const Tensor lhs = contract(scaled, {1}, b, {0});
  Tensor rhs = contract(a1, {1}, b, {0});
  rhs += contract(a2, {1}, b, {0});
  rhs *= alpha;
  EXPECT_TRUE(lhs.approx_equal(rhs, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContractBilinear, ::testing::Range(0, 8));

Tensor random_tensor_with_zeros(std::vector<std::size_t> shape, std::mt19937_64& rng) {
  // ~25% exact zeros so the kernels' zero-skip branch is exercised (its
  // presence or absence can change the sign of zero results).
  Tensor t = random_tensor(std::move(shape), rng);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  for (std::size_t i = 0; i < t.size(); ++i)
    if (unif(rng) < 0.25) t[i] = cplx{0.0, 0.0};
  return t;
}

bool same_bits(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

TEST(Kernels, MicrokernelDispatchIsBitIdenticalToGenericKernel) {
  std::mt19937_64 rng(11);
  // Shapes covering the panel kernels (k in {2,4,8,16}, n in {2,4}), the
  // small fixed-k kernels (m*n <= 64), and generic fallbacks.
  const std::vector<std::array<std::size_t, 3>> shapes{
      {1, 2, 2},  {5, 2, 4},   {129, 4, 2}, {64, 4, 4},  {33, 8, 2}, {17, 16, 4},
      {2, 2, 8},  {4, 4, 16},  {8, 2, 2},   {3, 4, 64},  {7, 3, 5},  {16, 4, 1024},
      {4, 8, 37}, {70, 65, 3}, {2, 128, 2}, {128, 2, 66}};
  for (const auto& [m, k, n] : shapes) {
    const Tensor a = random_tensor_with_zeros({m, k}, rng);
    const Tensor b = random_tensor_with_zeros({k, n}, rng);
    std::vector<cplx> ref(m * n, cplx{0.0, 0.0}), got(m * n, cplx{0.0, 0.0});
    detail::matmul(a.data(), b.data(), ref.data(), m, k, n);
    const auto kernel = kernel_table(KernelTier::Scalar)->matmul[matmul_shape(m, k, n)];
    kernel(a.data(), b.data(), got.data(), m, k, n);
    EXPECT_TRUE(same_bits(ref, got)) << "shape " << m << "x" << k << "x" << n;
  }
}

TEST(Kernels, GatheredMatchesPermutedCopyBitwise) {
  std::mt19937_64 rng(13);
  // a stored as [k, m] (transposed), b stored as [n, k] (transposed):
  // gather tables express the permutation the copies would apply.
  const std::size_t m = 12, k = 4, n = 10;
  const Tensor a_t = random_tensor_with_zeros({k, m}, rng);
  const Tensor b_t = random_tensor_with_zeros({n, k}, rng);
  const Tensor a = a_t.permute({1, 0});
  const Tensor b = b_t.permute({1, 0});
  std::vector<cplx> ref(m * n, cplx{0.0, 0.0}), got(m * n, cplx{0.0, 0.0});
  detail::matmul(a.data(), b.data(), ref.data(), m, k, n);

  const std::vector<std::size_t> a_shape{m, k}, a_stride{1, m};
  const std::vector<std::size_t> b_shape{k, n}, b_stride{1, k};
  const std::vector<std::uint32_t> a_idx = permute_gather(a_shape, a_stride);
  const std::vector<std::uint32_t> b_idx = permute_gather(b_shape, b_stride);
  detail::matmul_gathered(a_t.data(), a_idx.data(), b_t.data(), b_idx.data(), got.data(), m, k,
                          n);
  EXPECT_TRUE(same_bits(ref, got));

  // One-sided gather (a permuted, b already in kernel order).
  detail::matmul_gathered(a_t.data(), a_idx.data(), b.data(), nullptr, got.data(), m, k, n);
  EXPECT_TRUE(same_bits(ref, got));
}

TEST(Tensor, PermuteGatherMatchesPermuteWalk) {
  std::mt19937_64 rng(14);
  const Tensor t = random_tensor({3, 4, 2, 5}, rng);
  const std::vector<std::size_t> perm{2, 0, 3, 1};
  const Tensor ref = t.permute(perm);
  const std::vector<std::size_t> strides = row_major_strides(t.shape());
  std::vector<std::size_t> out_shape, src_stride;
  for (std::size_t p : perm) {
    out_shape.push_back(t.dim(p));
    src_stride.push_back(strides[p]);
  }
  const std::vector<std::uint32_t> gather = permute_gather(out_shape, src_stride);
  std::vector<cplx> got(t.size());
  gather_walk(t.data(), gather, got.data());
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(ref[i], got[i]);
}

TEST(Tensor, RvalueReshapeMovesStorage) {
  std::mt19937_64 rng(15);
  Tensor t = random_tensor({4, 4}, rng);
  const cplx* data = t.data();
  const Tensor copy = t;
  const Tensor reshaped = std::move(t).reshape({2, 2, 2, 2});
  EXPECT_EQ(reshaped.data(), data);  // storage moved, not copied
  EXPECT_EQ(reshaped.shape(), (std::vector<std::size_t>{2, 2, 2, 2}));
  for (std::size_t i = 0; i < copy.size(); ++i) EXPECT_EQ(copy[i], reshaped[i]);
}

TEST(Tensor, RvalueIdentityPermuteMovesStorage) {
  std::mt19937_64 rng(16);
  Tensor t = random_tensor({2, 3, 4}, rng);
  const cplx* data = t.data();
  const Tensor moved = std::move(t).permute({0, 1, 2});
  EXPECT_EQ(moved.data(), data);

  // Non-identity permutations still copy (the walk cannot run in place).
  Tensor u = random_tensor({2, 3}, rng);
  const Tensor v = std::move(u).permute({1, 0});
  EXPECT_EQ(v.shape(), (std::vector<std::size_t>{3, 2}));
}

}  // namespace
}  // namespace noisim::tsr
