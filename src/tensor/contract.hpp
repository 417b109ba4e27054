#pragma once
// Pairwise tensor contraction (einsum over explicit axis pairs).
//
// contract(A, {a1, a2}, B, {b1, b2}) sums over A-axis a1 with B-axis b1 and
// A-axis a2 with B-axis b2 simultaneously; the result carries A's free axes
// (in order) followed by B's free axes. This is the single primitive the
// tensor-network contractor is built on.

#include <array>
#include <span>

#include "tensor/tensor.hpp"

namespace noisim::tsr {

/// Number of elements the contraction result will hold; callers use this to
/// enforce memory budgets *before* allocating.
std::size_t contract_result_size(const Tensor& a, std::span<const std::size_t> axes_a,
                                 const Tensor& b, std::span<const std::size_t> axes_b);

Tensor contract(const Tensor& a, std::span<const std::size_t> axes_a, const Tensor& b,
                std::span<const std::size_t> axes_b);

inline Tensor contract(const Tensor& a, std::initializer_list<std::size_t> axes_a,
                       const Tensor& b, std::initializer_list<std::size_t> axes_b) {
  return contract(a, std::span<const std::size_t>(axes_a.begin(), axes_a.size()), b,
                  std::span<const std::size_t>(axes_b.begin(), axes_b.size()));
}

/// Rungs of the matmul shape ladder, one kernel of a tier's
/// KernelTable::matmul each: k x n panels (any m) and fixed-k kernels for
/// m*n <= 64 -- dim-2 wire bundles against rank-3/4 gate tensors, the
/// dominant small shapes of circuit networks -- and the generic kernel.
enum MatmulShape : std::uint8_t {
  kMatmulK2N2, kMatmulK2N4, kMatmulK4N2, kMatmulK4N4,
  kMatmulK8N2, kMatmulK8N4, kMatmulK16N2, kMatmulK16N4,  // k x n panels
  kMatmulK2, kMatmulK4,                                  // fixed k
  kMatmulGeneric
};
inline constexpr std::size_t kNumMatmulShapes = kMatmulGeneric + 1;

/// The one shape ladder. The plan compiler stores each step's rung, so
/// executors only index the table with it; tsr::contract asks per call.
/// Every rung writes the generic kernel's bits: the rung moves time only.
/// (Fixed shapes stay inside one cache block of the generic kernel.)
constexpr MatmulShape matmul_shape(std::size_t m, std::size_t k, std::size_t n) {
  if (k == 2) {
    if (n == 2) return kMatmulK2N2;
    if (n == 4) return kMatmulK2N4;
    if (m * n <= 64) return kMatmulK2;
  }
  if (k == 4) {
    if (n == 2) return kMatmulK4N2;
    if (n == 4) return kMatmulK4N4;
    if (m * n <= 64) return kMatmulK4;
  }
  if (k == 8) {
    if (n == 2) return kMatmulK8N2;
    if (n == 4) return kMatmulK8N4;
  }
  if (k == 16) {
    if (n == 2) return kMatmulK16N2;
    if (n == 4) return kMatmulK16N4;
  }
  return kMatmulGeneric;
}

namespace detail {

/// The scalar tier's generic kernel, out[m x n] = a[m x k] * b[k x n], and
/// the reference every matmul kernel is checked against. Every element of
/// `out` is written, so its prior contents never matter (an uninitialized
/// arena segment is a valid destination). Per output element the value is
/// exactly that of the naive fill-then-accumulate loop: start at +0.0,
/// then add a(i, kk) * b(kk, j) for kk = 0..k-1 ascending, skipping
/// exact-zero a(i, kk) -- cache blocking and register tiling never reorder
/// that sum, and a row whose a entries are all zero stays +0.0. It is the
/// scalar tier's kMatmulGeneric entry; the tier's fixed-shape entries are
/// this loop with k (and n) baked in, their inner j loop on raw contiguous
/// doubles that the compiler turns into SIMD mul/add (never FMA), so every
/// entry writes these bits.
void matmul(const cplx* a, const cplx* b, cplx* out, std::size_t m, std::size_t k,
            std::size_t n);

/// Signature shared by the generic kernel and the fixed-shape kernels.
using MatmulFn = void (*)(const cplx* a, const cplx* b, cplx* out, std::size_t m, std::size_t k,
                          std::size_t n);

/// One kernel per MatmulShape: entry s serves every (m, k, n) that
/// matmul_shape maps to s.
using MatmulKernels = std::array<MatmulFn, kNumMatmulShapes>;

/// Permutation-fused variant: reads operand elements through optional
/// gather tables instead of requiring pre-permuted copies -- a_idx[i*k+kk]
/// (when non-null) is the flat offset of logical element (i, kk) in `a`,
/// b_idx[kk*n+j] likewise for `b`. Writes every output element with
/// matmul's value, so results are bit-identical to permuting into scratch
/// and calling matmul; what changes is that each operand is read once in
/// place instead of copied, written, and re-read. The batched executor uses
/// this for its per-term (sequential) pass, where operands change every
/// term and permuted copies would be pure overhead.
void matmul_gathered(const cplx* a, const std::uint32_t* a_idx, const cplx* b,
                     const std::uint32_t* b_idx, cplx* out, std::size_t m, std::size_t k,
                     std::size_t n);

// --- state-vector kernels ---------------------------------------------------
//
// In-place updates of a flat amplitude buffer v[0..size) (size a power of
// two) by a 1- or 2-qubit operator acting on the index bit(s) `bit`
// (`bit_a`, `bit_b`: single-bit masks; bit_a indexes the high-order bit of
// the 4x4 matrix). Matrices are row-major (2x2 = 4 entries, 4x4 = 16);
// diagonal variants take just the diagonal. Every amplitude sees the
// operation sequence of the textbook loop
//   y_r = m(r,0)*x_0 + m(r,1)*x_1 (+ m(r,2)*x_2 + m(r,3)*x_3),
// each complex product as (mr*xr - mi*xi, mr*xi + mi*xr) and the row sum
// left to right, so the branchy full-range loop, the pair-stride loops
// below and every SIMD tier agree bit for bit on finite inputs. Shortcuts
// the exact-zero pattern allows (a dropped 0*x term, an untouched block
// whose diagonal entry is exactly 1) change at most the sign of an exact
// zero -- never a nonzero value, and so never a norm or a probability.

/// 2x2 matrix m on bit.
void sv_dense1(cplx* v, std::size_t size, std::size_t bit, const cplx* m);
/// diag(d[0], d[1]) on bit; blocks whose entry is exactly 1 are skipped.
void sv_diag1(cplx* v, std::size_t size, std::size_t bit, const cplx* d);
/// 4x4 matrix m on (bit_a, bit_b).
void sv_dense2(cplx* v, std::size_t size, std::size_t bit_a, std::size_t bit_b, const cplx* m);
/// diag(d[0..4)) on (bit_a, bit_b); blocks whose entry is exactly 1 are
/// skipped (a CZ touches one quarter of the state).
void sv_diag2(cplx* v, std::size_t size, std::size_t bit_a, std::size_t bit_b, const cplx* d);
/// The CX permutation: swap the |10> and |11> blocks of (bit_a, bit_b).
void sv_cx(cplx* v, std::size_t size, std::size_t bit_a, std::size_t bit_b);
/// sv_dense1 followed by a real rescale of both outputs, fused into one
/// pass: y_r = (m(r,0)*x_0 + m(r,1)*x_1) * scale, componentwise -- a
/// second sv_dense1 pass with diag(scale, scale), up to the zero sign.
void sv_kraus1(cplx* v, std::size_t size, std::size_t bit, const cplx* m, double scale);
/// Out-of-place sv_dense2: dst = m applied to src (src is not modified).
void sv_dense2_into(const cplx* src, cplx* dst, std::size_t size, std::size_t bit_a,
                    std::size_t bit_b, const cplx* m);

}  // namespace detail

}  // namespace noisim::tsr
