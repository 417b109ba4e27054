// AVX2 kernel tier. Compiled with -mavx2 -ffp-contract=off (see
// CMakeLists.txt): the contract-off flag guarantees the compiler never
// fuses the separate mul/add intrinsics below into FMA, which would break
// bit-identity with the scalar tier.
//
// Layout: complex<double> rows are interleaved (re, im) doubles, so one
// 256-bit register holds TWO complex elements. The complex product
//   t = (ar + i*ai) * b
// per lane-pair is addsub(ar*b, ai*swap(b)) -- addsub subtracts in the even
// (real) lanes and adds in the odd (imaginary) lanes, which is exactly the
// scalar sequence
//   t_re = ar*b_re - ai*b_im;  t_im = ar*b_im + ai*b_re
// as individual IEEE operations. Remainders run the identical arithmetic
// on one 128-bit complex element, so every output element sees the same
// operation sequence as the scalar kernel regardless of n.

#include "tensor/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <type_traits>

namespace noisim::tsr::detail {
namespace {

/// Register widths (see kernels_simd_body.inc): two complex elements per
/// 256-bit register, one per 128-bit register.
struct W256 {
  using R = __m256d;
  static constexpr std::size_t kLanes = 2;
  static R load(const cplx* p) { return _mm256_loadu_pd(reinterpret_cast<const double*>(p)); }
  static void store(cplx* p, R x) { _mm256_storeu_pd(reinterpret_cast<double*>(p), x); }
  static R bcast(double x) { return _mm256_set1_pd(x); }
  static R zero() { return _mm256_setzero_pd(); }
  static R add(R a, R b) { return _mm256_add_pd(a, b); }
  static R mul(R a, R b) { return _mm256_mul_pd(a, b); }
  static R cross(R x) { return _mm256_permute_pd(x, 0b0101); }
  static R combine(R a, R b) { return _mm256_addsub_pd(a, b); }
  static R gather(const cplx* p, const std::uint32_t* idx) {
    return _mm256_set_m128d(_mm_loadu_pd(reinterpret_cast<const double*>(p + idx[1])),
                            _mm_loadu_pd(reinterpret_cast<const double*>(p + idx[0])));
  }
};

struct W128 {
  using R = __m128d;
  static constexpr std::size_t kLanes = 1;
  static R load(const cplx* p) { return _mm_loadu_pd(reinterpret_cast<const double*>(p)); }
  static void store(cplx* p, R x) { _mm_storeu_pd(reinterpret_cast<double*>(p), x); }
  static R bcast(double x) { return _mm_set1_pd(x); }
  static R zero() { return _mm_setzero_pd(); }
  static R add(R a, R b) { return _mm_add_pd(a, b); }
  static R mul(R a, R b) { return _mm_mul_pd(a, b); }
  static R cross(R x) { return _mm_shuffle_pd(x, x, 0b01); }
  static R combine(R a, R b) { return _mm_addsub_pd(a, b); }
  static R gather(const cplx* p, const std::uint32_t* idx) { return load(p + idx[0]); }
};

/// Matmul column ladder: tiles of two 256-bit registers (four complex
/// columns; with four rows, 8 accumulators + 6 operand registers of the
/// 16), then one 256-bit and one 128-bit register for the remainder.
template <class F>
[[gnu::always_inline]] inline void for_col_tiles(std::size_t n, F&& f) {
  using Two = std::integral_constant<std::size_t, 2>;
  using One = std::integral_constant<std::size_t, 1>;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) f(W256{}, Two{}, j);
  if (n - j >= 2) {
    f(W256{}, One{}, j);
    j += 2;
  }
  if (j < n) f(W128{}, One{}, j);
}

template <class F>
inline void with_width(std::size_t run, F&& f) {
  if (run >= W256::kLanes)
    f(W256{});
  else
    f(W128{});
}

#include "tensor/kernels_simd_body.inc"

}  // namespace

const KernelTable* avx2_table() {
  static const KernelTable table{
      kSimdMatmul, &simd_matmul_gathered, &simd_sv_dense1, &simd_sv_diag1, &simd_sv_dense2,
      &simd_sv_diag2, &simd_sv_cx, &simd_sv_kraus1, &simd_sv_dense2_into, KernelTier::Avx2,
      "avx2"};
  return &table;
}

}  // namespace noisim::tsr::detail

#else  // !__AVX2__ -- TU built without the flag (non-x86 target)

namespace noisim::tsr::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace noisim::tsr::detail

#endif
