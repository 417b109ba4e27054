// AVX-512F kernel tier. Compiled with -mavx512f -ffp-contract=off (see
// CMakeLists.txt); see kernels_avx2.cpp for the lane arithmetic contract.
//
// One 512-bit register holds FOUR complex elements. AVX-512 has no addsub
// instruction, so the even-lane subtraction is expressed as an XOR of the
// sign bits of the swapped operand's real lanes, then mul and add:
// ai*(-b_im) is -(ai*b_im) exactly (IEEE rounding is sign-symmetric) and
// a + (-b) is a - b bit for bit, so the sequence per output element still
// matches the scalar kernel exactly -- and the negation runs once per
// operand register, not once per product. Remainders cascade through the 256-bit pair and
// 128-bit single-element paths -- identical lane arithmetic at every
// width, so results never depend on where the vector/tail boundary falls.

#include "tensor/kernels.hpp"

#if defined(__AVX512F__)

// GCC 12's -Wmaybe-uninitialized fires inside avx512fintrin.h itself when
// masked intrinsics inline at -O3 (the undefined-source idiom of
// _mm512_maskz_*); scoped to the header so our own code stays checked.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <algorithm>
#include <type_traits>

namespace noisim::tsr::detail {
namespace {

/// Sign mask over the real (even) lanes: XORing the swapped operand with it
/// negates exactly the products the scalar kernel subtracts, turning add
/// into addsub.
inline __m512d negate_even(__m512d v) {
  const __m512d mask =
      _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);  // element 7 ... element 0
  return _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(v), _mm512_castpd_si512(mask)));
}

/// Register widths (see kernels_simd_body.inc): four, two and one complex
/// elements per 512-, 256- and 128-bit register.
struct W512 {
  using R = __m512d;
  static constexpr std::size_t kLanes = 4;
  static R load(const cplx* p) { return _mm512_loadu_pd(reinterpret_cast<const double*>(p)); }
  static void store(cplx* p, R x) { _mm512_storeu_pd(reinterpret_cast<double*>(p), x); }
  static R bcast(double x) { return _mm512_set1_pd(x); }
  static R zero() { return _mm512_setzero_pd(); }
  static R add(R a, R b) { return _mm512_add_pd(a, b); }
  static R mul(R a, R b) { return _mm512_mul_pd(a, b); }
  static R cross(R x) { return negate_even(_mm512_permute_pd(x, 0x55)); }
  static R combine(R a, R b) { return _mm512_add_pd(a, b); }
  static R gather(const cplx* p, const std::uint32_t* idx) {
    const double* d = reinterpret_cast<const double*>(p);
    const __m256d lo = _mm256_set_m128d(_mm_loadu_pd(d + 2 * idx[1]), _mm_loadu_pd(d + 2 * idx[0]));
    const __m256d hi = _mm256_set_m128d(_mm_loadu_pd(d + 2 * idx[3]), _mm_loadu_pd(d + 2 * idx[2]));
    return _mm512_insertf64x4(_mm512_castpd256_pd512(lo), hi, 1);
  }
};

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

/// Matmul column ladder: tiles of four 512-bit registers (16 complex
/// columns; with four rows, 16 accumulators + 10 operand registers of the
/// 32), then up to three 512-bit registers, one 256-bit and one 128-bit
/// register for the remainder.
template <class F>
[[gnu::always_inline]] inline void for_col_tiles(std::size_t n, F&& f) {
  using Four = std::integral_constant<std::size_t, 4>;
  using Three = std::integral_constant<std::size_t, 3>;
  using Two = std::integral_constant<std::size_t, 2>;
  using One = std::integral_constant<std::size_t, 1>;
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) f(W512{}, Four{}, j);
  switch ((n - j) / 4) {
    case 3:
      f(W512{}, Three{}, j);
      j += 12;
      break;
    case 2:
      f(W512{}, Two{}, j);
      j += 8;
      break;
    case 1:
      f(W512{}, One{}, j);
      j += 4;
      break;
    default:
      break;
  }
  if (n - j >= 2) {
    f(W256{}, One{}, j);
    j += 2;
  }
  if (j < n) f(W128{}, One{}, j);
}

template <class F>
inline void with_width(std::size_t run, F&& f) {
  if (run >= W512::kLanes)
    f(W512{});
  else if (run >= W256::kLanes)
    f(W256{});
  else
    f(W128{});
}

#include "tensor/kernels_simd_body.inc"

}  // namespace

const KernelTable* avx512_table() {
  static const KernelTable table{
      kSimdMatmul, &simd_matmul_gathered, &simd_sv_dense1, &simd_sv_diag1, &simd_sv_dense2,
      &simd_sv_diag2, &simd_sv_cx, &simd_sv_kraus1, &simd_sv_dense2_into, KernelTier::Avx512,
      "avx512"};
  return &table;
}

}  // namespace noisim::tsr::detail

#else  // !__AVX512F__

namespace noisim::tsr::detail {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace noisim::tsr::detail

#endif
