// AVX-512F kernel tier. Compiled with -mavx512f -ffp-contract=off (see
// CMakeLists.txt); see kernels_avx2.cpp for the lane arithmetic contract.
//
// One 512-bit register holds FOUR complex elements. AVX-512 has no addsub
// instruction, so the even-lane subtraction is expressed as an XOR of the
// real lanes' sign bits followed by an add: a + (-b) is IEEE-identical to
// a - b bit for bit, so the sequence per output element still matches the
// scalar kernel exactly. Remainders cascade through the 256-bit pair and
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

namespace noisim::tsr::detail {
namespace {

inline void axpy_one(double ar, double ai, const double* b, double* o) {
  const __m128d vb = _mm_loadu_pd(b);
  const __m128d vs = _mm_shuffle_pd(vb, vb, 0b01);
  const __m128d t1 = _mm_mul_pd(_mm_set1_pd(ar), vb);
  const __m128d t2 = _mm_mul_pd(_mm_set1_pd(ai), vs);
  const __m128d vo = _mm_loadu_pd(o);
  _mm_storeu_pd(o, _mm_add_pd(vo, _mm_addsub_pd(t1, t2)));
}

inline void axpy_two(double ar, double ai, const double* b, double* o) {
  const __m256d vb = _mm256_loadu_pd(b);
  const __m256d vs = _mm256_permute_pd(vb, 0b0101);
  const __m256d t1 = _mm256_mul_pd(_mm256_set1_pd(ar), vb);
  const __m256d t2 = _mm256_mul_pd(_mm256_set1_pd(ai), vs);
  const __m256d vo = _mm256_loadu_pd(o);
  _mm256_storeu_pd(o, _mm256_add_pd(vo, _mm256_addsub_pd(t1, t2)));
}

/// Sign mask over the real (even) lanes: XORing t2 with it negates exactly
/// the lanes the scalar kernel subtracts, turning add into addsub.
inline __m512d negate_even(__m512d v) {
  const __m512d mask =
      _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);  // element 7 ... element 0
  return _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(v), _mm512_castpd_si512(mask)));
}

inline void axpy_tail(double ar, double ai, const double* b, double* o, std::size_t n) {
  std::size_t j = 0;
  if (j + 2 <= n) {
    axpy_two(ar, ai, b, o);
    j += 2;
  }
  if (j < n) axpy_one(ar, ai, b + 2 * j, o + 2 * j);
}

inline void axpy(double ar, double ai, const double* b, double* o, std::size_t n) {
  const __m512d var = _mm512_set1_pd(ar);
  const __m512d vai = _mm512_set1_pd(ai);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m512d vb = _mm512_loadu_pd(b + 2 * j);
    const __m512d vs = _mm512_permute_pd(vb, 0x55);  // swap re/im per pair
    const __m512d t1 = _mm512_mul_pd(var, vb);
    const __m512d t2 = _mm512_mul_pd(vai, vs);
    const __m512d vo = _mm512_loadu_pd(o + 2 * j);
    _mm512_storeu_pd(o + 2 * j, _mm512_add_pd(vo, _mm512_add_pd(t1, negate_even(t2))));
  }
  axpy_tail(ar, ai, b + 2 * j, o + 2 * j, n - j);
}

inline void axpy_gathered(double ar, double ai, const double* pb, const std::uint32_t* bidx,
                          double* o, std::size_t n) {
  const __m512d var = _mm512_set1_pd(ar);
  const __m512d vai = _mm512_set1_pd(ai);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d lo = _mm256_set_m128d(_mm_loadu_pd(pb + 2 * bidx[j + 1]),
                                        _mm_loadu_pd(pb + 2 * bidx[j]));
    const __m256d hi = _mm256_set_m128d(_mm_loadu_pd(pb + 2 * bidx[j + 3]),
                                        _mm_loadu_pd(pb + 2 * bidx[j + 2]));
    const __m512d vb = _mm512_insertf64x4(_mm512_castpd256_pd512(lo), hi, 1);
    const __m512d vs = _mm512_permute_pd(vb, 0x55);
    const __m512d t1 = _mm512_mul_pd(var, vb);
    const __m512d t2 = _mm512_mul_pd(vai, vs);
    const __m512d vo = _mm512_loadu_pd(o + 2 * j);
    _mm512_storeu_pd(o + 2 * j, _mm512_add_pd(vo, _mm512_add_pd(t1, negate_even(t2))));
  }
  for (; j < n; ++j) axpy_one(ar, ai, pb + 2 * bidx[j], o + 2 * j);
}

/// State-vector widths (see kernels_simd_body.inc): four, two and one
/// complex elements per 512-, 256- and 128-bit register.
struct W512 {
  using R = __m512d;
  static constexpr std::size_t kLanes = 4;
  static R load(const cplx* p) { return _mm512_loadu_pd(reinterpret_cast<const double*>(p)); }
  static void store(cplx* p, R x) { _mm512_storeu_pd(reinterpret_cast<double*>(p), x); }
  static R bcast(double x) { return _mm512_set1_pd(x); }
  static R add(R a, R b) { return _mm512_add_pd(a, b); }
  static R mul(R a, R b) { return _mm512_mul_pd(a, b); }
  static R swap(R x) { return _mm512_permute_pd(x, 0x55); }
  static R cmul(R cr, R ci, R x) {
    return _mm512_add_pd(_mm512_mul_pd(cr, x), negate_even(_mm512_mul_pd(ci, swap(x))));
  }
};

struct W256 {
  using R = __m256d;
  static constexpr std::size_t kLanes = 2;
  static R load(const cplx* p) { return _mm256_loadu_pd(reinterpret_cast<const double*>(p)); }
  static void store(cplx* p, R x) { _mm256_storeu_pd(reinterpret_cast<double*>(p), x); }
  static R bcast(double x) { return _mm256_set1_pd(x); }
  static R add(R a, R b) { return _mm256_add_pd(a, b); }
  static R mul(R a, R b) { return _mm256_mul_pd(a, b); }
  static R swap(R x) { return _mm256_permute_pd(x, 0b0101); }
  static R cmul(R cr, R ci, R x) {
    return _mm256_addsub_pd(_mm256_mul_pd(cr, x), _mm256_mul_pd(ci, swap(x)));
  }
};

struct W128 {
  using R = __m128d;
  static constexpr std::size_t kLanes = 1;
  static R load(const cplx* p) { return _mm_loadu_pd(reinterpret_cast<const double*>(p)); }
  static void store(cplx* p, R x) { _mm_storeu_pd(reinterpret_cast<double*>(p), x); }
  static R bcast(double x) { return _mm_set1_pd(x); }
  static R add(R a, R b) { return _mm_add_pd(a, b); }
  static R mul(R a, R b) { return _mm_mul_pd(a, b); }
  static R swap(R x) { return _mm_shuffle_pd(x, x, 0b01); }
  static R cmul(R cr, R ci, R x) {
    return _mm_addsub_pd(_mm_mul_pd(cr, x), _mm_mul_pd(ci, swap(x)));
  }
};

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
  static const KernelTable table{&simd_matmul_accumulate,
                                 &simd_select_matmul,
                                 &simd_matmul_gathered,
                                 &simd_matmul_batched,
                                 &simd_sv_dense1,
                                 &simd_sv_diag1,
                                 &simd_sv_dense2,
                                 &simd_sv_diag2,
                                 &simd_sv_cx,
                                 &simd_sv_kraus1,
                                 &simd_sv_dense2_into,
                                 KernelTier::Avx512,
                                 "avx512"};
  return &table;
}

}  // namespace noisim::tsr::detail

#else  // !__AVX512F__

namespace noisim::tsr::detail {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace noisim::tsr::detail

#endif
