// AVX2 kernel tier. Compiled with -mavx2 -ffp-contract=off (see
// CMakeLists.txt): the contract-off flag guarantees the compiler never
// fuses the separate mul/add intrinsics below into FMA, which would break
// bit-identity with the scalar tier.
//
// Layout: complex<double> rows are interleaved (re, im) doubles, so one
// 256-bit register holds TWO complex elements. The complex axpy
//   o += (ar + i*ai) * b
// per lane-pair is t1 = ar*b, t2 = ai*swap(b), o += addsub(t1, t2) --
// addsub subtracts in the even (real) lanes and adds in the odd
// (imaginary) lanes, which is exactly the scalar sequence
//   o_re += ar*b_re - ai*b_im;  o_im += ar*b_im + ai*b_re
// as individual IEEE operations. Remainders run the identical arithmetic
// on one 128-bit complex element, so every output element sees the same
// operation sequence as the scalar kernel regardless of n.

#include "tensor/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace noisim::tsr::detail {
namespace {

/// One complex element through SSE registers (the vector remainder): same
/// mul/mul/addsub/add sequence as the 256-bit path, one lane-pair wide.
inline void axpy_one(double ar, double ai, const double* b, double* o) {
  const __m128d vb = _mm_loadu_pd(b);
  const __m128d vs = _mm_shuffle_pd(vb, vb, 0b01);
  const __m128d t1 = _mm_mul_pd(_mm_set1_pd(ar), vb);
  const __m128d t2 = _mm_mul_pd(_mm_set1_pd(ai), vs);
  const __m128d vo = _mm_loadu_pd(o);
  _mm_storeu_pd(o, _mm_add_pd(vo, _mm_addsub_pd(t1, t2)));
}

inline void axpy(double ar, double ai, const double* b, double* o, std::size_t n) {
  const __m256d var = _mm256_set1_pd(ar);
  const __m256d vai = _mm256_set1_pd(ai);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const __m256d vb = _mm256_loadu_pd(b + 2 * j);
    const __m256d vs = _mm256_permute_pd(vb, 0b0101);  // swap re/im per pair
    const __m256d t1 = _mm256_mul_pd(var, vb);
    const __m256d t2 = _mm256_mul_pd(vai, vs);
    const __m256d vo = _mm256_loadu_pd(o + 2 * j);
    _mm256_storeu_pd(o + 2 * j, _mm256_add_pd(vo, _mm256_addsub_pd(t1, t2)));
  }
  if (j < n) axpy_one(ar, ai, b + 2 * j, o + 2 * j);
}

inline void axpy_gathered(double ar, double ai, const double* pb, const std::uint32_t* bidx,
                          double* o, std::size_t n) {
  const __m256d var = _mm256_set1_pd(ar);
  const __m256d vai = _mm256_set1_pd(ai);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const __m256d vb = _mm256_set_m128d(_mm_loadu_pd(pb + 2 * bidx[j + 1]),
                                        _mm_loadu_pd(pb + 2 * bidx[j]));
    const __m256d vs = _mm256_permute_pd(vb, 0b0101);
    const __m256d t1 = _mm256_mul_pd(var, vb);
    const __m256d t2 = _mm256_mul_pd(vai, vs);
    const __m256d vo = _mm256_loadu_pd(o + 2 * j);
    _mm256_storeu_pd(o + 2 * j, _mm256_add_pd(vo, _mm256_addsub_pd(t1, t2)));
  }
  if (j < n) axpy_one(ar, ai, pb + 2 * bidx[j], o + 2 * j);
}

/// State-vector widths (see kernels_simd_body.inc): two complex elements
/// per 256-bit register, one per 128-bit register.
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
  if (run >= W256::kLanes)
    f(W256{});
  else
    f(W128{});
}

#include "tensor/kernels_simd_body.inc"

}  // namespace

const KernelTable* avx2_table() {
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
                                 KernelTier::Avx2,
                                 "avx2"};
  return &table;
}

}  // namespace noisim::tsr::detail

#else  // !__AVX2__ -- TU built without the flag (non-x86 target)

namespace noisim::tsr::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace noisim::tsr::detail

#endif
