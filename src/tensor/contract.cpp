#include "tensor/contract.hpp"

#include <algorithm>

#include "tensor/kernels.hpp"

namespace noisim::tsr {

namespace {

struct Plan {
  std::vector<std::size_t> free_a;   // axes of A kept
  std::vector<std::size_t> free_b;   // axes of B kept
  std::size_t m = 1;                 // product of A free dims
  std::size_t k = 1;                 // product of contracted dims
  std::size_t n = 1;                 // product of B free dims
  std::vector<std::size_t> out_shape;
};

Plan make_plan(const Tensor& a, std::span<const std::size_t> axes_a, const Tensor& b,
               std::span<const std::size_t> axes_b) {
  la::detail::require(axes_a.size() == axes_b.size(), "contract: axis count mismatch");
  std::vector<bool> used_a(a.rank(), false), used_b(b.rank(), false);
  for (std::size_t i = 0; i < axes_a.size(); ++i) {
    const std::size_t ax = axes_a[i], bx = axes_b[i];
    la::detail::require(ax < a.rank() && bx < b.rank(), "contract: axis out of range");
    la::detail::require(!used_a[ax] && !used_b[bx], "contract: repeated axis");
    la::detail::require(a.dim(ax) == b.dim(bx), "contract: contracted dims differ");
    used_a[ax] = used_b[bx] = true;
  }

  Plan p;
  for (std::size_t i = 0; i < a.rank(); ++i)
    if (!used_a[i]) {
      p.free_a.push_back(i);
      p.m *= a.dim(i);
      p.out_shape.push_back(a.dim(i));
    }
  for (std::size_t i = 0; i < b.rank(); ++i)
    if (!used_b[i]) {
      p.free_b.push_back(i);
      p.n *= b.dim(i);
      p.out_shape.push_back(b.dim(i));
    }
  for (std::size_t ax : axes_a) p.k *= a.dim(ax);
  return p;
}

}  // namespace

namespace detail {

void matmul(const cplx* a, const cplx* b, cplx* out, std::size_t m, std::size_t k,
            std::size_t n) {
  // The reference definition: zero the output, then accumulate onto it.
  // Panel sizes: a kBlockK x kBlockJ panel of b (64 KiB of complex<double>)
  // stays cache-resident across the whole i loop. Blocks are visited in
  // ascending order, so each out[i, j] still accumulates over kk = 0..k-1
  // ascending -- bit-identical to the unblocked ikj loop.
  //
  // The inner loop works on raw doubles: (ar*br - ai*bi, ar*bi + ai*br) is
  // the exact operation std::complex multiplication performs on finite
  // values (identical results bit for bit), but stated this way the
  // compiler vectorizes it instead of emitting __muldc3 calls.
  constexpr std::size_t kBlockK = 64;
  constexpr std::size_t kBlockJ = 64;
  std::fill_n(out, m * n, cplx{0.0, 0.0});
  const double* pa = reinterpret_cast<const double*>(a);
  const double* pb = reinterpret_cast<const double*>(b);
  double* po = reinterpret_cast<double*>(out);
  for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::size_t k1 = std::min(k, k0 + kBlockK);
    for (std::size_t j0 = 0; j0 < n; j0 += kBlockJ) {
      const std::size_t j1 = std::min(n, j0 + kBlockJ);
      for (std::size_t i = 0; i < m; ++i) {
        double* orow = po + 2 * i * n;
        const double* arow = pa + 2 * i * k;
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const double ar = arow[2 * kk];
          const double ai = arow[2 * kk + 1];
          if (ar == 0.0 && ai == 0.0) continue;
          const double* brow = pb + 2 * kk * n;
          for (std::size_t j = j0; j < j1; ++j) {
            const double br = brow[2 * j];
            const double bi = brow[2 * j + 1];
            orow[2 * j] += ar * br - ai * bi;
            orow[2 * j + 1] += ar * bi + ai * br;
          }
        }
      }
    }
  }
}

namespace {

/// Fixed-k kernel, k = Kc known at compile time. For k <= 64 and
/// n <= 64 the blocked kernel above degenerates to a single (k0, j0) block,
/// i.e. the plain i/kk/j loop with the same zero-skip -- this kernel is that
/// loop with the kk trip count baked in, so results are bit-identical while
/// the compiler fully unrolls kk and vectorizes the contiguous j loop.
template <std::size_t Kc>
void matmul_small_k(const cplx* a, const cplx* b, cplx* out, std::size_t m, std::size_t k,
                    std::size_t n) {
  (void)k;  // == Kc by the shape ladder
  std::fill_n(out, m * n, cplx{0.0, 0.0});
  const double* pa = reinterpret_cast<const double*>(a);
  const double* pb = reinterpret_cast<const double*>(b);
  double* po = reinterpret_cast<double*>(out);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = pa + 2 * i * Kc;
    double* orow = po + 2 * i * n;
    for (std::size_t kk = 0; kk < Kc; ++kk) {
      const double ar = arow[2 * kk];
      const double ai = arow[2 * kk + 1];
      if (ar == 0.0 && ai == 0.0) continue;
      const double* brow = pb + 2 * kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        const double br = brow[2 * j];
        const double bi = brow[2 * j + 1];
        orow[2 * j] += ar * br - ai * bi;
        orow[2 * j + 1] += ar * bi + ai * br;
      }
    }
  }
}

/// Fixed k x n panel kernel for the circuit-network workhorse: a long
/// boundary tensor (any m) absorbing a 1- or 2-qubit gate (k, n in {2, 4}).
/// The whole b panel -- at most 4 x 4 complex -- is hoisted into locals
/// reused by every row of a, and the kk/j loops fully unroll, leaving one
/// streaming pass over a and out. Same single-block i/kk(zero-skip)/j
/// structure as the blocked kernel, so bits never change.
template <std::size_t Kc, std::size_t Nc>
void matmul_small_kn(const cplx* a, const cplx* b, cplx* out, std::size_t m, std::size_t k,
                     std::size_t n) {
  (void)k;  // == Kc by the shape ladder
  (void)n;  // == Nc by the shape ladder
  std::fill_n(out, m * Nc, cplx{0.0, 0.0});
  const double* pa = reinterpret_cast<const double*>(a);
  const double* pb = reinterpret_cast<const double*>(b);
  double* po = reinterpret_cast<double*>(out);
  double br[Kc * Nc], bi[Kc * Nc];
  for (std::size_t e = 0; e < Kc * Nc; ++e) {
    br[e] = pb[2 * e];
    bi[e] = pb[2 * e + 1];
  }
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = pa + 2 * i * Kc;
    double* orow = po + 2 * i * Nc;
    for (std::size_t kk = 0; kk < Kc; ++kk) {
      const double ar = arow[2 * kk];
      const double ai = arow[2 * kk + 1];
      if (ar == 0.0 && ai == 0.0) continue;
      for (std::size_t j = 0; j < Nc; ++j) {
        orow[2 * j] += ar * br[kk * Nc + j] - ai * bi[kk * Nc + j];
        orow[2 * j + 1] += ar * bi[kk * Nc + j] + ai * br[kk * Nc + j];
      }
    }
  }
}

}  // namespace

void matmul_gathered(const cplx* a, const std::uint32_t* a_idx, const cplx* b,
                     const std::uint32_t* b_idx, cplx* out, std::size_t m, std::size_t k,
                     std::size_t n) {
  // Plain i/kk/j traversal: blocking only reorders (i, j) visits, never the
  // per-element kk order, so this is bit-identical to the blocked kernel.
  std::fill_n(out, m * n, cplx{0.0, 0.0});
  const double* pa = reinterpret_cast<const double*>(a);
  const double* pb = reinterpret_cast<const double*>(b);
  double* po = reinterpret_cast<double*>(out);
  for (std::size_t i = 0; i < m; ++i) {
    double* orow = po + 2 * i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const std::size_t ae = a_idx ? a_idx[i * k + kk] : i * k + kk;
      const double ar = pa[2 * ae];
      const double ai = pa[2 * ae + 1];
      if (ar == 0.0 && ai == 0.0) continue;
      if (b_idx) {
        const std::uint32_t* bidx_row = b_idx + kk * n;
        for (std::size_t j = 0; j < n; ++j) {
          const std::size_t be = bidx_row[j];
          const double br = pb[2 * be];
          const double bi = pb[2 * be + 1];
          orow[2 * j] += ar * br - ai * bi;
          orow[2 * j + 1] += ar * bi + ai * br;
        }
      } else {
        const double* brow = pb + 2 * kk * n;
        for (std::size_t j = 0; j < n; ++j) {
          const double br = brow[2 * j];
          const double bi = brow[2 * j + 1];
          orow[2 * j] += ar * br - ai * bi;
          orow[2 * j + 1] += ar * bi + ai * br;
        }
      }
    }
  }
}

// --- state-vector kernels ---------------------------------------------------

namespace {

/// Complex coefficient split into doubles once per kernel call.
struct Coef {
  double r, i;
  explicit Coef(const cplx& c) : r(c.real()), i(c.imag()) {}
};

bool is_one(const cplx& c) { return c.real() == 1.0 && c.imag() == 0.0; }

/// out = c * x as (cr*xr - ci*xi, cr*xi + ci*xr).
inline void cmul(const Coef& c, const double* x, double* out) {
  out[0] = c.r * x[0] - c.i * x[1];
  out[1] = c.r * x[1] + c.i * x[0];
}

/// Multiply every element of the index block selected by `offset` (0 or a
/// combination of the operator's bits) by c, visiting the groups of a 1-
/// (lo == hi) or 2-qubit operator run by run.
void scale_block(cplx* v, std::size_t size, std::size_t hi, std::size_t lo, std::size_t offset,
                 const cplx& c) {
  const Coef k(c);
  double* p = reinterpret_cast<double*>(v);
  for (std::size_t b1 = 0; b1 < size; b1 += 2 * hi)
    for (std::size_t b2 = b1; b2 < b1 + hi; b2 += 2 * lo)
      for (std::size_t i = b2 + offset; i < b2 + offset + lo; ++i) {
        const double x[2] = {p[2 * i], p[2 * i + 1]};
        cmul(k, x, p + 2 * i);
      }
}

/// Row r of a 4x4 apply on x = (x0, x1, x2, x3) as 8 doubles:
/// ((m0*x0 + m1*x1) + m2*x2) + m3*x3.
inline void row4(const Coef* m, const double* x, double* out) {
  double t[2];
  cmul(m[0], x, out);
  for (std::size_t c = 1; c < 4; ++c) {
    cmul(m[c], x + 2 * c, t);
    out[0] += t[0];
    out[1] += t[1];
  }
}

/// 2x2 apply; Scaled multiplies both outputs by `scale` (the fused Kraus
/// renormalization), which plain gates skip.
template <bool Scaled>
void dense1(cplx* v, std::size_t size, std::size_t bit, const cplx* m, double scale) {
  const Coef m00(m[0]), m01(m[1]), m10(m[2]), m11(m[3]);
  double* p = reinterpret_cast<double*>(v);
  for (std::size_t base = 0; base < size; base += 2 * bit)
    for (std::size_t i = base; i < base + bit; ++i) {
      double* a = p + 2 * i;
      double* b = p + 2 * (i + bit);
      const double x0[2] = {a[0], a[1]}, x1[2] = {b[0], b[1]};
      double t0[2], t1[2], u0[2], u1[2];
      cmul(m00, x0, t0);
      cmul(m01, x1, t1);
      cmul(m10, x0, u0);
      cmul(m11, x1, u1);
      a[0] = t0[0] + t1[0];
      a[1] = t0[1] + t1[1];
      b[0] = u0[0] + u1[0];
      b[1] = u0[1] + u1[1];
      if constexpr (Scaled) {
        a[0] *= scale;
        a[1] *= scale;
        b[0] *= scale;
        b[1] *= scale;
      }
    }
}

void dense2(const cplx* src, cplx* dst, std::size_t size, std::size_t bit_a, std::size_t bit_b,
            const cplx* m) {
  const Coef k[16] = {Coef(m[0]),  Coef(m[1]),  Coef(m[2]),  Coef(m[3]),
                      Coef(m[4]),  Coef(m[5]),  Coef(m[6]),  Coef(m[7]),
                      Coef(m[8]),  Coef(m[9]),  Coef(m[10]), Coef(m[11]),
                      Coef(m[12]), Coef(m[13]), Coef(m[14]), Coef(m[15])};
  const std::size_t hi = std::max(bit_a, bit_b), lo = std::min(bit_a, bit_b);
  const std::size_t off[4] = {0, bit_b, bit_a, bit_a | bit_b};
  const double* ps = reinterpret_cast<const double*>(src);
  double* pd = reinterpret_cast<double*>(dst);
  for (std::size_t b1 = 0; b1 < size; b1 += 2 * hi)
    for (std::size_t b2 = b1; b2 < b1 + hi; b2 += 2 * lo)
      for (std::size_t i = b2; i < b2 + lo; ++i) {
        double x[8];
        for (std::size_t t = 0; t < 4; ++t) {
          x[2 * t] = ps[2 * (i + off[t])];
          x[2 * t + 1] = ps[2 * (i + off[t]) + 1];
        }
        for (std::size_t r = 0; r < 4; ++r) row4(k + 4 * r, x, pd + 2 * (i + off[r]));
      }
}

}  // namespace

void sv_dense1(cplx* v, std::size_t size, std::size_t bit, const cplx* m) {
  dense1<false>(v, size, bit, m, 1.0);
}

void sv_diag1(cplx* v, std::size_t size, std::size_t bit, const cplx* d) {
  for (std::size_t t = 0; t < 2; ++t)
    if (!is_one(d[t])) scale_block(v, size, bit, bit, t * bit, d[t]);
}

void sv_dense2(cplx* v, std::size_t size, std::size_t bit_a, std::size_t bit_b, const cplx* m) {
  dense2(v, v, size, bit_a, bit_b, m);
}

void sv_diag2(cplx* v, std::size_t size, std::size_t bit_a, std::size_t bit_b, const cplx* d) {
  const std::size_t hi = std::max(bit_a, bit_b), lo = std::min(bit_a, bit_b);
  const std::size_t off[4] = {0, bit_b, bit_a, bit_a | bit_b};
  for (std::size_t t = 0; t < 4; ++t)
    if (!is_one(d[t])) scale_block(v, size, hi, lo, off[t], d[t]);
}

void sv_cx(cplx* v, std::size_t size, std::size_t bit_a, std::size_t bit_b) {
  const std::size_t hi = std::max(bit_a, bit_b), lo = std::min(bit_a, bit_b);
  for (std::size_t b1 = 0; b1 < size; b1 += 2 * hi)
    for (std::size_t b2 = b1; b2 < b1 + hi; b2 += 2 * lo)
      std::swap_ranges(v + b2 + bit_a, v + b2 + bit_a + lo, v + b2 + (bit_a | bit_b));
}

void sv_kraus1(cplx* v, std::size_t size, std::size_t bit, const cplx* m, double scale) {
  dense1<true>(v, size, bit, m, scale);
}

void sv_dense2_into(const cplx* src, cplx* dst, std::size_t size, std::size_t bit_a,
                    std::size_t bit_b, const cplx* m) {
  dense2(src, dst, size, bit_a, bit_b, m);
}

/// Scalar reference table: the kernels every other tier is bit-checked
/// against, one matmul kernel per MatmulShape in the enum's order. Always
/// present.
const KernelTable* scalar_table() {
  static const KernelTable table{
      {&matmul_small_kn<2, 2>, &matmul_small_kn<2, 4>, &matmul_small_kn<4, 2>,
       &matmul_small_kn<4, 4>, &matmul_small_kn<8, 2>, &matmul_small_kn<8, 4>,
       &matmul_small_kn<16, 2>, &matmul_small_kn<16, 4>, &matmul_small_k<2>, &matmul_small_k<4>,
       &matmul},
      &matmul_gathered, &sv_dense1, &sv_diag1, &sv_dense2, &sv_diag2, &sv_cx, &sv_kraus1,
      &sv_dense2_into, KernelTier::Scalar, "scalar"};
  return &table;
}

}  // namespace detail

std::size_t contract_result_size(const Tensor& a, std::span<const std::size_t> axes_a,
                                 const Tensor& b, std::span<const std::size_t> axes_b) {
  const Plan p = make_plan(a, axes_a, b, axes_b);
  return p.m * p.n;
}

Tensor contract(const Tensor& a, std::span<const std::size_t> axes_a, const Tensor& b,
                std::span<const std::size_t> axes_b) {
  const Plan p = make_plan(a, axes_a, b, axes_b);

  // Bring A to [free..., contracted...] and B to [contracted..., free...],
  // then the contraction is a (m x k) * (k x n) matrix product. Operands
  // that are already in that order (e.g. matrix-shaped tensors contracted
  // along their natural axes) are used in place without a permuted copy.
  std::vector<std::size_t> perm_a = p.free_a;
  perm_a.insert(perm_a.end(), axes_a.begin(), axes_a.end());
  std::vector<std::size_t> perm_b(axes_b.begin(), axes_b.end());
  perm_b.insert(perm_b.end(), p.free_b.begin(), p.free_b.end());

  Tensor at_store, bt_store;
  const cplx* pa = a.data();
  if (!is_identity_permutation(perm_a)) {
    at_store = a.permute(perm_a);
    pa = at_store.data();
  }
  const cplx* pb = b.data();
  if (!is_identity_permutation(perm_b)) {
    bt_store = b.permute(perm_b);
    pb = bt_store.data();
  }

  Tensor out(p.out_shape);
  active_kernels().matmul[matmul_shape(p.m, p.k, p.n)](pa, pb, out.data(), p.m, p.k, p.n);
  return out;
}

}  // namespace noisim::tsr
