#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace noisim::tsr {

namespace {

std::size_t shape_size(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) {
    la::detail::require(d > 0, "Tensor: zero-dimension axis");
    n *= d;
  }
  return n;
}

/// Bound on a compiled walk's outer axes (each has extent >= 2).
constexpr std::size_t kMaxWalkAxes = 64;

/// Call run(source offset, flat destination offset) once per inner run of
/// the walk, in row-major order: the last outer axis is a plain loop, the
/// ones before it an odometer that carries once per pass over that axis.
template <class Run>
void for_each_run(const PermuteWalk& walk, Run&& run) {
  const std::size_t rank = walk.outer.size();
  if (rank == 0) {
    run(std::size_t{0}, std::size_t{0});
    return;
  }
  const PermuteWalk::Axis* axes = walk.outer.data();
  const std::size_t last_len = axes[rank - 1].extent, last_stride = axes[rank - 1].stride;
  const std::size_t run_len = walk.inner_len;
  std::size_t idx[kMaxWalkAxes];
  std::fill_n(idx, rank, 0);
  std::size_t at = 0, flat = 0;
  for (;;) {
    for (std::size_t j = 0, a = at; j < last_len; ++j, a += last_stride, flat += run_len)
      run(a, flat);
    std::size_t ax = rank - 1;
    for (;;) {
      if (ax-- == 0) return;
      if (++idx[ax] < axes[ax].extent) {
        at += axes[ax].stride;
        break;
      }
      at -= axes[ax].stride * (axes[ax].extent - 1);
      idx[ax] = 0;
    }
  }
}

}  // namespace

std::vector<std::size_t> row_major_strides(const std::vector<std::size_t>& shape) {
  std::vector<std::size_t> st(shape.size());
  std::size_t acc = 1;
  for (std::size_t i = shape.size(); i-- > 0;) {
    st[i] = acc;
    acc *= shape[i];
  }
  return st;
}

bool is_identity_permutation(std::span<const std::size_t> perm) {
  for (std::size_t i = 0; i < perm.size(); ++i)
    if (perm[i] != i) return false;
  return true;
}

PermuteWalk compile_walk(std::span<const std::size_t> out_shape,
                         std::span<const std::size_t> src_stride) {
  la::detail::require(out_shape.size() == src_stride.size(), "compile_walk: rank mismatch");
  // Runs, outermost first: size-1 axes dropped, and an axis folded into the
  // run before it when the two are adjacent in the source too (outer stride
  // = inner stride x inner extent).
  std::vector<PermuteWalk::Axis> runs;
  for (std::size_t ax = 0; ax < out_shape.size(); ++ax) {
    const std::size_t d = out_shape[ax], st = src_stride[ax];
    if (d == 0) return PermuteWalk{0, 1, {}};  // nothing to visit
    if (d == 1) continue;
    if (!runs.empty() && runs.back().stride == st * d)
      runs.back() = {runs.back().extent * d, st};
    else
      runs.push_back({d, st});
  }
  PermuteWalk w;
  if (runs.empty()) return w;
  w.inner_len = runs.back().extent;
  w.inner_stride = runs.back().stride;
  runs.pop_back();
  // Every extent is >= 2 and the product fits in size_t, so the outer
  // odometer has fewer than kMaxWalkAxes axes.
  la::detail::require(runs.size() < kMaxWalkAxes, "compile_walk: too many axes");
  w.outer.assign(runs.begin(), runs.end());
  return w;
}

void permute_walk(const cplx* src, const PermuteWalk& walk, cplx* dst) {
  const std::size_t len = walk.inner_len, stride = walk.inner_stride;
  if (stride == 1)
    for_each_run(walk, [&](std::size_t at, std::size_t flat) {
      std::copy_n(src + at, len, dst + flat);
    });
  else
    for_each_run(walk, [&](std::size_t at, std::size_t flat) {
      const cplx* s = src + at;
      cplx* d = dst + flat;
      for (std::size_t j = 0; j < len; ++j) d[j] = s[j * stride];
    });
}

void scatter_walk(const cplx* src, const PermuteWalk& walk, cplx* dst) {
  const std::size_t len = walk.inner_len, stride = walk.inner_stride;
  if (stride == 1)
    for_each_run(walk, [&](std::size_t at, std::size_t flat) {
      std::copy_n(src + flat, len, dst + at);
    });
  else
    for_each_run(walk, [&](std::size_t at, std::size_t flat) {
      const cplx* s = src + flat;
      cplx* d = dst + at;
      for (std::size_t j = 0; j < len; ++j) d[j * stride] = s[j];
    });
}

std::vector<std::uint32_t> permute_gather(std::span<const std::size_t> out_shape,
                                          std::span<const std::size_t> src_stride) {
  const PermuteWalk walk = compile_walk(out_shape, src_stride);
  la::detail::require(permute_gather_applies(walk.elems()), "permute_gather: table too large");
  std::vector<std::uint32_t> gather(walk.elems());
  for_each_run(walk, [&](std::size_t at, std::size_t flat) {
    for (std::size_t j = 0; j < walk.inner_len; ++j)
      gather[flat + j] = static_cast<std::uint32_t>(at + j * walk.inner_stride);
  });
  return gather;
}

void permute_into(const cplx* src, std::span<const std::size_t> shape,
                  std::span<const std::size_t> perm, cplx* dst) {
  const std::size_t rank = shape.size();
  la::detail::require(perm.size() == rank, "permute_into: rank mismatch");
  const std::vector<std::size_t> strides =
      row_major_strides(std::vector<std::size_t>(shape.begin(), shape.end()));
  std::vector<std::size_t> out_shape(rank), src_stride(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    out_shape[i] = shape[perm[i]];
    src_stride[i] = strides[perm[i]];
  }
  permute_walk(src, compile_walk(out_shape, src_stride), dst);
}

Tensor::Tensor(std::vector<std::size_t> shape) : shape_(std::move(shape)) {
  data_.assign(shape_size(shape_), cplx{0.0, 0.0});
}

Tensor Tensor::scalar(cplx value) {
  Tensor t{std::vector<std::size_t>{}};
  t.data_[0] = value;
  return t;
}

Tensor Tensor::from_matrix(const Matrix& m) {
  Tensor t{{m.rows(), m.cols()}};
  std::copy(m.data(), m.data() + m.rows() * m.cols(), t.data_.begin());
  return t;
}

Tensor Tensor::from_vector(const Vector& v) {
  Tensor t{{v.size()}};
  std::copy(v.data(), v.data() + v.size(), t.data_.begin());
  return t;
}

Tensor Tensor::identity(std::size_t dim) {
  Tensor t{{dim, dim}};
  for (std::size_t i = 0; i < dim; ++i) t.data_[i * dim + i] = cplx{1.0, 0.0};
  return t;
}

std::size_t Tensor::flat_index(std::span<const std::size_t> idx) const {
  la::detail::require(idx.size() == shape_.size(), "Tensor::at: rank mismatch");
  std::size_t flat = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    la::detail::require(idx[i] < shape_[i], "Tensor::at: index out of range");
    flat = flat * shape_[i] + idx[i];
  }
  return flat;
}

Tensor Tensor::permute(std::span<const std::size_t> perm) const& {
  la::detail::require(perm.size() == rank(), "Tensor::permute: rank mismatch");
  std::vector<bool> seen(rank(), false);
  for (std::size_t p : perm) {
    la::detail::require(p < rank() && !seen[p], "Tensor::permute: invalid permutation");
    seen[p] = true;
  }
  if (is_identity_permutation(perm)) return *this;

  std::vector<std::size_t> new_shape(rank());
  for (std::size_t i = 0; i < rank(); ++i) new_shape[i] = shape_[perm[i]];
  Tensor out(new_shape);
  permute_into(data_.data(), shape_, perm, out.data_.data());
  return out;
}

Tensor Tensor::permute(std::span<const std::size_t> perm) && {
  if (perm.size() == rank() && is_identity_permutation(perm)) return std::move(*this);
  return static_cast<const Tensor&>(*this).permute(perm);
}

Tensor Tensor::reshape(std::vector<std::size_t> new_shape) const& {
  la::detail::require(shape_size(new_shape) == size(), "Tensor::reshape: size mismatch");
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;
  return out;
}

Tensor Tensor::reshape(std::vector<std::size_t> new_shape) && {
  la::detail::require(shape_size(new_shape) == size(), "Tensor::reshape: size mismatch");
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = std::move(data_);
  return out;
}

Tensor Tensor::conj() const {
  Tensor out = *this;
  for (cplx& x : out.data_) x = std::conj(x);
  return out;
}

Tensor& Tensor::operator*=(cplx s) {
  for (cplx& x : data_) x *= s;
  return *this;
}

Tensor& Tensor::operator+=(const Tensor& o) {
  la::detail::require(shape_ == o.shape_, "Tensor::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix Tensor::to_matrix() const {
  la::detail::require(rank() == 2, "Tensor::to_matrix: rank != 2");
  Matrix m(shape_[0], shape_[1]);
  std::copy(data_.begin(), data_.end(), m.data());
  return m;
}

Vector Tensor::to_vector() const {
  la::detail::require(rank() == 1, "Tensor::to_vector: rank != 1");
  Vector v(shape_[0]);
  std::copy(data_.begin(), data_.end(), v.data());
  return v;
}

cplx Tensor::to_scalar() const {
  la::detail::require(rank() == 0, "Tensor::to_scalar: rank != 0");
  return data_[0];
}

double Tensor::frobenius_norm() const {
  double s = 0.0;
  for (const cplx& x : data_) s += std::norm(x);
  return std::sqrt(s);
}

double Tensor::max_abs() const {
  double m = 0.0;
  for (const cplx& x : data_) m = std::max(m, std::abs(x));
  return m;
}

bool Tensor::approx_equal(const Tensor& o, double tol) const {
  if (shape_ != o.shape_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (!noisim::approx_equal(data_[i], o.data_[i], tol)) return false;
  return true;
}

Tensor trace_axes(const Tensor& t, std::size_t a, std::size_t b) {
  la::detail::require(a != b && a < t.rank() && b < t.rank(), "trace_axes: bad axes");
  la::detail::require(t.dim(a) == t.dim(b), "trace_axes: dimension mismatch");
  if (a > b) std::swap(a, b);

  // Move axes a, b to the back, then sum the diagonal of the trailing pair.
  std::vector<std::size_t> perm;
  perm.reserve(t.rank());
  for (std::size_t i = 0; i < t.rank(); ++i)
    if (i != a && i != b) perm.push_back(i);
  perm.push_back(a);
  perm.push_back(b);
  const Tensor moved = t.permute(perm);

  std::vector<std::size_t> out_shape(moved.shape().begin(), moved.shape().end() - 2);
  Tensor out(out_shape);
  const std::size_t d = t.dim(a);
  for (std::size_t i = 0; i < out.size(); ++i) {
    cplx s{0.0, 0.0};
    for (std::size_t k = 0; k < d; ++k) s += moved[i * d * d + k * d + k];
    out[i] = s;
  }
  return out;
}

Tensor outer(const Tensor& a, const Tensor& b) {
  std::vector<std::size_t> shape = a.shape();
  shape.insert(shape.end(), b.shape().begin(), b.shape().end());
  Tensor out(shape);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const cplx ai = a[i];
    if (ai == cplx{0.0, 0.0}) continue;
    cplx* dst = out.data() + i * b.size();
    const cplx* src = b.data();
    for (std::size_t j = 0; j < b.size(); ++j) dst[j] += ai * src[j];
  }
  return out;
}

}  // namespace noisim::tsr
