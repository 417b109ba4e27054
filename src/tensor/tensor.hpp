#pragma once
// Dense rank-k complex tensors with row-major storage.
//
// Axis semantics: a tensor of rank r has axes 0..r-1; the *last* axis is
// contiguous in memory. All quantum wires in noisim carry dimension 2, but
// the tensor type is dimension-agnostic so bond indices produced by
// contraction (which can have any size) are first-class.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace noisim::tsr {

using la::Matrix;
using la::Vector;

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);

  /// Rank-0 tensor holding one value.
  static Tensor scalar(cplx value);
  /// Rank-2 tensor copying a matrix (axis 0 = row, axis 1 = column).
  static Tensor from_matrix(const Matrix& m);
  /// Rank-1 tensor copying a vector.
  static Tensor from_vector(const Vector& v);
  /// Rank-2 identity of the given dimension.
  static Tensor identity(std::size_t dim);

  std::size_t rank() const { return shape_.size(); }
  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t dim(std::size_t axis) const { return shape_[axis]; }
  std::size_t size() const { return data_.size(); }

  cplx& operator[](std::size_t flat) { return data_[flat]; }
  const cplx& operator[](std::size_t flat) const { return data_[flat]; }
  cplx& at(std::span<const std::size_t> idx) { return data_[flat_index(idx)]; }
  const cplx& at(std::span<const std::size_t> idx) const { return data_[flat_index(idx)]; }
  cplx& at(std::initializer_list<std::size_t> idx) {
    return at(std::span<const std::size_t>(idx.begin(), idx.size()));
  }
  const cplx& at(std::initializer_list<std::size_t> idx) const {
    return at(std::span<const std::size_t>(idx.begin(), idx.size()));
  }

  cplx* data() { return data_.data(); }
  const cplx* data() const { return data_.data(); }

  /// Row-major flat index of a multi-index.
  std::size_t flat_index(std::span<const std::size_t> idx) const;

  /// New tensor with axes reordered: result axis i is this->axis perm[i].
  /// The rvalue overload moves the storage through identity permutations
  /// (no copy); non-identity permutations copy either way (the walk cannot
  /// run in place).
  Tensor permute(std::span<const std::size_t> perm) const&;
  Tensor permute(std::span<const std::size_t> perm) &&;
  Tensor permute(std::initializer_list<std::size_t> perm) const& {
    return permute(std::span<const std::size_t>(perm.begin(), perm.size()));
  }
  Tensor permute(std::initializer_list<std::size_t> perm) && {
    return std::move(*this).permute(std::span<const std::size_t>(perm.begin(), perm.size()));
  }

  /// Reinterpret the same data under a new shape (sizes must agree). The
  /// rvalue overload moves the storage instead of copying it.
  Tensor reshape(std::vector<std::size_t> new_shape) const&;
  Tensor reshape(std::vector<std::size_t> new_shape) &&;

  /// Entry-wise complex conjugate.
  Tensor conj() const;

  Tensor& operator*=(cplx s);
  Tensor& operator+=(const Tensor& o);
  friend Tensor operator*(cplx s, Tensor t) { return t *= s; }
  friend Tensor operator+(Tensor a, const Tensor& b) { return a += b; }

  /// View a rank-2 tensor as a Matrix copy.
  Matrix to_matrix() const;
  /// View a rank-1 tensor as a Vector copy.
  Vector to_vector() const;
  /// Value of a rank-0 tensor.
  cplx to_scalar() const;

  double frobenius_norm() const;
  double max_abs() const;
  bool approx_equal(const Tensor& o, double tol = kDefaultTol) const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<cplx> data_;
};

/// True iff perm[i] == i for every axis (permutation is a no-op).
bool is_identity_permutation(std::span<const std::size_t> perm);

/// Row-major strides of a shape (last axis contiguous).
std::vector<std::size_t> row_major_strides(const std::vector<std::size_t>& shape);

/// Permute `src` (row-major under `shape`) into `dst` so that dst axis i is
/// src axis perm[i] — the same operation as Tensor::permute without
/// allocating a Tensor. `dst` must not alias `src`.
void permute_into(const cplx* src, std::span<const std::size_t> shape,
                  std::span<const std::size_t> perm, cplx* dst);

/// A permutation walk compiled for replay: the walk visiting the elements
/// of a source buffer in row-major order of `out_shape`, reading axis i at
/// source stride src_stride[i]. compile_walk drops size-1 axes and merges
/// axes that are adjacent in both the source and the row-major
/// destination, so a rank-14 all-2 operand typically becomes two to four
/// runs. The innermost run executes as one strided loop (a plain copy at
/// stride 1); only the outer axes step an odometer, once per run instead
/// of once per element. Compile once (the plan compiler stores one per
/// operand permutation) and replay through permute_walk or scatter_walk.
struct PermuteWalk {
  struct Axis {
    std::size_t extent, stride;  // stride: in the source
  };
  std::size_t inner_len = 1;     // elements per run
  std::size_t inner_stride = 1;  // source stride within a run
  std::vector<Axis> outer;       // outer axes, outermost first

  std::size_t elems() const {
    std::size_t n = inner_len;
    for (const Axis& a : outer) n *= a.extent;
    return n;
  }
  /// True when the walk reads the source in order (a plain copy).
  bool contiguous() const { return outer.empty() && inner_stride == 1; }
};

/// Compile the walk of `out_shape` read at `src_stride` (one stride per axis).
PermuteWalk compile_walk(std::span<const std::size_t> out_shape,
                         std::span<const std::size_t> src_stride);

/// Gather along a compiled walk: dst[f] = src[offset of f], dst written in
/// row-major order. `dst` must not alias `src`.
void permute_walk(const cplx* src, const PermuteWalk& walk, cplx* dst);

/// The dual scatter: src read in row-major order, dst[offset of f] = src[f].
/// `dst` must not alias `src`.
void scatter_walk(const cplx* src, const PermuteWalk& walk, cplx* dst);

/// Materialized permutation walk: gather[f] is the source offset the walk
/// reads for flat output position f, so applying the permutation becomes
/// dst[f] = src[gather[f]] with no per-element index arithmetic. The
/// batched plan executor builds these once per plan step and replays them
/// per term/slice. Offsets are 32-bit; callers gate on element count
/// (permute_gather_applies) and fall back to the compiled walk beyond it.
std::vector<std::uint32_t> permute_gather(std::span<const std::size_t> out_shape,
                                          std::span<const std::size_t> src_stride);

/// True when a gather table is worth materializing: the element count fits
/// 32-bit offsets and the table stays small enough to live in cache.
inline bool permute_gather_applies(std::size_t total) { return total <= (std::size_t{1} << 16); }

/// Apply a gather table: dst[f] = src[gather[f]].
inline void gather_walk(const cplx* src, std::span<const std::uint32_t> gather, cplx* dst) {
  for (std::size_t f = 0; f < gather.size(); ++f) dst[f] = src[gather[f]];
}

/// Partial trace: contract axis a with axis b of the same tensor
/// (dimensions must match); the result drops both axes.
Tensor trace_axes(const Tensor& t, std::size_t a, std::size_t b);

/// Outer product: result shape = shape(a) ++ shape(b).
Tensor outer(const Tensor& a, const Tensor& b);

}  // namespace noisim::tsr
