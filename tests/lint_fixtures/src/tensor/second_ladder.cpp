// lint-fixture: expect(one-shape-ladder)
// A second shape ladder: a function handing out fixed-shape kernels by
// (m, k, n) beside the tier's matmul array and tsr::matmul_shape, free to
// drift from the ladder the plan compiler stores in each step.
#include <complex>
#include <cstddef>

using cplx = std::complex<double>;
using MatmulFn = void (*)(const cplx*, const cplx*, cplx*, std::size_t, std::size_t,
                          std::size_t);

template <std::size_t Kc = 0, std::size_t Nc = 0>
void fixture_matmul(const cplx*, const cplx*, cplx*, std::size_t, std::size_t, std::size_t) {}

MatmulFn fixture_select(std::size_t m, std::size_t k, std::size_t n) {
  if (k == 2 && n == 2) return &fixture_matmul<2, 2>;
  if (k == 2 && m * n <= 64) return &fixture_matmul<2>;
  return &fixture_matmul<>;
}
