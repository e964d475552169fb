#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "tensor/kernels.h"
#include "tensor/lanes.h"
#include "tensor/vmath.h"

namespace fed {

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(std::span<double> x, double alpha) {
  for (double& v : x) v *= alpha;
}

void copy(std::span<const double> src, std::span<double> dst) {
  assert(src.size() == dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

double dot(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  double acc = 0.0;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

double distance2(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double sum(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

void subtract(std::span<const double> a, std::span<const double> b,
              std::span<double> dst) {
  assert(a.size() == b.size() && a.size() == dst.size());
  for (std::size_t i = 0; i < a.size(); ++i) dst[i] = a[i] - b[i];
}

void add(std::span<const double> a, std::span<const double> b,
         std::span<double> dst) {
  assert(a.size() == b.size() && a.size() == dst.size());
  for (std::size_t i = 0; i < a.size(); ++i) dst[i] = a[i] + b[i];
}

void zero(std::span<double> x) { std::fill(x.begin(), x.end(), 0.0); }

void gemv(const ConstMatrixView& a, std::span<const double> x,
          std::span<double> y) {
  zero(y);
  gemv_accumulate(a, x, y);
}

void gemv_accumulate(const ConstMatrixView& a, std::span<const double> x,
                     std::span<double> y) {
  assert(x.size() == a.cols() && y.size() == a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    y[r] += dot(a.row(r), x);
  }
}

void gemv_transposed(const ConstMatrixView& a, std::span<const double> x,
                     std::span<double> y) {
  assert(x.size() == a.rows() && y.size() == a.cols());
  zero(y);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    axpy(x[r], a.row(r), y);
  }
}

namespace {

// Register-blocked tiling shared by gemm and ger_batch. A kernel supplies
// `template <R, C> void run(i, j)` for the R x C output tile at (i, j);
// tile_grid covers an m x n output with kR x kC tiles, then the column
// tail with C halved down to 1 and the row tail one row at a time, so
// every tile size is a compile-time constant the compiler can keep in
// registers. Everything here is always inlined into the variant's entry
// point, so the avx2 variant's lane code is compiled for AVX2.
template <std::size_t R, std::size_t C, class Kernel>
[[gnu::always_inline]] inline void tile_cols(const Kernel& kernel,
                                             std::size_t i, std::size_t& j,
                                             std::size_t n) {
  for (; j + C <= n; j += C) kernel.template run<R, C>(i, j);
  if constexpr (C > 1) tile_cols<R, C / 2>(kernel, i, j, n);
}

template <std::size_t R, std::size_t C, class Kernel>
[[gnu::always_inline]] inline void tile_row(const Kernel& kernel,
                                            std::size_t i, std::size_t n) {
  std::size_t j = 0;
  tile_cols<R, C>(kernel, i, j, n);
}

template <std::size_t kR, std::size_t kC, class Kernel>
[[gnu::always_inline]] inline void tile_grid(const Kernel& kernel,
                                             std::size_t m, std::size_t n) {
  std::size_t i = 0;
  for (; i + kR <= m; i += kR) tile_row<kR, kC>(kernel, i, n);
  for (; i < m; ++i) tile_row<1, kC>(kernel, i, n);
}

using lanes::at;
using lanes::kWidth;
using lanes::Pair;
#ifdef FEDPROX_KERNELS_AVX2
using lanes::Quad;
#endif

// The lanes of a tile C columns wide, in a variant whose widest lane is V:
// V where C has room for it, else a Pair, else one double, kCount of them
// per row. Lane-wise + and * are the scalar IEEE operations, so each lane
// holds exactly the sum a scalar loop would, in the same order.
template <class V, std::size_t C>
struct TileLanes {
  using Type = std::conditional_t<
      C >= kWidth<V>, V, std::conditional_t<C == 1, double, Pair>>;
  static constexpr std::size_t kCount = C / kWidth<Type>;
  static_assert(kCount * kWidth<Type> == C);
};

// C = A B, one sum per element running p ascending from 0.0.
template <class V>
struct GemmKernel {
  const double* a;
  const double* b;
  double* c;
  std::size_t k, n;

  template <std::size_t R, std::size_t C>
  [[gnu::always_inline]] void run(std::size_t i0, std::size_t j0) const {
    using T = typename TileLanes<V, C>::Type;
    constexpr std::size_t kCount = TileLanes<V, C>::kCount;
    T acc[R][kCount] = {};
    for (std::size_t p = 0; p < k; ++p) {
      T b_row[kCount];
      for (std::size_t q = 0; q < kCount; ++q) {
        b_row[q] = *at<T>(b + p * n + j0 + q * kWidth<T>);
      }
      for (std::size_t r = 0; r < R; ++r) {
        const double a_ip = a[(i0 + r) * k + p];
        for (std::size_t q = 0; q < kCount; ++q) acc[r][q] += a_ip * b_row[q];
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < kCount; ++q) {
        *at<T>(c + (i0 + r) * n + j0 + q * kWidth<T>) = acc[r][q];
      }
    }
  }
};

// C += X^T Y, one rank-1 term per row of X and Y, added in row order.
template <class V>
struct GerBatchKernel {
  const double* x;
  const double* y;
  double* c;
  std::size_t rows, m, n;

  template <std::size_t R, std::size_t C>
  [[gnu::always_inline]] void run(std::size_t i0, std::size_t j0) const {
    using T = typename TileLanes<V, C>::Type;
    constexpr std::size_t kCount = TileLanes<V, C>::kCount;
    T acc[R][kCount];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < kCount; ++q) {
        acc[r][q] = *at<T>(c + (i0 + r) * n + j0 + q * kWidth<T>);
      }
    }
    for (std::size_t k = 0; k < rows; ++k) {
      T y_row[kCount];
      for (std::size_t q = 0; q < kCount; ++q) {
        y_row[q] = *at<T>(y + k * n + j0 + q * kWidth<T>);
      }
      for (std::size_t r = 0; r < R; ++r) {
        const double x_ki = x[k * m + i0 + r];
        for (std::size_t q = 0; q < kCount; ++q) acc[r][q] += x_ki * y_row[q];
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < kCount; ++q) {
        *at<T>(c + (i0 + r) * n + j0 + q * kWidth<T>) = acc[r][q];
      }
    }
  }
};

// Tiles of four V per row for gemm (2 x 8 doubles in Pairs, 2 x 16 in
// Quads) and two for ger_batch (4 x 4, 4 x 8).
template <class V>
[[gnu::always_inline]] inline void gemm_tiles(const ConstMatrixView& a,
                                              const ConstMatrixView& b,
                                              MatrixView c) {
  const GemmKernel<V> kernel{a.data(), b.data(), c.data(), a.cols(),
                             b.cols()};
  tile_grid<2, 4 * kWidth<V>>(kernel, a.rows(), b.cols());
}

template <class V>
[[gnu::always_inline]] inline void ger_batch_tiles(const ConstMatrixView& x,
                                                   const ConstMatrixView& y,
                                                   MatrixView c) {
  const GerBatchKernel<V> kernel{x.data(), y.data(), c.data(), x.rows(),
                                 x.cols(), y.cols()};
  tile_grid<4, 2 * kWidth<V>>(kernel, c.rows(), c.cols());
}

}  // namespace

namespace kernels {

#ifdef FEDPROX_KERNELS_AVX2
const bool kCpuHasAvx2 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}();
#else
const bool kCpuHasAvx2 = false;
#endif

void sse2::gemm(const ConstMatrixView& a, const ConstMatrixView& b,
                MatrixView c) {
  gemm_tiles<Pair>(a, b, c);
}

void sse2::ger_batch(const ConstMatrixView& x, const ConstMatrixView& y,
                     MatrixView c) {
  ger_batch_tiles<Pair>(x, y, c);
}

#ifdef FEDPROX_KERNELS_AVX2
FEDPROX_AVX2 void avx2::gemm(const ConstMatrixView& a,
                             const ConstMatrixView& b, MatrixView c) {
  gemm_tiles<Quad>(a, b, c);
}

FEDPROX_AVX2 void avx2::ger_batch(const ConstMatrixView& x,
                                  const ConstMatrixView& y, MatrixView c) {
  ger_batch_tiles<Quad>(x, y, c);
}
#endif

}  // namespace kernels

void gemm(const ConstMatrixView& a, const ConstMatrixView& b, MatrixView c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
#ifdef FEDPROX_KERNELS_AVX2
  if (kernels::kCpuHasAvx2) return kernels::avx2::gemm(a, b, c);
#endif
  kernels::sse2::gemm(a, b, c);
}

void ger(double alpha, std::span<const double> x, std::span<const double> y,
         MatrixView a) {
  assert(x.size() == a.rows() && y.size() == a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    axpy(alpha * x[r], y, a.row(r));
  }
}

void ger_batch(const ConstMatrixView& x, const ConstMatrixView& y,
               MatrixView c) {
  if (x.rows() != y.rows() || c.rows() != x.cols() || c.cols() != y.cols()) {
    throw std::invalid_argument("ger_batch: shape mismatch");
  }
#ifdef FEDPROX_KERNELS_AVX2
  if (kernels::kCpuHasAvx2) return kernels::avx2::ger_batch(x, y, c);
#endif
  kernels::sse2::ger_batch(x, y, c);
}

void transpose(const ConstMatrixView& a, MatrixView at) {
  assert(at.rows() == a.cols() && at.cols() == a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) at(c, r) = a(r, c);
  }
}

double sum_exp(std::span<const double> x, double shift) {
  constexpr std::size_t kChunk = 64;
  double e[kChunk];
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, x.size() - i);
    for (std::size_t j = 0; j < n; ++j) e[j] = x[i + j] - shift;
    vmath::exp({e, n}, {e, n});
    for (std::size_t j = 0; j < n; ++j) total += e[j];
  }
  return total;
}

std::size_t argmax(std::span<const double> x) {
  assert(!x.empty());
  return static_cast<std::size_t>(
      std::distance(x.begin(), std::max_element(x.begin(), x.end())));
}

bool all_finite(std::span<const double> x) {
  for (double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace fed
