#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

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
// registers.
template <std::size_t R, std::size_t C, class Kernel>
void tile_cols(Kernel& kernel, std::size_t i, std::size_t& j, std::size_t n) {
  for (; j + C <= n; j += C) kernel.template run<R, C>(i, j);
  if constexpr (C > 1) tile_cols<R, C / 2>(kernel, i, j, n);
}

template <std::size_t R, std::size_t C, class Kernel>
void tile_row(Kernel& kernel, std::size_t i, std::size_t n) {
  std::size_t j = 0;
  tile_cols<R, C>(kernel, i, j, n);
}

template <std::size_t kR, std::size_t kC, class Kernel>
void tile_grid(Kernel& kernel, std::size_t m, std::size_t n) {
  std::size_t i = 0;
  for (; i + kR <= m; i += kR) tile_row<kR, kC>(kernel, i, n);
  for (; i < m; ++i) tile_row<1, kC>(kernel, i, n);
}

// Two doubles in one SIMD register (SSE2 on x86-64, NEON on arm64).
// Lane-wise + and * are the scalar IEEE operations, so each lane holds
// exactly the sum a scalar loop would, in the same order.
typedef double Pair __attribute__((vector_size(16)));

// A tile C columns wide is C / 2 Pairs, or one double when C == 1.
template <std::size_t C>
struct Lanes {
  static_assert(C == 1 || C % 2 == 0);
  using Type = std::conditional_t<C == 1, double, Pair>;
  static constexpr std::size_t kWidth = C == 1 ? 1 : 2;
  static constexpr std::size_t kCount = C / kWidth;

  static Type load(const double* p) {
    Type v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(double* p, Type v) { std::memcpy(p, &v, sizeof v); }
  static Type splat(double v) {
    if constexpr (C == 1) {
      return v;
    } else {
      return Pair{v, v};
    }
  }
};

// C = A B, one sum per element running p ascending from 0.0.
struct GemmKernel {
  const double* a;
  const double* b;
  double* c;
  std::size_t k, n;

  template <std::size_t R, std::size_t C>
  void run(std::size_t i0, std::size_t j0) const {
    using L = Lanes<C>;
    typename L::Type acc[R][L::kCount] = {};
    for (std::size_t p = 0; p < k; ++p) {
      typename L::Type b_row[L::kCount];
      for (std::size_t q = 0; q < L::kCount; ++q) {
        b_row[q] = L::load(b + p * n + j0 + q * L::kWidth);
      }
      for (std::size_t r = 0; r < R; ++r) {
        const auto a_ip = L::splat(a[(i0 + r) * k + p]);
        for (std::size_t q = 0; q < L::kCount; ++q) acc[r][q] += a_ip * b_row[q];
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < L::kCount; ++q) {
        L::store(c + (i0 + r) * n + j0 + q * L::kWidth, acc[r][q]);
      }
    }
  }
};

// C += X^T Y, one rank-1 term per row of X and Y, added in row order.
struct GerBatchKernel {
  const double* x;
  const double* y;
  double* c;
  std::size_t rows, m, n;

  template <std::size_t R, std::size_t C>
  void run(std::size_t i0, std::size_t j0) const {
    using L = Lanes<C>;
    typename L::Type acc[R][L::kCount];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < L::kCount; ++q) {
        acc[r][q] = L::load(c + (i0 + r) * n + j0 + q * L::kWidth);
      }
    }
    for (std::size_t k = 0; k < rows; ++k) {
      typename L::Type y_row[L::kCount];
      for (std::size_t q = 0; q < L::kCount; ++q) {
        y_row[q] = L::load(y + k * n + j0 + q * L::kWidth);
      }
      for (std::size_t r = 0; r < R; ++r) {
        const auto x_ki = L::splat(x[k * m + i0 + r]);
        for (std::size_t q = 0; q < L::kCount; ++q) acc[r][q] += x_ki * y_row[q];
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < L::kCount; ++q) {
        L::store(c + (i0 + r) * n + j0 + q * L::kWidth, acc[r][q]);
      }
    }
  }
};

}  // namespace

void gemm(const ConstMatrixView& a, const ConstMatrixView& b, MatrixView c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
  GemmKernel kernel{a.data(), b.data(), c.data(), a.cols(), b.cols()};
  tile_grid<2, 8>(kernel, a.rows(), b.cols());
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
  GerBatchKernel kernel{x.data(), y.data(), c.data(), x.rows(), x.cols(),
                        y.cols()};
  tile_grid<4, 4>(kernel, c.rows(), c.cols());
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
