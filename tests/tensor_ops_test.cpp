#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "data/sequence.h"
#include "support/rng.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "tensor/vmath.h"

namespace fed {
namespace {

TEST(VectorOps, AxpyAddsScaledVector) {
  Vector x{1.0, 2.0, 3.0};
  Vector y{10.0, 20.0, 30.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(VectorOps, ScaleAndZero) {
  Vector x{1.0, -2.0, 4.0};
  scale(x, 0.5);
  EXPECT_DOUBLE_EQ(x[1], -1.0);
  zero(x);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(VectorOps, DotAndNorms) {
  Vector x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  Vector y{0.0, 0.0};
  EXPECT_DOUBLE_EQ(distance2(x, y), 5.0);
  EXPECT_DOUBLE_EQ(sum(x), 7.0);
}

TEST(VectorOps, ElementwiseOps) {
  Vector a{1.0, 2.0}, b{3.0, 5.0}, out(2);
  subtract(b, a, out);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
  add(a, b, out);
  EXPECT_DOUBLE_EQ(out[0], 4.0);
}

TEST(VectorOps, CopyIsExact) {
  Vector a{1.5, -2.5, 3.5}, b(3);
  copy(a, b);
  EXPECT_EQ(a, b);
}

TEST(MatrixOps, GemvMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Vector x{1.0, 0.0, -1.0}, y(2);
  gemv(ConstMatrixView(a.storage(), 2, 3), x, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(MatrixOps, GemvTransposedMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Vector x{1.0, 2.0}, y(3);
  gemv_transposed(ConstMatrixView(a.storage(), 2, 3), x, y);
  EXPECT_DOUBLE_EQ(y[0], 9.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
  EXPECT_DOUBLE_EQ(y[2], 15.0);
}

TEST(MatrixOps, GerPerformsRankOneUpdate) {
  Matrix a(2, 2, 1.0);
  Vector x{1.0, 2.0}, y{3.0, 4.0};
  ger(0.5, x, y, MatrixView(a.storage(), 2, 2));
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0 + 0.5 * 3.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0 + 0.5 * 8.0);
}

// Property test: gemm against a naive triple loop on random shapes.
class GemmRandomTest : public ::testing::TestWithParam<
                           std::tuple<std::size_t, std::size_t, std::size_t>> {
};

TEST_P(GemmRandomTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng = make_stream(42, StreamKind::kTest, m * 100 + k * 10 + n);
  Matrix a(m, k), b(k, n), c(m, n);
  for (double& v : a.storage()) v = rng.normal();
  for (double& v : b.storage()) v = rng.normal();
  gemm(ConstMatrixView(a.storage(), m, k), ConstMatrixView(b.storage(), k, n),
       MatrixView(c.storage(), m, n));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double expect = 0.0;
      for (std::size_t p = 0; p < k; ++p) expect += a(i, p) * b(p, j);
      EXPECT_NEAR(c(i, j), expect, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmRandomTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 20, 5), std::make_tuple(13, 1, 9)));

// ---- bitwise kernel contracts (tensor/ops.h) -------------------------------
//
// Shapes cover every tile tail: odd and even rows around the 2-row gemm
// and 4-row ger_batch blocks, columns on both sides of 8 (so the 4/2/1
// column tails all run), and empty inner dimensions.

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t key) {
  Rng rng = make_stream(77, StreamKind::kTest, key, rows * 1000 + cols);
  Matrix m(rows, cols);
  for (double& v : m.storage()) v = rng.normal();
  return m;
}

// Same bits, so NaN == NaN with the same payload and -0.0 != 0.0.
void expect_bitwise_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.storage()[i]),
              std::bit_cast<std::uint64_t>(want.storage()[i]))
        << "element " << i << ": " << got.storage()[i] << " vs "
        << want.storage()[i];
  }
}

const std::size_t kRowShapes[] = {1, 2, 3, 4, 5, 7, 9};
const std::size_t kColShapes[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17};
const std::size_t kInnerShapes[] = {0, 1, 3, 8, 13};

TEST(KernelContract, GemmIsSumFromZeroInAscendingOrder) {
  for (const std::size_t m : kRowShapes) {
    for (const std::size_t n : kColShapes) {
      for (const std::size_t k : kInnerShapes) {
        SCOPED_TRACE(::testing::Message() << m << "x" << k << "x" << n);
        const Matrix a = random_matrix(m, k, 1), b = random_matrix(k, n, 2);
        Matrix c(m, n, 99.0), want(m, n);
        gemm(a, b, c);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p) acc += a(i, p) * b(p, j);
            want(i, j) = acc;
          }
        }
        expect_bitwise_equal(c, want);
      }
    }
  }
}

TEST(KernelContract, GemmRowsMatchGemvAndGemvTransposed) {
  for (const std::size_t m : kRowShapes) {
    for (const std::size_t n : kColShapes) {
      const std::size_t k = 11;
      const Matrix x = random_matrix(m, k, 3);
      // gemm(X, W^T) row i == gemv(W, X.row(i)).
      const Matrix w = random_matrix(n, k, 4);
      Matrix w_t(k, n);
      transpose(w, w_t);
      Matrix c(m, n), want(m, n);
      gemm(x, w_t, c);
      for (std::size_t i = 0; i < m; ++i) gemv(w, x.row(i), want.row(i));
      expect_bitwise_equal(c, want);
      // gemm(D, V) row i == gemv_transposed(V, D.row(i)).
      const Matrix v = random_matrix(k, n, 5);
      gemm(x, v, c);
      for (std::size_t i = 0; i < m; ++i) {
        gemv_transposed(v, x.row(i), want.row(i));
      }
      expect_bitwise_equal(c, want);
    }
  }
}

TEST(KernelContract, GerBatchEqualsRowByRowGer) {
  for (const std::size_t m : kRowShapes) {
    for (const std::size_t n : kColShapes) {
      for (const std::size_t rows : kInnerShapes) {
        SCOPED_TRACE(::testing::Message() << rows << ": " << m << "x" << n);
        const Matrix x = random_matrix(rows, m, 6), y = random_matrix(rows, n, 7);
        const Matrix start = random_matrix(m, n, 8);
        Matrix c = start, want = start;
        ger_batch(x, y, c);
        for (std::size_t k = 0; k < rows; ++k) ger(1.0, x.row(k), y.row(k), want);
        expect_bitwise_equal(c, want);
      }
    }
  }
}

TEST(KernelContract, TransposeIsExact) {
  const Matrix a = random_matrix(5, 9, 9);
  Matrix at(9, 5);
  transpose(a, at);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 9; ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(at(c, r)),
                std::bit_cast<std::uint64_t>(a(r, c)));
    }
  }
}

TEST(KernelContract, GemmPropagatesNanAndInfThroughZeroTerms) {
  // A zero in A must still multiply B's NaN/Inf: 0 * NaN and 0 * Inf are
  // NaN, so every column they sit in comes out NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t n : kColShapes) {
    const std::size_t m = 3, k = 4;
    Matrix a(m, k, 0.0), b(k, n, 1.0), c(m, n);
    a(1, 2) = 2.0;
    b(2, 0) = nan;
    b(3, n - 1) = inf;
    gemm(a, b, c);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(std::isnan(c(i, 0))) << "row " << i << " n " << n;
      EXPECT_TRUE(std::isnan(c(i, n - 1))) << "row " << i << " n " << n;
      for (std::size_t j = 1; j + 1 < n; ++j) {
        EXPECT_EQ(c(i, j), i == 1 ? 2.0 : 0.0);
      }
    }
  }
}

TEST(KernelContract, GerBatchPropagatesNanAndInf) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Matrix x(2, 5, 0.0), y(2, 9, 0.0), c(5, 9, 1.0);
  y(0, 3) = nan;
  x(1, 4) = inf;
  ger_batch(x, y, c);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      const bool poisoned = j == 3 || i == 4;
      EXPECT_EQ(std::isnan(c(i, j)), poisoned) << i << "," << j;
    }
  }
}

TEST(KernelContract, GerBatchShapeMismatchThrows) {
  Matrix x(3, 2), y(4, 2), c(2, 2);
  EXPECT_THROW(ger_batch(x, y, c), std::invalid_argument);
}

// The two instruction-set variants (tensor/kernels.h) write the same bits
// on every tile tail of both: m 0..9 covers the 2- and 4-row blocks and
// their row tails, n 0..37 every column tail of the 8/16-wide gemm and
// 4/8-wide ger_batch tiles, with NaN and Inf in A, in B, or in both.
//
// The NaN is x86's default NaN, the one 0 * Inf and Inf - Inf make, so
// every NaN in a sum has the same bits. Which of two different NaNs an add
// returns depends on the operand order the compiler picks for a
// commutative operation, which IEEE 754 leaves open, in either variant.
Matrix poisoned(std::size_t rows, std::size_t cols, std::uint64_t key,
                bool poison) {
  Matrix m = random_matrix(rows, cols, key);
  if (poison && m.size() > 0) {
    m.storage()[key % m.size()] = std::bit_cast<double>(0xfff8000000000000ull);
    m.storage()[(7 * key + 3) % m.size()] =
        std::numeric_limits<double>::infinity();
    m.storage()[(13 * key + 5) % m.size()] =
        -std::numeric_limits<double>::infinity();
  }
  return m;
}

TEST(KernelContract, Avx2VariantMatchesSse2Bitwise) {
#ifndef FEDPROX_KERNELS_AVX2
  GTEST_SKIP() << "no avx2 variant: it is built on x86-64 only";
#else
  if (!kernels::kCpuHasAvx2) {
    GTEST_SKIP() << "this CPU has no AVX2, so the avx2 variant cannot run";
  }
  for (std::size_t m = 0; m <= 9; ++m) {
    for (std::size_t n = 0; n <= 37; ++n) {
      for (const std::size_t k : {0, 1, 2, 7, 8, 16, 60}) {
        for (int poison = 0; poison < 4; ++poison) {
          SCOPED_TRACE(::testing::Message() << m << "x" << k << "x" << n
                                            << " poison " << poison);
          const std::uint64_t key = m * 100000 + n * 100 + k;
          const Matrix a = poisoned(m, k, key, poison & 1);
          const Matrix b = poisoned(k, n, key + 1, poison & 2);
          Matrix c_sse2(m, n, 99.0), c_avx2(m, n, -99.0);
          kernels::sse2::gemm(a, b, c_sse2);
          kernels::avx2::gemm(a, b, c_avx2);
          expect_bitwise_equal(c_avx2, c_sse2);

          // ger_batch with k rank-1 rows, NaN and Inf in C as well.
          const Matrix x = poisoned(k, m, key + 2, poison & 1);
          const Matrix y = poisoned(k, n, key + 3, poison & 2);
          Matrix g_sse2 = poisoned(m, n, key + 4, poison == 3);
          Matrix g_avx2 = g_sse2;
          kernels::sse2::ger_batch(x, y, g_sse2);
          kernels::avx2::ger_batch(x, y, g_avx2);
          expect_bitwise_equal(g_avx2, g_sse2);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
#endif
}

TEST(MatrixOps, GemmShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2), c(2, 2);
  EXPECT_THROW(gemm(ConstMatrixView(a.storage(), 2, 3),
                    ConstMatrixView(b.storage(), 2, 2),
                    MatrixView(c.storage(), 2, 2)),
               std::invalid_argument);
}

TEST(Nonlinearities, SigmoidBoundsAndSymmetry) {
  EXPECT_DOUBLE_EQ(vmath::sigmoid(0.0), 0.5);
  EXPECT_NEAR(vmath::sigmoid(5.0) + vmath::sigmoid(-5.0), 1.0, 1e-12);
  EXPECT_GT(vmath::sigmoid(1000.0), 0.999);   // no overflow
  EXPECT_LT(vmath::sigmoid(-1000.0), 0.001);  // no underflow to nan
}

TEST(Nonlinearities, SoftmaxIsDistribution) {
  Vector logits{1.0, 2.0, 3.0};
  softmax_inplace(logits);
  EXPECT_NEAR(sum(logits), 1.0, 1e-12);
  EXPECT_LT(logits[0], logits[1]);
  EXPECT_LT(logits[1], logits[2]);
}

TEST(Nonlinearities, SoftmaxStableAtExtremeLogits) {
  Vector logits{1000.0, 1000.0, -1000.0};
  softmax_inplace(logits);
  EXPECT_TRUE(all_finite(logits));
  EXPECT_NEAR(logits[0], 0.5, 1e-9);
  EXPECT_NEAR(logits[2], 0.0, 1e-9);
}

TEST(Nonlinearities, ArgmaxBreaksTiesLow) {
  Vector x{1.0, 3.0, 3.0, 2.0};
  EXPECT_EQ(argmax(x), 1u);
}

TEST(Misc, AllFiniteDetectsNanAndInf) {
  Vector ok{1.0, 2.0};
  EXPECT_TRUE(all_finite(ok));
  Vector bad{1.0, std::nan("")};
  EXPECT_FALSE(all_finite(bad));
  Vector inf{1.0, INFINITY};
  EXPECT_FALSE(all_finite(inf));
}

TEST(MatrixType, ConstructorValidatesBuffer) {
  EXPECT_THROW(Matrix(2, 3, Vector(5)), std::invalid_argument);
  Matrix m(2, 3, Vector(6, 1.0));
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.0);
}

TEST(MatrixType, RowSpansAlias) {
  Matrix m(2, 2, 0.0);
  m.row(1)[0] = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 5.0);
}

}  // namespace
}  // namespace fed
