// tensor/vmath: accuracy against a long double reference, the special
// values of the contract, and the purity that lets the models' span
// passes and the oracles' scalar calls agree bit for bit.

#include "tensor/vmath.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "tensor/kernels.h"

namespace fed {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kMinSub = std::numeric_limits<double>::denorm_min();

using Scalar = std::function<double(double)>;
using Reference = std::function<long double(long double)>;

// Spacing of doubles at |ref|: 2^(e - 52) for ref in [2^e, 2^(e+1)),
// and the subnormal spacing below 2^-1022.
long double ulp_at(long double ref) {
  const long double a = std::fabs(ref);
  if (a < 0x1p-1022L) return 0x1p-1074L;
  int e = 0;
  std::frexp(a, &e);  // a = m 2^e, m in [0.5, 1)
  return std::ldexp(1.0L, e - 53);
}

// Worst error in ulps over `xs` (NaN as soon as one result is NaN or
// infinite where the reference is not); `worst_x` receives its input.
double max_ulp(const Scalar& f, const Reference& ref,
               const std::vector<double>& xs, double& worst_x) {
  double worst = 0.0;
  for (const double x : xs) {
    const long double r = ref(x);
    const double y = f(x);
    const double err =
        static_cast<double>(std::fabs(static_cast<long double>(y) - r) /
                            ulp_at(r));
    if (std::isnan(err) || err > worst) {
      worst = err;
      worst_x = x;
      if (std::isnan(err)) break;
    }
  }
  return worst;
}

std::vector<double> linear(double lo, double hi, int n) {
  std::vector<double> xs;
  for (int i = 0; i <= n; ++i) xs.push_back(lo + (hi - lo) * i / n);
  return xs;
}

// n + 1 points evenly spaced in log|x| from lo to hi (both > 0), with
// their negatives when `both_signs`.
std::vector<double> logarithmic(double lo, double hi, int n,
                                bool both_signs) {
  std::vector<double> xs;
  const double a = std::log(lo), b = std::log(hi);
  for (int i = 0; i <= n; ++i) {
    const double x = std::exp(a + (b - a) * i / n);
    xs.push_back(x);
    if (both_signs) xs.push_back(-x);
  }
  return xs;
}

void expect_within(const char* name, const Scalar& f, const Reference& ref,
                   const std::vector<double>& xs, double bound) {
  double worst_x = 0.0;
  const double worst = max_ulp(f, ref, xs, worst_x);
  EXPECT_LE(worst, bound) << name << " at x = " << worst_x;
}

long double sigmoid_ref(long double x) { return 1.0L / (1.0L + std::exp(-x)); }

TEST(VmathTest, ExpWithinOneUlp) {
  const Scalar f = [](double x) { return vmath::exp(x); };
  const Reference ref = [](long double x) { return std::exp(x); };
  expect_within("exp", f, ref, linear(-745.1, 709.78, 400000), 1.0);
  expect_within("exp", f, ref, linear(-1.0, 1.0, 200000), 1.0);
  expect_within("exp", f, ref, logarithmic(1e-300, 1.0, 100000, true), 1.0);
  // Results in the subnormal range, and near overflow.
  expect_within("exp", f, ref, linear(-745.13, -708.0, 200000), 1.0);
  expect_within("exp", f, ref, linear(700.0, 709.78, 100000), 1.0);
}

TEST(VmathTest, LogWithinOneUlp) {
  const Scalar f = [](double x) { return vmath::log(x); };
  const Reference ref = [](long double x) { return std::log(x); };
  expect_within("log", f, ref, logarithmic(kMinSub, 1e308, 400000, false),
                1.0);
  expect_within("log", f, ref, linear(0.5, 2.0, 400000), 1.0);
  expect_within("log", f, ref, linear(0.999, 1.001, 100000), 1.0);
}

TEST(VmathTest, TanhWithinTwoUlp) {
  const Scalar f = [](double x) { return vmath::tanh(x); };
  const Reference ref = [](long double x) { return std::tanh(x); };
  expect_within("tanh", f, ref, linear(-20.0, 20.0, 400000), 2.0);
  expect_within("tanh", f, ref, logarithmic(1e-12, 30.0, 200000, true), 2.0);
  expect_within("tanh", f, ref, linear(0.6, 0.65, 100000), 2.0);
}

TEST(VmathTest, SigmoidWithinFourUlp) {
  const Scalar f = [](double x) { return vmath::sigmoid(x); };
  expect_within("sigmoid", f, sigmoid_ref, linear(-745.0, 40.0, 400000), 4.0);
  expect_within("sigmoid", f, sigmoid_ref, linear(-5.0, 5.0, 200000), 4.0);
  expect_within("sigmoid", f, sigmoid_ref,
                logarithmic(1e-300, 1.0, 100000, true), 4.0);
}

TEST(VmathTest, SpecialValues) {
  // NaN propagates through every function.
  EXPECT_TRUE(std::isnan(vmath::exp(kNaN)));
  EXPECT_TRUE(std::isnan(vmath::log(kNaN)));
  EXPECT_TRUE(std::isnan(vmath::tanh(kNaN)));
  EXPECT_TRUE(std::isnan(vmath::sigmoid(kNaN)));

  EXPECT_EQ(vmath::exp(kInf), kInf);
  EXPECT_EQ(vmath::exp(-kInf), 0.0);
  EXPECT_EQ(vmath::exp(0.0), 1.0);
  EXPECT_EQ(vmath::exp(-0.0), 1.0);
  // Overflow just above ln(DBL_MAX) = 709.782712893384.
  EXPECT_TRUE(std::isfinite(vmath::exp(709.78)));
  EXPECT_EQ(vmath::exp(709.79), kInf);
  EXPECT_EQ(vmath::exp(1e300), kInf);
  // Gradual underflow: subnormal results, then +0 below ln(2^-1075).
  EXPECT_GT(vmath::exp(-740.0), 0.0);
  EXPECT_LT(vmath::exp(-740.0), 0x1p-1022);
  EXPECT_EQ(vmath::exp(-745.13), kMinSub);
  EXPECT_EQ(vmath::exp(-745.14), 0.0);
  EXPECT_EQ(vmath::exp(-1e300), 0.0);

  EXPECT_EQ(vmath::log(1.0), 0.0);
  EXPECT_FALSE(std::signbit(vmath::log(1.0)));
  EXPECT_EQ(vmath::log(0.0), -kInf);
  EXPECT_EQ(vmath::log(-0.0), -kInf);
  EXPECT_TRUE(std::isnan(vmath::log(-1.0)));
  EXPECT_TRUE(std::isnan(vmath::log(-kInf)));
  EXPECT_EQ(vmath::log(kInf), kInf);
  EXPECT_NEAR(vmath::log(kMinSub), -744.4400719213812, 1e-12);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(vmath::tanh(0.0)),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(vmath::tanh(-0.0)),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(vmath::tanh(kInf), 1.0);
  EXPECT_EQ(vmath::tanh(-kInf), -1.0);
  EXPECT_EQ(vmath::tanh(kMinSub), kMinSub);

  EXPECT_EQ(vmath::sigmoid(0.0), 0.5);
  EXPECT_EQ(vmath::sigmoid(-0.0), 0.5);
  EXPECT_EQ(vmath::sigmoid(kInf), 1.0);
  EXPECT_EQ(vmath::sigmoid(-kInf), 0.0);
  EXPECT_EQ(vmath::sigmoid(1000.0), 1.0);
  EXPECT_EQ(vmath::sigmoid(-1000.0), 0.0);
}

TEST(VmathTest, TanhIsOddBitForBit) {
  for (const double x : logarithmic(1e-320, 1e300, 200000, false)) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(vmath::tanh(-x)),
              std::bit_cast<std::uint64_t>(-vmath::tanh(x)))
        << "x = " << x;
  }
}

// Every span length 1-9 at every offset 0-3 gives each element the bits
// of the scalar call on it, whatever its lane, and in place too.
TEST(VmathTest, SpanEqualsScalarAtEveryLengthAndOffset) {
  const std::vector<double> pool = {
      0.3,  -1.7,    0.0,   -0.0,  2.5,     -745.2, 709.9, kNaN,
      kInf, -kInf,   1e-12, 40.0,  -0.625,  0.625,  1e-310, 3.0,
      -8.5, 1e300,   0.5,   -3e-5, 0.01,    7.25};
  using Span = void (*)(std::span<const double>, std::span<double>);
  struct Fn {
    const char* name;
    double (*scalar)(double);
    Span span;
  };
  const Fn fns[] = {
      {"exp", vmath::exp, vmath::exp},
      {"log", vmath::log, vmath::log},
      {"tanh", vmath::tanh, vmath::tanh},
      {"sigmoid", vmath::sigmoid, vmath::sigmoid},
  };
  for (const Fn& fn : fns) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (std::size_t n = 1; n <= 9; ++n) {
        const std::span<const double> x(pool.data() + offset, n);
        std::vector<double> y(n + offset, 42.0);
        fn.span(x, std::span(y).subspan(offset, n));
        std::vector<double> in_place(pool.begin() + offset,
                                     pool.begin() + offset + n);
        fn.span(in_place, in_place);
        for (std::size_t i = 0; i < n; ++i) {
          const auto want = std::bit_cast<std::uint64_t>(fn.scalar(x[i]));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(y[offset + i]), want)
              << fn.name << " n=" << n << " offset=" << offset << " i=" << i;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(in_place[i]), want)
              << fn.name << " in place, n=" << n << " i=" << i;
        }
        for (std::size_t i = 0; i < offset; ++i) EXPECT_EQ(y[i], 42.0);
      }
    }
  }
}

// Both variants' span calls (tensor/kernels.h) give every element the bits
// of the scalar call, at every length 0-17: the Pair and Quad loops, their
// tails, and the special inputs (signed zeros, subnormals, infinities,
// NaN, the exp clamps and tanh's switch at 0.625).
TEST(VmathTest, VariantsMatchScalarBitwise) {
  std::vector<double> pool = {
      0.0,     -0.0,    kMinSub, -kMinSub, 1e-310, -1e-310, 0x1p-1022,
      kInf,    -kInf,   kNaN,    -kNaN,    710.0,  -710.0,  -746.0,
      709.78,  709.79,  -745.13, -745.14,  0.625,  -0.625,  0x1.3ffffffffffffp-1,
      0.3,     -1.7,    2.5,     40.0,     -8.5,   1e300,   -1e300,
      0.5,     -3e-5,   0.01,    7.25,     1.0,    -1.0,    3.0};
  using Span = void (*)(std::span<const double>, std::span<double>);
  struct Fn {
    const char* name;
    double (*scalar)(double);
    Span sse2;
    Span avx2;  // null where the variant is not built
  };
#ifdef FEDPROX_KERNELS_AVX2
  const bool avx2 = kernels::kCpuHasAvx2;
  const Fn fns[] = {
      {"exp", vmath::exp, kernels::sse2::exp, kernels::avx2::exp},
      {"log", vmath::log, kernels::sse2::log, kernels::avx2::log},
      {"tanh", vmath::tanh, kernels::sse2::tanh, kernels::avx2::tanh},
      {"sigmoid", vmath::sigmoid, kernels::sse2::sigmoid,
       kernels::avx2::sigmoid},
  };
#else
  const bool avx2 = false;
  const Fn fns[] = {
      {"exp", vmath::exp, kernels::sse2::exp, nullptr},
      {"log", vmath::log, kernels::sse2::log, nullptr},
      {"tanh", vmath::tanh, kernels::sse2::tanh, nullptr},
      {"sigmoid", vmath::sigmoid, kernels::sse2::sigmoid, nullptr},
  };
#endif
  for (const Fn& fn : fns) {
    for (std::size_t n = 0; n <= 17; ++n) {
      // Every start in the pool, so each input meets every lane.
      for (std::size_t start = 0; start + n <= pool.size(); ++start) {
        const std::span<const double> x(pool.data() + start, n);
        std::vector<double> y_sse2(n), y_avx2(n);
        fn.sse2(x, y_sse2);
        if (avx2) fn.avx2(x, y_avx2);
        for (std::size_t i = 0; i < n; ++i) {
          const auto want = std::bit_cast<std::uint64_t>(fn.scalar(x[i]));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(y_sse2[i]), want)
              << fn.name << " sse2, n=" << n << " x=" << x[i];
          if (avx2) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(y_avx2[i]), want)
                << fn.name << " avx2, n=" << n << " x=" << x[i];
          }
        }
      }
    }
  }
  if (!avx2) {
    GTEST_SKIP() << "sse2 checked; the avx2 variant cannot run here (x86-64 "
                    "builds only, on a CPU with AVX2)";
  }
}

}  // namespace
}  // namespace fed
