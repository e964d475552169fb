// The model path's transcendentals: exp, log, tanh and sigmoid over
// spans, plus scalar entry points. Every nonlinearity the models compute
// (nn/: LSTM gates, softmax cross-entropy) goes through here, so a
// TrainHistory depends on no libm, and on no CPU feature:
//
// - Each element's result is a pure function of that element's input.
//   It does not depend on the element's lane, its offset in the span, or
//   whether it falls in the tail, and the scalar call returns the same
//   bits as the span call. The code is fixed IEEE double arithmetic (no
//   FMA contraction, no fast-math), so the bits are the same on every
//   host and compiler.
// - The span calls run in 16-byte lanes, or in 32-byte AVX2 lanes on an
//   x86-64 CPU that has them, picked once at start-up (tensor/kernels.h).
//   Both variants are the same lane code, so by the rule above they
//   return the same bits; the scalar calls always run the 16-byte code.
// - NaN propagates; ±inf map to their limits.
// - Accuracy against the exact value, in units of the last place:
//   exp and log ≤ 1, tanh ≤ 2, sigmoid ≤ 4 (tests/tensor_math_test.cpp).
//
// The span calls take x and y of equal size; y may be x itself (in place)
// but must not otherwise overlap it. Data generation (data/, support/rng,
// sim/systems) keeps the host's <cmath>: its outputs are pinned by
// digest instead (tests/golden_test.cpp).

#pragma once

#include <span>

namespace fed::vmath {

// e^x. Overflows to +inf above ln(DBL_MAX) ≈ 709.78 and underflows
// through the subnormals to +0 below ≈ -745.13.
double exp(double x);
void exp(std::span<const double> x, std::span<double> y);

// Natural log. log(±0) = -inf, log(x < 0) = NaN, log(+inf) = +inf;
// subnormal inputs are exact-scaled first.
double log(double x);
void log(std::span<const double> x, std::span<double> y);

// Hyperbolic tangent. Odd bit for bit: tanh(-x) == -tanh(x), so
// tanh(±0) = ±0; tanh(±inf) = ±1.
double tanh(double x);
void tanh(std::span<const double> x, std::span<double> y);

// Logistic 1 / (1 + e^-x). sigmoid(0) = 0.5 exactly, sigmoid(+inf) = 1,
// sigmoid(-inf) = 0.
double sigmoid(double x);
void sigmoid(std::span<const double> x, std::span<double> y);

}  // namespace fed::vmath
