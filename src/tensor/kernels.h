// The model kernels in each instruction set, by name. Internal to tensor/:
// ops.h's gemm and ger_batch and vmath.h's span calls run one of these
// variants, picked once at start-up. Tests and the perf gate call both
// directly, to compare their bits and their speed.
//
//   sse2  16-byte Pair lanes: two doubles, SSE2 on x86-64, NEON on arm64.
//         Built on every target.
//   avx2  32-byte Quad lanes: four doubles. Built on x86-64 only
//         (FEDPROX_KERNELS_AVX2), for AVX2 without FMA; call it only where
//         kCpuHasAvx2 holds.
//
// Both variants instantiate one template, on the lane type, so they run
// the same IEEE operations on each element, in the same order. A lane
// never mixes elements: in gemm and ger_batch every output element keeps
// its own running sum, p ascending, and in vmath every element's result is
// a pure function of its input. Lane width only decides which elements
// share a register, so the two variants write the same bits on every
// input (tests/tensor_ops_test.cpp, tests/tensor_math_test.cpp).
//
// Shapes are the caller's job here: ops.h's entry points check them.

#pragma once

#include <span>

#include "tensor/tensor.h"

#if defined(__x86_64__)
#define FEDPROX_KERNELS_AVX2 1
#endif

namespace fed::kernels {

// True when this CPU runs the avx2 variant: x86-64 with AVX2 that the OS
// has enabled. Read once at start-up. A call made before that, from
// another file's static initializer, sees false and runs the sse2
// variant, which gives the same bits.
extern const bool kCpuHasAvx2;

namespace sse2 {
void gemm(const ConstMatrixView& a, const ConstMatrixView& b, MatrixView c);
void ger_batch(const ConstMatrixView& x, const ConstMatrixView& y,
               MatrixView c);
void exp(std::span<const double> x, std::span<double> y);
void log(std::span<const double> x, std::span<double> y);
void tanh(std::span<const double> x, std::span<double> y);
void sigmoid(std::span<const double> x, std::span<double> y);
}  // namespace sse2

#ifdef FEDPROX_KERNELS_AVX2
// Every 32-byte vector lives inside these functions: the lane code they
// run is always inlined into them, so it is compiled for AVX2 too.
#define FEDPROX_AVX2 __attribute__((target("avx2")))
namespace avx2 {
FEDPROX_AVX2 void gemm(const ConstMatrixView& a, const ConstMatrixView& b,
                       MatrixView c);
FEDPROX_AVX2 void ger_batch(const ConstMatrixView& x,
                            const ConstMatrixView& y, MatrixView c);
FEDPROX_AVX2 void exp(std::span<const double> x, std::span<double> y);
FEDPROX_AVX2 void log(std::span<const double> x, std::span<double> y);
FEDPROX_AVX2 void tanh(std::span<const double> x, std::span<double> y);
FEDPROX_AVX2 void sigmoid(std::span<const double> x, std::span<double> y);
}  // namespace avx2
#endif

}  // namespace fed::kernels
