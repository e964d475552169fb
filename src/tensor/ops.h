// Linear-algebra and elementwise kernels over spans / Matrix.
//
// Everything takes std::span so the same kernels run on whole parameter
// vectors, weight-block views, and data rows without copies. Sizes are
// asserted in debug builds and validated (throw) where a mismatch is a
// plausible user error rather than an internal bug.

#pragma once

#include <span>

#include "tensor/tensor.h"

namespace fed {

// ---- vector ops -----------------------------------------------------------

// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);
// x *= alpha
void scale(std::span<double> x, double alpha);
// dst = src
void copy(std::span<const double> src, std::span<double> dst);
// <x, y>
double dot(std::span<const double> x, std::span<const double> y);
// ||x||_2
double norm2(std::span<const double> x);
// ||x - y||_2
double distance2(std::span<const double> x, std::span<const double> y);
// sum of entries
double sum(std::span<const double> x);
// dst = a - b
void subtract(std::span<const double> a, std::span<const double> b,
              std::span<double> dst);
// dst = a + b
void add(std::span<const double> a, std::span<const double> b,
         std::span<double> dst);
// x = 0
void zero(std::span<double> x);

// ---- matrix ops -----------------------------------------------------------
//
// Summation-order contract. Each kernel fixes the order in which every
// output element's terms are added, and the models' bit-identity
// (TrainHistory equal across threads, shards and kernel rewrites) rests
// on it. No kernel reassociates, skips zero terms, or fuses a multiply
// into an add, so NaN and Inf in any operand reach the output. Below,
// "sum from 0.0" means acc = 0.0, then acc = acc + term for each term in
// the order given, which is what dot() does.

// y = A x           (A: m x n, x: n, y: m)
//   y[r] = 0.0 + (sum from 0.0 over c ascending of A[r][c] * x[c])
void gemv(const ConstMatrixView& a, std::span<const double> x,
          std::span<double> y);
// y = A^T x         (A: m x n, x: m, y: n)
//   y[c] = sum from 0.0 over r ascending of x[r] * A[r][c]
void gemv_transposed(const ConstMatrixView& a, std::span<const double> x,
                     std::span<double> y);
// y += A x
//   y[r] = y[r] + (sum from 0.0 over c ascending of A[r][c] * x[c])
void gemv_accumulate(const ConstMatrixView& a, std::span<const double> x,
                     std::span<double> y);
// C = A B           (A: m x k, B: k x n, C: m x n)
//   C[i][j] = sum from 0.0 over p ascending of A[i][p] * B[p][j]
// Rows of C are independent, so row i of gemm(X, W^T) is bitwise
// gemv(W, X.row(i)) and row i of gemm(D, W) is bitwise
// gemv_transposed(W, D.row(i)). Register-blocked: each tile keeps 2 x 8
// sums in 16-byte registers, or 2 x 16 in 32-byte AVX2 registers, and
// streams a row of B per step of p. The AVX2 variant runs where the CPU
// has it, picked once at start-up (tensor/kernels.h); lane width only
// decides which elements share a register, so both write the same bits.
void gemm(const ConstMatrixView& a, const ConstMatrixView& b, MatrixView c);
// A += alpha * x y^T  (rank-1 update; A: m x n, x: m, y: n)
//   A[r][c] = A[r][c] + (alpha * x[r]) * y[c]
void ger(double alpha, std::span<const double> x, std::span<const double> y,
         MatrixView a);
// C += X^T Y        (X: K x m, Y: K x n, C: m x n) — K rank-1 updates
// applied in row order, each term added to C directly:
//   C[i][j] = ((C[i][j] + X[0][i] * Y[0][j]) + X[1][i] * Y[1][j]) + ...
// Bitwise equal to ger(1.0, X.row(k), Y.row(k), C) for k = 0..K-1, so a
// caller picks the accumulation order by the order of its rows.
// Register-blocked: each tile of C stays in registers for all K, 4 x 4 in
// 16-byte lanes or 4 x 8 in AVX2 lanes, dispatched as gemm is.
void ger_batch(const ConstMatrixView& x, const ConstMatrixView& y,
               MatrixView c);
// At = A^T          (A: m x n, At: n x m). Exact copy, no arithmetic.
void transpose(const ConstMatrixView& a, MatrixView at);

// ---- nonlinearities --------------------------------------------------------
//
// Every transcendental of the model path is tensor/vmath.h's: exp, log,
// tanh and sigmoid in fixed IEEE double arithmetic, each element's result
// a pure function of its input, the same bits on every host. Nothing in
// nn/, tensor/ or optim/ calls libm's (tools/fedlint rule libm-in-model).
// Sums below run in index order from 0.0, as sum() does.

// sum of vmath::exp(x[i] - shift), i ascending. Bitwise equal to
// subtracting `shift`, one span vmath::exp, then sum().
double sum_exp(std::span<const double> x, double shift);
// Index of the maximum element. Requires non-empty input; ties -> lowest.
std::size_t argmax(std::span<const double> x);

// ---- misc -------------------------------------------------------------------

// Returns true if all entries are finite.
bool all_finite(std::span<const double> x);

}  // namespace fed
