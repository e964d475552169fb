// Batch plumbing of the models: scratch shaping, and the chunking,
// gathers and softmax output layer of the dense model (logistic
// regression).
//
// The dense model runs a call's batch in chunks of at most kChunkRows
// samples, so its scratch is bounded by the chunk, never by the client.
// It has two layouts, one per kind of call, and both give the bits of
// the per-sample pass gemv(W, x) + b:
//   - Training is feature-major. The chunk is gathered one column per
//     sample and the layer runs as one gemm(W, X^T), whose column i is
//     gemv(W, x_i) bit for bit. W changes on every step, so it is read
//     as it lies. Parameter gradients run as one ger_batch over
//     sample-major rows, bitwise the sample-by-sample ger calls.
//   - Evaluation (loss, predict, global evaluation) is sample-major.
//     The chunk is a view of consecutive feature rows (gathered only
//     when the batch is not consecutive) and the layer runs as one
//     gemm(X, W^T) under a W^T transposed once per call, whose row i is
//     gemv(W, x_i) bit for bit. A client's few samples are gemm's rows
//     here, not its slow column tails.
// Either way each logit sums the same products with p ascending from
// 0.0 (tensor/ops.h), and bias, loss and bias-gradient terms are added
// sample by sample in batch order after the sum, so every result equals
// the per-sample pass.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace fed {

// Most samples the dense model holds in scratch at once.
inline constexpr std::size_t kChunkRows = 64;

// Grows `buf` to hold a rows x cols matrix and views that prefix.
MatrixView shape(Vector& buf, std::size_t rows, std::size_t cols);

// Scratch of the dense model's passes, one per thread. Each buffer grows
// to the largest chunk it has held and is reused by every later call on
// the thread, so a warm call allocates nothing; a buffer holds at most
// kChunkRows rows of one model width, and w_t one call's W^T.
struct DenseScratch {
  Vector x_t, x, product, logits, w_t;
};
DenseScratch& dense_scratch();

// Calls fn(chunk) for consecutive slices of `batch`, each at most
// kChunkRows samples, in batch order.
template <class Fn>
void for_each_chunk(std::span<const std::size_t> batch, Fn&& fn) {
  for (std::size_t begin = 0; begin < batch.size(); begin += kChunkRows) {
    fn(batch.subspan(begin, std::min(kChunkRows, batch.size() - begin)));
  }
}

// Rows [begin, begin + count) of `m`, as a view.
ConstMatrixView row_range(const ConstMatrixView& m, std::size_t begin,
                          std::size_t count);

// x_t(p, i) = features(chunk[i], p): the chunk as gemm's B operand.
MatrixView gather_columns(const Matrix& features,
                          std::span<const std::size_t> chunk, Vector& buf);
// x(i, p) = features(chunk[i], p): the chunk as ger_batch's Y operand.
MatrixView gather_rows(const Matrix& features,
                       std::span<const std::size_t> chunk, Vector& buf);
// The same rows as gather_rows, as a view of `features` when the chunk
// is consecutive samples (no copy), else gathered into `buf`.
ConstMatrixView chunk_rows(const Matrix& features,
                           std::span<const std::size_t> chunk, Vector& buf);

// logits(i, c) = product(c, i) + bias[c]: per-sample logits from a
// gemm(W, X^T) product, the bias added after the sum as gemv-then-add
// does.
MatrixView add_bias_transposed(const ConstMatrixView& product,
                               std::span<const double> bias, Vector& buf);

// Whether `logits` predict `label`: argmax, ties to the lowest class.
inline bool predicts(std::span<const double> logits, std::int32_t label) {
  return static_cast<std::int32_t>(argmax(logits)) == label;
}

// One client's evaluation terms (nn/module.h), where
// each_logits(split, fn) calls fn(k, logits of sample k) for every
// sample k of the split, in order. The loss sum is the mean times n,
// bitwise loss() * n; the correct counts are taken inline.
template <class EachLogits>
ClientEval score_client(const ClientData& client, EachLogits&& each_logits) {
  ClientEval out;
  const Dataset& train = client.train;
  if (!train.empty()) {
    double total = 0.0;
    each_logits(train, [&](std::size_t k, std::span<const double> z) {
      total += softmax_cross_entropy(z, train.labels[k]);
      if (predicts(z, train.labels[k])) ++out.train_correct;
    });
    const double n = static_cast<double>(train.size());
    out.train_loss_sum = (total / n) * n;
  }
  const Dataset& test = client.test;
  each_logits(test, [&](std::size_t k, std::span<const double> z) {
    if (predicts(z, test.labels[k])) ++out.test_correct;
  });
  return out;
}

// For each sample of the chunk in order: adds its softmax cross-entropy
// to `total`, overwrites its logits row with dLoss/dLogits, and adds
// that row to `grad_bias`.
void softmax_grad_rows(const Dataset& data, std::span<const std::size_t> chunk,
                       MatrixView logits, std::span<double> grad_bias,
                       double& total);

}  // namespace fed
