// Batch plumbing of the models: scratch shaping, and the chunking,
// gathers and softmax output layer of the dense model (logistic
// regression).
//
// The dense model runs a call's batch in chunks of at most kChunkRows
// samples, so its scratch is bounded by the chunk, never by the client.
// Within a chunk the features are gathered feature-major (one column per
// sample) and the layer runs as one gemm(W, X^T), whose column i is
// gemv(W, x_i) bit for bit: the same products, in the same operand and
// summation order (tensor/ops.h). Parameter gradients run as one
// ger_batch over sample-major rows, bitwise the sample-by-sample ger
// calls. Bias, loss and bias-gradient terms are still added sample by
// sample in batch order, so every result equals the per-sample pass.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace fed {

// Most samples the dense model holds in scratch at once.
inline constexpr std::size_t kChunkRows = 64;

// Grows `buf` to hold a rows x cols matrix and views that prefix.
MatrixView shape(Vector& buf, std::size_t rows, std::size_t cols);

// Scratch of the dense model's passes, one per thread. Each buffer grows
// to the largest chunk it has held and is reused by every later call on
// the thread, so a warm call allocates nothing; a buffer holds at most
// kChunkRows rows of one model width.
struct DenseScratch {
  Vector x_t, x, product, logits;
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

// x_t(p, i) = features(chunk[i], p): the chunk as gemm's B operand.
MatrixView gather_columns(const Matrix& features,
                          std::span<const std::size_t> chunk, Vector& buf);
// x(i, p) = features(chunk[i], p): the chunk as ger_batch's Y operand.
MatrixView gather_rows(const Matrix& features,
                       std::span<const std::size_t> chunk, Vector& buf);

// logits(i, c) = product(c, i) + bias[c]: per-sample logits from a
// gemm(W, X^T) product, the bias added after the sum as gemv-then-add
// does.
MatrixView add_bias_transposed(const ConstMatrixView& product,
                               std::span<const double> bias, Vector& buf);

// For each sample of the chunk in order: adds its softmax cross-entropy
// to `total`, overwrites its logits row with dLoss/dLogits, and adds
// that row to `grad_bias`.
void softmax_grad_rows(const Dataset& data, std::span<const std::size_t> chunk,
                       MatrixView logits, std::span<double> grad_bias,
                       double& total);

// Mean loss (when `loss` is set) and predictions (when `out` is set) of
// `batch`, where logits(chunk) returns the chunk's B x C logits.
template <class Logits>
double evaluate_chunks(const Dataset& data, std::span<const std::size_t> batch,
                       bool loss, std::vector<std::int32_t>* out,
                       Logits&& logits) {
  if (out) out->resize(batch.size());
  double total = 0.0;
  std::size_t next = 0;
  for_each_chunk(batch, [&](std::span<const std::size_t> chunk) {
    const ConstMatrixView z = logits(chunk);
    for (std::size_t i = 0; i < chunk.size(); ++i, ++next) {
      if (loss) total += softmax_cross_entropy(z.row(i), data.labels[chunk[i]]);
      if (out) (*out)[next] = static_cast<std::int32_t>(argmax(z.row(i)));
    }
  });
  return loss ? total / static_cast<double>(batch.size()) : 0.0;
}

}  // namespace fed
