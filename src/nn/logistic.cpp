#include "nn/logistic.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "nn/batch.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace fed {

namespace {

// The weights as the sample-major pass reads them: W^T (dim x classes),
// and b.
struct SampleMajorWeights {
  ConstMatrixView w_t;
  std::span<const double> bias;
};

// Transposes W of the flat vector `w` into `buf`.
SampleMajorWeights sample_major(std::span<const double> w, std::size_t dim,
                                std::size_t classes, Vector& buf) {
  MatrixView w_t = shape(buf, dim, classes);
  transpose(ConstMatrixView(w.subspan(0, classes * dim), classes, dim), w_t);
  return {w_t, w.subspan(classes * dim, classes)};
}

// The B x C logits of sample-major feature rows x: gemm(X, W^T), then
// the bias row by row. Row i is gemv(W, x_i) + b bit for bit: the same
// products, summed with p ascending from 0.0, and the bias added after
// the sum (tensor/ops.h).
ConstMatrixView logits_of(const SampleMajorWeights& weights,
                          const ConstMatrixView& x, Vector& buf) {
  MatrixView z = shape(buf, x.rows(), weights.w_t.cols());
  gemm(x, weights.w_t, z);
  for (std::size_t i = 0; i < z.rows(); ++i) {
    add(z.row(i), weights.bias, z.row(i));
  }
  return z;
}

// Calls fn(k, logits of sample k) for each sample k of `batch`, in order.
template <class Fn>
void for_each_logits(const SampleMajorWeights& weights, const Dataset& data,
                     std::span<const std::size_t> batch, DenseScratch& s,
                     Fn&& fn) {
  for_each_chunk(batch, [&](std::span<const std::size_t> chunk) {
    const ConstMatrixView z =
        logits_of(weights, chunk_rows(data.features, chunk, s.x), s.logits);
    for (std::size_t i = 0; i < chunk.size(); ++i) fn(chunk[i], z.row(i));
  });
}

// The same over every sample of `data` in order: each chunk of rows is a
// view of the features, with no index vector and no copy.
template <class Fn>
void for_each_logits(const SampleMajorWeights& weights, const Dataset& data,
                     DenseScratch& s, Fn&& fn) {
  for (std::size_t begin = 0; begin < data.size(); begin += kChunkRows) {
    const std::size_t count = std::min(kChunkRows, data.size() - begin);
    const ConstMatrixView z = logits_of(
        weights, row_range(data.features, begin, count), s.logits);
    for (std::size_t i = 0; i < count; ++i) fn(begin + i, z.row(i));
  }
}

class DenseEvaluation final : public Model::Evaluation {
 public:
  DenseEvaluation(std::span<const double> w, std::size_t dim,
                  std::size_t classes)
      : weights_(sample_major(w, dim, classes, w_t_)) {}

  ClientEval client(const ClientData& client) const override {
    DenseScratch& s = dense_scratch();
    return score_client(client, [&](const Dataset& split, auto&& fn) {
      for_each_logits(weights_, split, s, fn);
    });
  }

 private:
  Vector w_t_;
  SampleMajorWeights weights_;
};

}  // namespace

LogisticRegression::LogisticRegression(std::size_t input_dim,
                                       std::size_t num_classes)
    : input_dim_(input_dim), num_classes_(num_classes) {
  if (input_dim == 0 || num_classes < 2) {
    throw std::invalid_argument("LogisticRegression: bad shape");
  }
}

void LogisticRegression::init_parameters(std::span<double> w, Rng&) const {
  assert(w.size() == parameter_count());
  // Zero init: standard for convex logistic regression (and what the
  // paper's reference implementation uses for these tasks).
  zero(w);
}

MatrixView LogisticRegression::forward(std::span<const double> w,
                                       const Dataset& data,
                                       std::span<const std::size_t> chunk,
                                       DenseScratch& s) const {
  ConstMatrixView weight(w.subspan(0, num_classes_ * input_dim_), num_classes_,
                         input_dim_);
  auto bias = w.subspan(num_classes_ * input_dim_, num_classes_);
  MatrixView product = shape(s.product, num_classes_, chunk.size());
  gemm(weight, gather_columns(data.features, chunk, s.x_t), product);
  return add_bias_transposed(product, bias, s.logits);
}

double LogisticRegression::loss_and_grad(std::span<const double> w,
                                         const Dataset& data,
                                         std::span<const std::size_t> batch,
                                         std::span<double> grad) const {
  assert(w.size() == parameter_count() && grad.size() == parameter_count());
  assert(!batch.empty());
  zero(grad);
  MatrixView grad_w(grad.subspan(0, num_classes_ * input_dim_), num_classes_,
                    input_dim_);
  auto grad_b = grad.subspan(num_classes_ * input_dim_, num_classes_);

  DenseScratch& s = dense_scratch();
  double total_loss = 0.0;
  for_each_chunk(batch, [&](std::span<const std::size_t> chunk) {
    MatrixView logits = forward(w, data, chunk, s);
    // logits becomes dLoss/dLogits; accumulate into W, b grads.
    softmax_grad_rows(data, chunk, logits, grad_b, total_loss);
    ger_batch(logits, gather_rows(data.features, chunk, s.x), grad_w);
  });
  const double inv = 1.0 / static_cast<double>(batch.size());
  scale(grad, inv);
  return total_loss * inv;
}

double LogisticRegression::loss(std::span<const double> w, const Dataset& data,
                                std::span<const std::size_t> batch) const {
  assert(!batch.empty());
  DenseScratch& s = dense_scratch();
  double total = 0.0;
  for_each_logits(sample_major(w, input_dim_, num_classes_, s.w_t), data,
                  batch, s, [&](std::size_t k, std::span<const double> z) {
                    total += softmax_cross_entropy(z, data.labels[k]);
                  });
  return total / static_cast<double>(batch.size());
}

void LogisticRegression::predict(std::span<const double> w,
                                 const Dataset& data,
                                 std::span<const std::size_t> batch,
                                 std::vector<std::int32_t>& out) const {
  DenseScratch& s = dense_scratch();
  out.resize(batch.size());
  std::size_t next = 0;
  for_each_logits(sample_major(w, input_dim_, num_classes_, s.w_t), data,
                  batch, s, [&](std::size_t, std::span<const double> z) {
                    out[next++] = static_cast<std::int32_t>(argmax(z));
                  });
}

std::unique_ptr<const Model::Evaluation> LogisticRegression::evaluation(
    std::span<const double> w) const {
  return std::make_unique<DenseEvaluation>(w, input_dim_, num_classes_);
}

}  // namespace fed
