#include "nn/logistic.h"

#include <cassert>
#include <stdexcept>

#include "nn/batch.h"
#include "tensor/ops.h"

namespace fed {

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

double LogisticRegression::evaluate(std::span<const double> w,
                                    const Dataset& data,
                                    std::span<const std::size_t> batch,
                                    bool loss,
                                    std::vector<std::int32_t>* out) const {
  DenseScratch& s = dense_scratch();
  return evaluate_chunks(data, batch, loss, out,
                         [&](std::span<const std::size_t> chunk) {
                           return forward(w, data, chunk, s);
                         });
}

double LogisticRegression::loss(std::span<const double> w, const Dataset& data,
                                std::span<const std::size_t> batch) const {
  assert(!batch.empty());
  return evaluate(w, data, batch, /*loss=*/true, nullptr);
}

void LogisticRegression::predict(std::span<const double> w,
                                 const Dataset& data,
                                 std::span<const std::size_t> batch,
                                 std::vector<std::int32_t>& out) const {
  evaluate(w, data, batch, /*loss=*/false, &out);
}

double LogisticRegression::loss_and_predict(
    std::span<const double> w, const Dataset& data,
    std::span<const std::size_t> batch, std::vector<std::int32_t>& out) const {
  assert(!batch.empty());
  return evaluate(w, data, batch, /*loss=*/true, &out);
}

}  // namespace fed
