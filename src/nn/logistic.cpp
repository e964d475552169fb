#include "nn/logistic.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/loss.h"
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

void LogisticRegression::logits_for(std::span<const double> w,
                                    std::span<const double> x,
                                    std::span<double> logits) const {
  ConstMatrixView weight(w.subspan(0, num_classes_ * input_dim_), num_classes_,
                         input_dim_);
  auto bias = w.subspan(num_classes_ * input_dim_, num_classes_);
  gemv(weight, x, logits);
  for (std::size_t c = 0; c < num_classes_; ++c) logits[c] += bias[c];
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

  Vector logits(num_classes_);
  double total_loss = 0.0;
  for (std::size_t idx : batch) {
    auto x = data.features.row(idx);
    logits_for(w, x, logits);
    total_loss += softmax_cross_entropy_grad(logits, data.labels[idx]);
    // logits now holds dLoss/dLogits; accumulate into W, b grads.
    ger(1.0, logits, x, grad_w);
    add(grad_b, logits, grad_b);
  }
  const double inv = 1.0 / static_cast<double>(batch.size());
  scale(grad, inv);
  return total_loss * inv;
}

double LogisticRegression::evaluate(std::span<const double> w,
                                    const Dataset& data,
                                    std::span<const std::size_t> batch,
                                    bool loss,
                                    std::vector<std::int32_t>* out) const {
  if (out) out->resize(batch.size());
  Vector logits(num_classes_);
  double total = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    logits_for(w, data.features.row(batch[i]), logits);
    if (loss) total += softmax_cross_entropy(logits, data.labels[batch[i]]);
    if (out) (*out)[i] = static_cast<std::int32_t>(argmax(logits));
  }
  return loss ? total / static_cast<double>(batch.size()) : 0.0;
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
