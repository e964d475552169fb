#include "nn/mlp.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/loss.h"
#include "tensor/ops.h"

namespace fed {

Mlp::Mlp(std::size_t input_dim, std::size_t hidden_dim,
         std::size_t num_classes)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      num_classes_(num_classes) {
  if (input_dim == 0 || hidden_dim == 0 || num_classes < 2) {
    throw std::invalid_argument("Mlp: bad shape");
  }
}

std::size_t Mlp::parameter_count() const {
  return hidden_dim_ * input_dim_ + hidden_dim_ + num_classes_ * hidden_dim_ +
         num_classes_;
}

Mlp::Blocks Mlp::view(std::span<const double> w) const {
  std::size_t off = 0;
  ConstMatrixView w1(w.subspan(off, hidden_dim_ * input_dim_), hidden_dim_,
                     input_dim_);
  off += hidden_dim_ * input_dim_;
  auto b1 = w.subspan(off, hidden_dim_);
  off += hidden_dim_;
  ConstMatrixView w2(w.subspan(off, num_classes_ * hidden_dim_), num_classes_,
                     hidden_dim_);
  off += num_classes_ * hidden_dim_;
  auto b2 = w.subspan(off, num_classes_);
  return {w1, b1, w2, b2};
}

void Mlp::init_parameters(std::span<double> w, Rng& rng) const {
  assert(w.size() == parameter_count());
  // Glorot-style scaling for the weight blocks, zeros for biases.
  const double s1 = std::sqrt(2.0 / static_cast<double>(input_dim_ + hidden_dim_));
  const double s2 =
      std::sqrt(2.0 / static_cast<double>(hidden_dim_ + num_classes_));
  std::size_t off = 0;
  for (std::size_t i = 0; i < hidden_dim_ * input_dim_; ++i) {
    w[off++] = rng.normal(0.0, s1);
  }
  for (std::size_t i = 0; i < hidden_dim_; ++i) w[off++] = 0.0;
  for (std::size_t i = 0; i < num_classes_ * hidden_dim_; ++i) {
    w[off++] = rng.normal(0.0, s2);
  }
  for (std::size_t i = 0; i < num_classes_; ++i) w[off++] = 0.0;
}

void Mlp::forward(const Blocks& p, std::span<const double> x,
                  std::span<double> hidden, std::span<double> logits) const {
  gemv(p.w1, x, hidden);
  for (std::size_t h = 0; h < hidden_dim_; ++h) {
    hidden[h] = std::tanh(hidden[h] + p.b1[h]);
  }
  gemv(p.w2, hidden, logits);
  for (std::size_t c = 0; c < num_classes_; ++c) logits[c] += p.b2[c];
}

double Mlp::loss_and_grad(std::span<const double> w, const Dataset& data,
                          std::span<const std::size_t> batch,
                          std::span<double> grad) const {
  assert(w.size() == parameter_count() && grad.size() == parameter_count());
  assert(!batch.empty());
  const Blocks p = view(w);
  zero(grad);

  std::size_t off = 0;
  MatrixView g_w1(grad.subspan(off, hidden_dim_ * input_dim_), hidden_dim_,
                  input_dim_);
  off += hidden_dim_ * input_dim_;
  auto g_b1 = grad.subspan(off, hidden_dim_);
  off += hidden_dim_;
  MatrixView g_w2(grad.subspan(off, num_classes_ * hidden_dim_), num_classes_,
                  hidden_dim_);
  off += num_classes_ * hidden_dim_;
  auto g_b2 = grad.subspan(off, num_classes_);

  Vector hidden(hidden_dim_), logits(num_classes_), dhidden(hidden_dim_);
  double total = 0.0;
  for (std::size_t idx : batch) {
    auto x = data.features.row(idx);
    forward(p, x, hidden, logits);
    total += softmax_cross_entropy_grad(logits, data.labels[idx]);
    // logits = dL/dlogits. Backprop through layer 2.
    ger(1.0, logits, hidden, g_w2);
    add(g_b2, logits, g_b2);
    gemv_transposed(p.w2, logits, dhidden);
    // Through tanh: dL/dpre = dL/dh * (1 - h^2).
    for (std::size_t h = 0; h < hidden_dim_; ++h) {
      dhidden[h] *= 1.0 - hidden[h] * hidden[h];
    }
    ger(1.0, dhidden, x, g_w1);
    add(g_b1, dhidden, g_b1);
  }
  const double inv = 1.0 / static_cast<double>(batch.size());
  scale(grad, inv);
  return total * inv;
}

double Mlp::evaluate(std::span<const double> w, const Dataset& data,
                     std::span<const std::size_t> batch, bool loss,
                     std::vector<std::int32_t>* out) const {
  const Blocks p = view(w);
  if (out) out->resize(batch.size());
  Vector hidden(hidden_dim_), logits(num_classes_);
  double total = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    forward(p, data.features.row(batch[i]), hidden, logits);
    if (loss) total += softmax_cross_entropy(logits, data.labels[batch[i]]);
    if (out) (*out)[i] = static_cast<std::int32_t>(argmax(logits));
  }
  return loss ? total / static_cast<double>(batch.size()) : 0.0;
}

double Mlp::loss(std::span<const double> w, const Dataset& data,
                 std::span<const std::size_t> batch) const {
  assert(!batch.empty());
  return evaluate(w, data, batch, /*loss=*/true, nullptr);
}

void Mlp::predict(std::span<const double> w, const Dataset& data,
                  std::span<const std::size_t> batch,
                  std::vector<std::int32_t>& out) const {
  evaluate(w, data, batch, /*loss=*/false, &out);
}

double Mlp::loss_and_predict(std::span<const double> w, const Dataset& data,
                             std::span<const std::size_t> batch,
                             std::vector<std::int32_t>& out) const {
  assert(!batch.empty());
  return evaluate(w, data, batch, /*loss=*/true, &out);
}

}  // namespace fed
