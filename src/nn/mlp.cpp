#include "nn/mlp.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/batch.h"
#include "tensor/ops.h"
#include "tensor/vmath.h"

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

MatrixView Mlp::forward(const Blocks& p, const Dataset& data,
                        std::span<const std::size_t> chunk,
                        DenseScratch& s) const {
  MatrixView hidden_t = shape(s.hidden_t, hidden_dim_, chunk.size());
  gemm(p.w1, gather_columns(data.features, chunk, s.x_t), hidden_t);
  for (std::size_t h = 0; h < hidden_dim_; ++h) {
    const std::span<double> row = hidden_t.row(h);
    for (double& v : row) v += p.b1[h];
    vmath::tanh(row, row);
  }
  MatrixView product = shape(s.product, num_classes_, chunk.size());
  gemm(p.w2, hidden_t, product);
  return add_bias_transposed(product, p.b2, s.logits);
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

  DenseScratch& s = dense_scratch();
  double total = 0.0;
  for_each_chunk(batch, [&](std::span<const std::size_t> chunk) {
    MatrixView logits = forward(p, data, chunk, s);
    MatrixView hidden = shape(s.hidden, chunk.size(), hidden_dim_);
    transpose(shape(s.hidden_t, hidden_dim_, chunk.size()), hidden);
    // logits = dL/dlogits. Backprop through layer 2.
    softmax_grad_rows(data, chunk, logits, g_b2, total);
    ger_batch(logits, hidden, g_w2);
    MatrixView dhidden = shape(s.dhidden, chunk.size(), hidden_dim_);
    gemm(logits, p.w2, dhidden);
    // Through tanh: dL/dpre = dL/dh * (1 - h^2).
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      for (std::size_t h = 0; h < hidden_dim_; ++h) {
        dhidden(i, h) *= 1.0 - hidden(i, h) * hidden(i, h);
      }
      add(g_b1, dhidden.row(i), g_b1);
    }
    ger_batch(dhidden, gather_rows(data.features, chunk, s.x), g_w1);
  });
  const double inv = 1.0 / static_cast<double>(batch.size());
  scale(grad, inv);
  return total * inv;
}

double Mlp::evaluate(std::span<const double> w, const Dataset& data,
                     std::span<const std::size_t> batch, bool loss,
                     std::vector<std::int32_t>* out) const {
  const Blocks p = view(w);
  DenseScratch& s = dense_scratch();
  return evaluate_chunks(data, batch, loss, out,
                         [&](std::span<const std::size_t> chunk) {
                           return forward(p, data, chunk, s);
                         });
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
