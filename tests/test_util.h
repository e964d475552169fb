// Shared helpers for the test suite.

#pragma once

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/dataset.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace fed::testing {

// Quadratic model: per-sample loss 0.5 ||w - x_i||^2 over dense rows x_i.
// F(w) = 0.5 ||w - mean(x)||^2 + const, so minimizers, prox points and
// gradients all have closed forms — ideal for solver/aggregation checks.
class QuadraticModel final : public Model {
 public:
  explicit QuadraticModel(std::size_t dim) : dim_(dim) {}

  std::string name() const override { return "quadratic"; }
  std::size_t parameter_count() const override { return dim_; }

  void init_parameters(std::span<double> w, Rng&) const override { zero(w); }

  double loss_and_grad(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const override {
    zero(grad);
    double loss = 0.0;
    for (std::size_t idx : batch) {
      auto x = data.features.row(idx);
      for (std::size_t j = 0; j < dim_; ++j) {
        const double diff = w[j] - x[j];
        grad[j] += diff;
        loss += 0.5 * diff * diff;
      }
    }
    const double inv = 1.0 / static_cast<double>(batch.size());
    scale(grad, inv);
    return loss * inv;
  }

  void predict(std::span<const double>, const Dataset& data,
               std::span<const std::size_t> batch,
               std::vector<std::int32_t>& out) const override {
    out.assign(batch.size(), 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i] = data.labels[batch[i]];  // trivially "correct"
    }
  }

 private:
  std::size_t dim_;
};

// Forwards every call to `inner` except init_parameters, which fills
// `value`: a run that starts from a chosen, non-zero model.
class ConstantInitModel final : public Model {
 public:
  ConstantInitModel(const Model& inner, double value)
      : inner_(inner), value_(value) {}

  std::string name() const override { return inner_.name(); }
  std::size_t parameter_count() const override {
    return inner_.parameter_count();
  }
  void init_parameters(std::span<double> w, Rng&) const override {
    std::fill(w.begin(), w.end(), value_);
  }
  double loss_and_grad(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const override {
    return inner_.loss_and_grad(w, data, batch, grad);
  }
  double loss(std::span<const double> w, const Dataset& data,
              std::span<const std::size_t> batch) const override {
    return inner_.loss(w, data, batch);
  }
  void predict(std::span<const double> w, const Dataset& data,
               std::span<const std::size_t> batch,
               std::vector<std::int32_t>& out) const override {
    inner_.predict(w, data, batch, out);
  }
  double loss_and_predict(std::span<const double> w, const Dataset& data,
                          std::span<const std::size_t> batch,
                          std::vector<std::int32_t>& out) const override {
    return inner_.loss_and_predict(w, data, batch, out);
  }

 private:
  const Model& inner_;
  double value_;
};

// Dense dataset with the given rows as both features and (label 0) targets.
inline Dataset make_dense_dataset(const std::vector<Vector>& rows) {
  Dataset d;
  const std::size_t dim = rows.empty() ? 0 : rows.front().size();
  d.features = Matrix(0, dim);
  for (const auto& r : rows) {
    Vector& buf = d.features.storage();
    buf.insert(buf.end(), r.begin(), r.end());
    d.features = Matrix(d.features.rows() + 1, dim, std::move(buf));
    d.labels.push_back(0);
  }
  return d;
}

// Random dense classification dataset (labels uniform).
inline Dataset make_random_dataset(std::size_t n, std::size_t dim,
                                   std::size_t classes, Rng& rng) {
  Dataset d;
  d.features = Matrix(n, dim);
  for (double& v : d.features.storage()) v = rng.normal();
  d.labels.resize(n);
  for (auto& y : d.labels) {
    y = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  return d;
}

// Random token-sequence dataset.
inline Dataset make_random_sequences(std::size_t n, std::size_t seq_len,
                                     std::size_t vocab, std::size_t classes,
                                     Rng& rng) {
  Dataset d;
  d.tokens.resize(n);
  d.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.tokens[i].resize(seq_len);
    for (auto& t : d.tokens[i]) {
      t = static_cast<std::int32_t>(rng.uniform_int(vocab));
    }
    d.labels[i] = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  return d;
}

}  // namespace fed::testing
