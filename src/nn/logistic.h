// Multinomial logistic regression — the convex model the paper uses for
// the synthetic, MNIST, and FEMNIST tasks (y = argmax softmax(Wx + b)).
//
// Parameter layout in the flat vector: [W (classes x dim, row-major) | b].

#pragma once

#include "nn/module.h"

namespace fed {

struct DenseScratch;  // nn/batch.h

class LogisticRegression final : public Model {
 public:
  LogisticRegression(std::size_t input_dim, std::size_t num_classes);

  std::string name() const override { return "logistic_regression"; }
  std::size_t parameter_count() const override {
    return num_classes_ * input_dim_ + num_classes_;
  }

  std::size_t input_dim() const { return input_dim_; }
  std::size_t num_classes() const { return num_classes_; }

  void init_parameters(std::span<double> w, Rng& rng) const override;
  double loss_and_grad(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const override;
  double loss(std::span<const double> w, const Dataset& data,
              std::span<const std::size_t> batch) const override;
  void predict(std::span<const double> w, const Dataset& data,
               std::span<const std::size_t> batch,
               std::vector<std::int32_t>& out) const override;
  double loss_and_predict(std::span<const double> w, const Dataset& data,
                          std::span<const std::size_t> batch,
                          std::vector<std::int32_t>& out) const override;

 private:
  // The chunk's B x C logits: (W X^T)^T + b, each logit summed as
  // gemv(W, x) sums it (nn/batch.h).
  MatrixView forward(std::span<const double> w, const Dataset& data,
                     std::span<const std::size_t> chunk,
                     DenseScratch& s) const;
  // Mean loss (when `loss` is set) and predictions (when `out` is set)
  // from one forward pass.
  double evaluate(std::span<const double> w, const Dataset& data,
                  std::span<const std::size_t> batch, bool loss,
                  std::vector<std::int32_t>* out) const;

  std::size_t input_dim_;
  std::size_t num_classes_;
};

}  // namespace fed
