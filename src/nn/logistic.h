// Multinomial logistic regression — the convex model the paper uses for
// the synthetic, MNIST, and FEMNIST tasks (y = argmax softmax(Wx + b)).
//
// Parameter layout in the flat vector: [W (classes x dim, row-major) | b].
//
// Two layouts, one set of bits (nn/batch.h): training runs chunks
// feature-major, gemm(W, X^T), because W changes on every step;
// loss(), predict() and evaluation run sample-major, gemm(X, W^T) under
// a W^T transposed once per call or per evaluation.

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
  // Transposes W once; each split then runs as the sample-major pass.
  std::unique_ptr<const Evaluation> evaluation(
      std::span<const double> w) const override;

 private:
  // Training's B x C chunk logits: (W X^T)^T + b, feature-major, each
  // logit summed as gemv(W, x) sums it (nn/batch.h).
  MatrixView forward(std::span<const double> w, const Dataset& data,
                     std::span<const std::size_t> chunk,
                     DenseScratch& s) const;

  std::size_t input_dim_;
  std::size_t num_classes_;
};

}  // namespace fed
