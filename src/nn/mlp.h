// Two-layer perceptron with tanh hidden activation. Not used by the
// paper's headline experiments but provided as the simplest non-convex
// dense model: it exercises the framework's model-agnosticism and is used
// in tests and the quickstart example.
//
// Parameter layout: [W1 (hidden x in) | b1 (hidden) | W2 (classes x hidden)
// | b2 (classes)].

#pragma once

#include "nn/module.h"

namespace fed {

struct DenseScratch;  // nn/batch.h

class Mlp final : public Model {
 public:
  Mlp(std::size_t input_dim, std::size_t hidden_dim, std::size_t num_classes);

  std::string name() const override { return "mlp"; }
  std::size_t parameter_count() const override;

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
  // Mean loss (when `loss` is set) and predictions (when `out` is set)
  // from one forward pass.
  double evaluate(std::span<const double> w, const Dataset& data,
                  std::span<const std::size_t> batch, bool loss,
                  std::vector<std::int32_t>* out) const;
  struct Blocks {
    ConstMatrixView w1;
    std::span<const double> b1;
    ConstMatrixView w2;
    std::span<const double> b2;
  };
  Blocks view(std::span<const double> w) const;
  // Forward pass of a chunk of B samples, each layer one gemm(W, X^T)
  // (nn/batch.h): leaves the tanh activations in s.hidden_t (hidden x B)
  // and returns the B x C logits.
  MatrixView forward(const Blocks& p, const Dataset& data,
                     std::span<const std::size_t> chunk,
                     DenseScratch& s) const;

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  std::size_t num_classes_;
};

}  // namespace fed
