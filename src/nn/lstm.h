// Multi-layer LSTM sequence classifier with exact backpropagation through
// time. Covers both of the paper's non-convex tasks:
//   - Sent140-like: frozen (GloVe stand-in) embeddings, 2-layer LSTM,
//     binary sentiment head (num_classes = 2).
//   - Shakespeare-like: trainable 8-d embeddings, 2-layer LSTM,
//     next-character head (num_classes = vocab).
// The classifier reads a token sequence, runs it through `num_layers`
// LSTM layers, and softmax-classifies the final hidden state.
//
// Flat parameter layout:
//   [E (vocab x embed, only if trainable_embedding)]
//   for each layer l: [Wx_l (4H x in_l) | Wh_l (4H x H) | b_l (4H)]
//   [W_out (C x H) | b_out (C)]
// Gate order inside the 4H blocks: input, forget, candidate, output.
//
// Batched execution. Every call splits its batch into runs: consecutive
// samples of equal length, at most 64 timesteps in all (five 12-step
// samples), which bounds the activations training keeps. A run of B
// samples steps through time together: at each timestep every layer
// computes its B x 4H pre-activations with two gemms, (B x in)(in x 4H)
// for the input and (B x H)(H x 4H) for the recurrence, and BPTT runs one
// (B x 4H)(4H x H) product per step. The pre-activation keeps its two
// sums apart, z = (Wx x) + (Wh h) + b, so every value is bitwise what a
// sample-by-sample pass computes; gradients are accumulated sample by
// sample, newest step first (the summation-order contract in
// tensor/ops.h). All scratch lives in the call.

#pragma once

#include <memory>

#include "nn/embedding.h"
#include "nn/module.h"

namespace fed {

struct LstmConfig {
  std::size_t vocab_size = 0;
  std::size_t embed_dim = 0;
  std::size_t hidden_dim = 0;
  std::size_t num_layers = 1;
  std::size_t num_classes = 0;
  // When false, `frozen_embedding` supplies fixed token vectors and the
  // embedding is excluded from the parameter vector.
  bool trainable_embedding = true;
  std::shared_ptr<const EmbeddingTable> frozen_embedding;
};

class LstmClassifier final : public Model {
 public:
  explicit LstmClassifier(LstmConfig config);

  std::string name() const override { return "lstm_classifier"; }
  std::size_t parameter_count() const override { return param_count_; }
  const LstmConfig& config() const { return config_; }

  void init_parameters(std::span<double> w, Rng& rng) const override;
  double loss_and_grad(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const override;
  double loss(std::span<const double> w, const Dataset& data,
              std::span<const std::size_t> batch) const override;
  void predict(std::span<const double> w, const Dataset& data,
               std::span<const std::size_t> batch,
               std::vector<std::int32_t>& out) const override;
  // One forward pass per client serves both of its splits.
  std::unique_ptr<const Evaluation> evaluation(
      std::span<const double> w) const override;

 private:
  LstmConfig config_;
  std::size_t param_count_ = 0;
};

}  // namespace fed
