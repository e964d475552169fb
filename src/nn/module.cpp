#include "nn/module.h"

#include <numeric>

#include "tensor/ops.h"

namespace fed {

std::vector<std::size_t> full_batch(std::size_t size) {
  std::vector<std::size_t> idx(size);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

double Model::loss(std::span<const double> w, const Dataset& data,
                   std::span<const std::size_t> batch) const {
  Vector scratch(parameter_count());
  return loss_and_grad(w, data, batch, scratch);
}

namespace {

// Number of samples of `data` that predict() labels correctly.
std::size_t correct_predictions(const Model& model, std::span<const double> w,
                                const Dataset& data) {
  if (data.empty()) return 0;
  const auto batch = full_batch(data.size());
  std::vector<std::int32_t> pred;
  model.predict(w, data, batch, pred);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (pred[i] == data.labels[i]) ++correct;
  }
  return correct;
}

class DefaultEvaluation final : public Model::Evaluation {
 public:
  DefaultEvaluation(const Model& model, std::span<const double> w)
      : model_(model), w_(w) {}

  ClientEval client(const ClientData& client) const override {
    ClientEval out;
    if (!client.train.empty()) {
      const auto batch = full_batch(client.train.size());
      out.train_loss_sum = model_.loss(w_, client.train, batch) *
                           static_cast<double>(batch.size());
    }
    out.train_correct = correct_predictions(model_, w_, client.train);
    out.test_correct = correct_predictions(model_, w_, client.test);
    return out;
  }

 private:
  const Model& model_;
  std::span<const double> w_;
};

}  // namespace

std::unique_ptr<const Model::Evaluation> Model::evaluation(
    std::span<const double> w) const {
  return std::make_unique<DefaultEvaluation>(*this, w);
}

double Model::dataset_loss(std::span<const double> w,
                           const Dataset& data) const {
  if (data.empty()) return 0.0;
  const auto batch = full_batch(data.size());
  return loss(w, data, batch);
}

double Model::dataset_loss_and_grad(std::span<const double> w,
                                    const Dataset& data,
                                    std::span<double> grad) const {
  zero(grad);
  if (data.empty()) return 0.0;
  const auto batch = full_batch(data.size());
  return loss_and_grad(w, data, batch, grad);
}

double Model::accuracy(std::span<const double> w, const Dataset& data) const {
  if (data.empty()) return 0.0;
  return static_cast<double>(correct_predictions(*this, w, data)) /
         static_cast<double>(data.size());
}

}  // namespace fed
