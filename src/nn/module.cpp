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

std::size_t count_correct(const Dataset& data,
                          std::span<const std::size_t> batch,
                          std::span<const std::int32_t> pred) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (pred[i] == data.labels[batch[i]]) ++correct;
  }
  return correct;
}

double Model::loss_and_predict(std::span<const double> w, const Dataset& data,
                               std::span<const std::size_t> batch,
                               std::vector<std::int32_t>& out) const {
  predict(w, data, batch, out);
  return loss(w, data, batch);
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

std::size_t Model::correct_count(std::span<const double> w,
                                 const Dataset& data) const {
  if (data.empty()) return 0;
  const auto batch = full_batch(data.size());
  std::vector<std::int32_t> pred;
  predict(w, data, batch, pred);
  return count_correct(data, batch, pred);
}

double Model::accuracy(std::span<const double> w, const Dataset& data) const {
  if (data.empty()) return 0.0;
  return static_cast<double>(correct_count(w, data)) /
         static_cast<double>(data.size());
}

}  // namespace fed
