#include "core/feddane.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace fed {

std::vector<Vector> feddane_corrections(const Model& model,
                                        const FederatedDataset& data,
                                        std::span<const std::size_t> selected,
                                        std::span<const double> w,
                                        ThreadPool* pool) {
  if (selected.empty()) {
    throw std::invalid_argument("feddane_corrections: empty selection");
  }
  const std::size_t d = model.parameter_count();
  const std::size_t k = selected.size();

  std::vector<Vector> grads(k, Vector(d));
  parallel_for(pool, k, [&](std::size_t i) {
    model.dataset_loss_and_grad(w, data.clients[selected[i]].train, grads[i]);
  });

  // grad~f = sum n_k grad F_k / sum n_k over the sampled devices.
  double total = 0.0;
  Vector grad_f(d, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    const auto n = static_cast<double>(data.clients[selected[i]].train.size());
    total += n;
    axpy(n, grads[i], grad_f);
  }
  if (total <= 0.0) {
    throw std::invalid_argument("feddane_corrections: no training samples");
  }
  scale(grad_f, 1.0 / total);

  std::vector<Vector> corrections(k, Vector(d));
  for (std::size_t i = 0; i < k; ++i) {
    subtract(grad_f, grads[i], corrections[i]);
  }
  return corrections;
}

}  // namespace fed
