#include "core/dissimilarity.h"

#include <cmath>

#include "tensor/ops.h"

namespace fed {

DissimilarityMetrics measure_dissimilarity(const Model& model,
                                           const FederatedDataset& data,
                                           std::span<const double> w,
                                           ThreadPool* pool) {
  const std::size_t n_clients = data.num_clients();
  const std::size_t d = model.parameter_count();
  const auto pk = data.client_weights();

  std::vector<Vector> grads(n_clients, Vector(d));
  parallel_for(pool, n_clients, [&](std::size_t k) {
    model.dataset_loss_and_grad(w, data.clients[k].train, grads[k]);
  });

  Vector grad_f(d, 0.0);
  for (std::size_t k = 0; k < n_clients; ++k) axpy(pk[k], grads[k], grad_f);

  DissimilarityMetrics m;
  m.grad_norm_f = norm2(grad_f);
  for (std::size_t k = 0; k < n_clients; ++k) {
    const double sq = dot(grads[k], grads[k]);
    m.expected_sq_norm += pk[k] * sq;
    const double dist = distance2(grads[k], grad_f);
    m.variance += pk[k] * dist * dist;
  }
  const double denom = m.grad_norm_f * m.grad_norm_f;
  if (denom > 1e-20) {
    m.b = std::sqrt(m.expected_sq_norm / denom);
  } else {
    // Stationary point all local functions agree on: B defined as 1
    // (Definition 3, footnote 2).
    m.b = 1.0;
  }
  return m;
}

}  // namespace fed
