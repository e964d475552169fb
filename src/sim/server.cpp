#include "sim/server.h"

#include <vector>

namespace fed {

GlobalEval evaluate_global(const Model& model, const FederatedDataset& data,
                           std::span<const double> w, ThreadPool* pool) {
  const std::size_t n_clients = data.num_clients();
  const auto evaluation = model.evaluation(w);
  std::vector<ClientEval> per_client(n_clients);
  parallel_for(pool, n_clients, [&](std::size_t k) {
    per_client[k] = evaluation->client(data.clients[k]);
  });

  // Summed in client order, whatever the pool's schedule.
  GlobalEval eval;
  double loss_sum = 0.0;
  std::size_t train_total = 0, train_correct = 0;
  std::size_t test_total = 0, test_correct = 0;
  for (std::size_t k = 0; k < n_clients; ++k) {
    const ClientEval& c = per_client[k];
    loss_sum += c.train_loss_sum;
    train_total += data.clients[k].train.size();
    train_correct += c.train_correct;
    test_total += data.clients[k].test.size();
    test_correct += c.test_correct;
  }
  if (train_total > 0) {
    eval.train_loss = loss_sum / static_cast<double>(train_total);
    eval.train_accuracy =
        static_cast<double>(train_correct) / static_cast<double>(train_total);
  }
  if (test_total > 0) {
    eval.test_accuracy =
        static_cast<double>(test_correct) / static_cast<double>(test_total);
  }
  return eval;
}

}  // namespace fed
