#include "sim/server.h"

#include <vector>

namespace fed {

namespace {

struct PerClientEval {
  double train_loss_sum = 0.0;   // loss * n_train
  std::size_t train_correct = 0;
  std::size_t train_total = 0;
  std::size_t test_correct = 0;
  std::size_t test_total = 0;
};

PerClientEval evaluate_client(const Model& model, const ClientData& client,
                              std::span<const double> w) {
  PerClientEval out;
  out.train_total = client.train.size();
  out.test_total = client.test.size();
  if (out.train_total > 0) {
    // One pass gives both the loss and the predictions.
    const auto batch = full_batch(out.train_total);
    std::vector<std::int32_t> pred;
    out.train_loss_sum = model.loss_and_predict(w, client.train, batch, pred) *
                         static_cast<double>(out.train_total);
    out.train_correct = count_correct(client.train, batch, pred);
  }
  if (out.test_total > 0) {
    out.test_correct = model.correct_count(w, client.test);
  }
  return out;
}

}  // namespace

GlobalEval evaluate_global(const Model& model, const FederatedDataset& data,
                           std::span<const double> w, ThreadPool* pool) {
  const std::size_t n_clients = data.num_clients();
  std::vector<PerClientEval> per_client(n_clients);
  if (pool) {
    pool->parallel_for(n_clients, [&](std::size_t k) {
      per_client[k] = evaluate_client(model, data.clients[k], w);
    });
  } else {
    for (std::size_t k = 0; k < n_clients; ++k) {
      per_client[k] = evaluate_client(model, data.clients[k], w);
    }
  }

  GlobalEval eval;
  double loss_sum = 0.0;
  std::size_t train_total = 0, train_correct = 0;
  std::size_t test_total = 0, test_correct = 0;
  for (const auto& c : per_client) {
    loss_sum += c.train_loss_sum;
    train_total += c.train_total;
    train_correct += c.train_correct;
    test_total += c.test_total;
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
