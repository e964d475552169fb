// Edge cases and failure injection across module boundaries.

#include <gtest/gtest.h>

#include "bench_common.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "grad_check.h"
#include "nn/logistic.h"
#include "nn/lstm.h"
#include "sim/server.h"
#include "support/log.h"
#include "test_util.h"

namespace fed {
namespace {

class EdgeCaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }
};

// Variable-length sequences inside one batch: the LSTM must handle each
// sample's own horizon, and gradients must stay exact.
TEST_F(EdgeCaseTest, LstmVariableLengthBatchGradCheck) {
  LstmConfig config;
  config.vocab_size = 6;
  config.embed_dim = 3;
  config.hidden_dim = 4;
  config.num_layers = 2;
  config.num_classes = 3;
  config.trainable_embedding = true;
  LstmClassifier model(config);

  Dataset data;
  data.tokens = {{1}, {0, 2, 4}, {5, 5, 5, 5, 5, 1, 0}, {3, 2}};
  data.labels = {0, 1, 2, 1};
  Rng rng = make_stream(99, StreamKind::kTest);
  Vector w(model.parameter_count());
  model.init_parameters(w, rng);
  const auto batch = full_batch(4);
  const auto result = check_gradients(model, w, data, batch, 1e-5, 120);
  EXPECT_TRUE(result.passed(1e-5)) << result.max_relative_error;
}

// A client whose test split is empty must not poison global evaluation.
TEST_F(EdgeCaseTest, EvaluateGlobalWithEmptyTestSets) {
  testing::QuadraticModel model(2);
  FederatedDataset fed;
  fed.clients.resize(2);
  fed.clients[0].train = testing::make_dense_dataset({{1.0, 1.0}});
  // client 0 has no test data at all
  fed.clients[1].train = testing::make_dense_dataset({{2.0, 2.0}});
  fed.clients[1].test = testing::make_dense_dataset({{2.0, 2.0}});
  Vector w{0.0, 0.0};
  const GlobalEval eval = evaluate_global(model, fed, w, nullptr);
  EXPECT_TRUE(std::isfinite(eval.train_loss));
  EXPECT_DOUBLE_EQ(eval.test_accuracy, 1.0);  // only client 1's test counts
}

// With a 100% straggler fraction, FedAvg drops every device every round:
// the global model must stay frozen and the metrics constant.
TEST_F(EdgeCaseTest, FedAvgAllStragglersFreezesModel) {
  SyntheticConfig sc = synthetic_config(1.0, 1.0, 21);
  sc.num_devices = 6;
  sc.min_samples = 10;
  sc.mean_log = 2.0;
  sc.sigma_log = 0.3;
  const FederatedDataset data = make_synthetic(sc);
  LogisticRegression model(data.input_dim, data.num_classes);
  TrainerConfig c = fedavg_config();
  c.rounds = 5;
  c.devices_per_round = 3;
  c.systems.epochs = 5;
  c.systems.straggler_fraction = 1.0;
  c.seed = 21;
  auto h = Trainer(model, data, c).run();
  const double initial = *h.rounds.front().train_loss;
  for (const auto& m : h.rounds) {
    if (m.evaluated()) {
      EXPECT_DOUBLE_EQ(*m.train_loss, initial);
    }
    if (m.round > 0) {
      EXPECT_EQ(m.contributors, 0u);
    }
  }
}

// FedProx under the same conditions keeps training (partial work counts).
TEST_F(EdgeCaseTest, FedProxAllStragglersStillTrains) {
  SyntheticConfig sc = synthetic_config(1.0, 1.0, 21);
  sc.num_devices = 6;
  sc.min_samples = 10;
  sc.mean_log = 2.0;
  sc.sigma_log = 0.3;
  const FederatedDataset data = make_synthetic(sc);
  LogisticRegression model(data.input_dim, data.num_classes);
  TrainerConfig c = fedprox_config(0.0);
  c.rounds = 10;
  c.devices_per_round = 3;
  c.systems.epochs = 5;
  c.systems.straggler_fraction = 1.0;
  c.learning_rate = 0.03;
  c.seed = 21;
  auto h = Trainer(model, data, c).run();
  EXPECT_LT(*h.final_metrics().train_loss, *h.rounds.front().train_loss);
}

// Mini-batches larger than a device's dataset degrade to full batches.
TEST_F(EdgeCaseTest, BatchSizeLargerThanClientData) {
  testing::QuadraticModel model(2);
  FederatedDataset fed;
  fed.clients.resize(2);
  fed.clients[0].train = testing::make_dense_dataset({{1.0, 3.0}});
  fed.clients[1].train = testing::make_dense_dataset({{2.0, 0.0}, {4.0, 2.0}});
  TrainerConfig c = fedprox_config(0.1);
  c.rounds = 4;
  c.devices_per_round = 2;
  c.batch_size = 100;  // far larger than any client
  c.systems.epochs = 2;
  c.learning_rate = 0.2;
  c.seed = 5;
  auto h = Trainer(model, fed, c).run();
  EXPECT_FALSE(h.diverged());
  EXPECT_LT(*h.final_metrics().train_loss, *h.rounds.front().train_loss);
}

TEST_F(EdgeCaseTest, FinalMetricsThrowsOnEmptyHistory) {
  TrainHistory h;
  EXPECT_THROW(h.final_metrics(), std::logic_error);
}

TEST_F(EdgeCaseTest, DivergedDetectsNonFiniteLoss) {
  TrainHistory h;
  RoundMetrics m;
  m.train_loss = std::numeric_limits<double>::quiet_NaN();
  h.rounds.push_back(m);
  EXPECT_TRUE(h.diverged());
}

TEST_F(EdgeCaseTest, SettledAccuracyDivergenceRule) {
  TrainHistory h;
  // Loss creeps up; by round 11 f_t - f_{t-10} = 1.1 > 1 -> diverging.
  for (std::size_t i = 0; i < 15; ++i) {
    RoundMetrics m;
    m.round = i;
    m.train_loss = 1.0 + 0.11 * static_cast<double>(i);
    m.test_accuracy = 0.01 * static_cast<double>(i);
    h.rounds.push_back(m);
  }
  // First i with f_i - f_{i-10} > 1: 0.11 * 10 = 1.1 at i = 10.
  EXPECT_DOUBLE_EQ(bench::settled_accuracy(h), 0.10);
}

// Device budgets for devices with a single training sample.
TEST_F(EdgeCaseTest, SingleSampleDeviceTrains) {
  testing::QuadraticModel model(1);
  FederatedDataset fed;
  fed.clients.resize(2);
  fed.clients[0].train = testing::make_dense_dataset({{5.0}});
  fed.clients[1].train = testing::make_dense_dataset({{-5.0}});
  TrainerConfig c = fedprox_config(0.0);
  c.rounds = 3;
  c.devices_per_round = 2;
  c.batch_size = 10;
  c.systems.epochs = 3;
  c.learning_rate = 0.5;
  c.seed = 9;
  auto h = Trainer(model, fed, c).run();
  EXPECT_FALSE(h.diverged());
}

}  // namespace
}  // namespace fed
