#include "core/trainer.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/observer.h"
#include "optim/gd.h"
#include "support/log.h"

namespace fed {
namespace {

class TrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& iid_data() {
    static const FederatedDataset data = [] {
      SyntheticConfig c = synthetic_iid_config(3);
      c.num_devices = 12;
      c.min_samples = 20;
      c.mean_log = 3.0;
      c.sigma_log = 0.5;
      return make_synthetic(c);
    }();
    return data;
  }

  static const FederatedDataset& noniid_data() {
    static const FederatedDataset data = [] {
      SyntheticConfig c = synthetic_config(1.0, 1.0, 3);
      c.num_devices = 12;
      c.min_samples = 20;
      c.mean_log = 3.0;
      c.sigma_log = 0.5;
      return make_synthetic(c);
    }();
    return data;
  }

  static TrainerConfig small_config(Algorithm algorithm, double mu,
                                    double stragglers) {
    TrainerConfig c;
    c.algorithm = algorithm;
    c.mu = mu;
    c.rounds = 25;
    c.devices_per_round = 5;
    c.systems.epochs = 10;
    c.systems.straggler_fraction = stragglers;
    c.learning_rate = 0.01;
    c.batch_size = 10;
    c.seed = 11;
    return c;
  }
};

TEST_F(TrainerTest, HistoryShapeAndRoundZero) {
  LogisticRegression model(iid_data().input_dim, iid_data().num_classes);
  auto history =
      Trainer(model, iid_data(), small_config(Algorithm::kFedProx, 0.0, 0.0))
          .run();
  ASSERT_EQ(history.rounds.size(), 26u);  // round 0 + 25 training rounds
  EXPECT_TRUE(history.rounds.front().evaluated());
  EXPECT_EQ(history.rounds.front().round, 0u);
  EXPECT_EQ(history.final_parameters.size(), model.parameter_count());
}

TEST_F(TrainerTest, LossDecreasesOnIidData) {
  LogisticRegression model(iid_data().input_dim, iid_data().num_classes);
  auto history =
      Trainer(model, iid_data(), small_config(Algorithm::kFedProx, 0.0, 0.0))
          .run();
  const double first = *history.rounds.front().train_loss;
  const double last = *history.final_metrics().train_loss;
  EXPECT_LT(last, first * 0.8);
  EXPECT_FALSE(history.diverged());
}

TEST_F(TrainerTest, FedAvgIdenticalToFedProxMuZeroWithoutStragglers) {
  // With no systems heterogeneity, FedAvg (drop) and FedProx mu=0 (keep)
  // make exactly the same updates under paired randomness.
  LogisticRegression model(noniid_data().input_dim, noniid_data().num_classes);
  auto avg =
      Trainer(model, noniid_data(), small_config(Algorithm::kFedAvg, 0.0, 0.0))
          .run();
  auto prox = Trainer(model, noniid_data(),
                      small_config(Algorithm::kFedProx, 0.0, 0.0))
                  .run();
  ASSERT_EQ(avg.final_parameters.size(), prox.final_parameters.size());
  for (std::size_t i = 0; i < avg.final_parameters.size(); ++i) {
    ASSERT_DOUBLE_EQ(avg.final_parameters[i], prox.final_parameters[i]);
  }
}

TEST_F(TrainerTest, RunsAreExactlyReproducible) {
  LogisticRegression model(noniid_data().input_dim, noniid_data().num_classes);
  const auto config = small_config(Algorithm::kFedProx, 0.1, 0.5);
  auto a = Trainer(model, noniid_data(), config).run();
  auto b = Trainer(model, noniid_data(), config).run();
  EXPECT_EQ(a.final_parameters, b.final_parameters);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss);
  }
}

TEST_F(TrainerTest, FedAvgDropsStragglersFromAggregation) {
  LogisticRegression model(noniid_data().input_dim, noniid_data().num_classes);
  auto history = Trainer(model, noniid_data(),
                         small_config(Algorithm::kFedAvg, 0.0, 0.5))
                     .run();
  bool saw_drop = false;
  for (std::size_t i = 1; i < history.rounds.size(); ++i) {
    const auto& m = history.rounds[i];
    EXPECT_EQ(m.contributors + m.stragglers, 5u);
    if (m.stragglers > 0) saw_drop = true;
  }
  EXPECT_TRUE(saw_drop);
}

TEST_F(TrainerTest, FedProxKeepsStragglerContributions) {
  LogisticRegression model(noniid_data().input_dim, noniid_data().num_classes);
  auto history = Trainer(model, noniid_data(),
                         small_config(Algorithm::kFedProx, 0.0, 0.9))
                     .run();
  for (std::size_t i = 1; i < history.rounds.size(); ++i) {
    EXPECT_EQ(history.rounds[i].contributors, 5u);
  }
}

TEST_F(TrainerTest, EvalEveryIsHonoredAndFinalRoundAlwaysEvaluated) {
  LogisticRegression model(iid_data().input_dim, iid_data().num_classes);
  auto config = small_config(Algorithm::kFedProx, 0.0, 0.0);
  config.eval_every = 10;
  auto history = Trainer(model, iid_data(), config).run();
  std::size_t evaluated = 0;
  for (const auto& m : history.rounds) evaluated += m.evaluated() ? 1 : 0;
  EXPECT_EQ(evaluated, 4u);  // rounds 0, 10, 20, 25
  EXPECT_TRUE(history.rounds.back().evaluated());
}

TEST_F(TrainerTest, GammaMeasurementRecorded) {
  LogisticRegression model(iid_data().input_dim, iid_data().num_classes);
  auto config = small_config(Algorithm::kFedProx, 1.0, 0.0);
  config.measure_gamma = true;
  config.rounds = 3;
  auto history = Trainer(model, iid_data(), config).run();
  for (std::size_t i = 1; i < history.rounds.size(); ++i) {
    ASSERT_TRUE(history.rounds[i].mean_gamma.has_value());
    EXPECT_GE(*history.rounds[i].mean_gamma, 0.0);
  }
}

TEST_F(TrainerTest, DissimilarityMeasurementRecorded) {
  LogisticRegression model(noniid_data().input_dim, noniid_data().num_classes);
  auto config = small_config(Algorithm::kFedProx, 0.0, 0.0);
  config.measure_dissimilarity = true;
  config.rounds = 2;
  auto history = Trainer(model, noniid_data(), config).run();
  ASSERT_TRUE(history.rounds.front().dissimilarity_b.has_value());
  EXPECT_GT(*history.rounds.front().grad_variance, 0.0);
  EXPECT_GE(*history.rounds.front().dissimilarity_b, 1.0);
}

TEST_F(TrainerTest, AdaptiveMuChangesOverTraining) {
  LogisticRegression model(noniid_data().input_dim, noniid_data().num_classes);
  auto config = small_config(Algorithm::kFedProx, 1.0, 0.0);
  config.mu_policy = MuPolicy::kAdaptive;
  config.rounds = 40;
  auto history = Trainer(model, noniid_data(), config).run();
  bool changed = false;
  for (const auto& m : history.rounds) {
    if (m.mu != 1.0) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST_F(TrainerTest, CustomSolverPluggable) {
  LogisticRegression model(iid_data().input_dim, iid_data().num_classes);
  auto config = small_config(Algorithm::kFedProx, 1.0, 0.0);
  config.solver = std::make_shared<GdSolver>();
  config.rounds = 5;
  auto history = Trainer(model, iid_data(), config).run();
  EXPECT_FALSE(history.diverged());
  EXPECT_LT(*history.final_metrics().train_loss,
            *history.rounds.front().train_loss);
}

TEST_F(TrainerTest, FedDaneRunsAndRecords) {
  LogisticRegression model(iid_data().input_dim, iid_data().num_classes);
  auto config = small_config(Algorithm::kFedDane, 0.0, 0.0);
  config.rounds = 5;
  auto history = Trainer(model, iid_data(), config).run();
  EXPECT_EQ(history.rounds.size(), 6u);
  EXPECT_FALSE(history.diverged());
}

TEST_F(TrainerTest, AddObserverAfterRunStartThrows) {
  // Late registration would skip on_run_start and break ordering, so the
  // trainer rejects it once run() has begun.
  LogisticRegression model(iid_data().input_dim, iid_data().num_classes);
  auto config = small_config(Algorithm::kFedProx, 0.0, 0.0);
  config.rounds = 2;
  Trainer trainer(model, iid_data(), config);
  struct Noop : TrainingObserver {} before, after;
  trainer.add_observer(before);  // pre-run registration is fine
  trainer.run();
  EXPECT_THROW(trainer.add_observer(after), std::logic_error);
}

TEST_F(TrainerTest, ValidatesConfig) {
  LogisticRegression model(iid_data().input_dim, iid_data().num_classes);
  auto config = small_config(Algorithm::kFedProx, 0.0, 0.0);
  config.devices_per_round = 99;  // > num clients
  EXPECT_THROW(Trainer(model, iid_data(), config), std::invalid_argument);
  config = small_config(Algorithm::kFedProx, -1.0, 0.0);
  EXPECT_THROW(Trainer(model, iid_data(), config), std::invalid_argument);
}

TEST_F(TrainerTest, SamplingSchemesBothTrain) {
  LogisticRegression model(iid_data().input_dim, iid_data().num_classes);
  for (auto scheme : {SamplingScheme::kUniformThenWeightedAverage,
                      SamplingScheme::kWeightedThenSimpleAverage}) {
    auto config = small_config(Algorithm::kFedProx, 0.0, 0.0);
    config.sampling = scheme;
    config.rounds = 10;
    auto history = Trainer(model, iid_data(), config).run();
    EXPECT_LT(*history.final_metrics().train_loss,
              *history.rounds.front().train_loss);
  }
}

}  // namespace
}  // namespace fed
