// The library's central reproducibility contract: results depend only on
// the seed — never on the thread count, the sharing of thread pools, or
// which algorithm ran first. These tests pin that contract down.

#include <gtest/gtest.h>

#include "bench_common.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/observer.h"
#include "support/log.h"

namespace fed {
namespace {

class DeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(0.5, 0.5, 31);
      c.num_devices = 10;
      c.min_samples = 15;
      c.mean_log = 2.5;
      c.sigma_log = 0.5;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig config() {
    TrainerConfig c = fedprox_config(0.5);
    c.rounds = 8;
    c.devices_per_round = 4;
    c.systems.epochs = 4;
    c.systems.straggler_fraction = 0.5;
    c.learning_rate = 0.03;
    c.seed = 31;
    c.eval_every = 8;
    return c;
  }
};

class ThreadCountTest : public DeterminismTest,
                        public ::testing::WithParamInterface<std::size_t> {};

TEST_P(ThreadCountTest, IdenticalResultsAcrossThreadCounts) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig reference_config = config();
  reference_config.threads = 1;
  const auto reference = Trainer(model, data(), reference_config).run();

  TrainerConfig c = config();
  c.threads = GetParam();
  const auto run = Trainer(model, data(), c).run();
  EXPECT_EQ(reference.final_parameters, run.final_parameters);
  EXPECT_EQ(reference.final_metrics().train_loss,
            run.final_metrics().train_loss);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountTest,
                         ::testing::Values(2, 4, 8));

// Heavily skewed budgets (90% stragglers, E = 20) make the longest-first
// dispatch order differ most from selection order; results must not.
class SkewedThreadCountTest : public ThreadCountTest {};

TEST_P(SkewedThreadCountTest, IdenticalResultsAcrossThreadCounts) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = config();
  c.devices_per_round = 8;
  c.systems.epochs = 20;
  c.systems.straggler_fraction = 0.9;
  c.threads = 1;
  const auto reference = Trainer(model, data(), c).run();
  c.threads = GetParam();
  const auto run = Trainer(model, data(), c).run();
  EXPECT_EQ(reference.final_parameters, run.final_parameters);
  ASSERT_EQ(reference.rounds.size(), run.rounds.size());
  for (std::size_t r = 0; r < run.rounds.size(); ++r) {
    EXPECT_EQ(reference.rounds[r].train_loss, run.rounds[r].train_loss);
    EXPECT_EQ(reference.rounds[r].stragglers, run.rounds[r].stragglers);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SkewedThreadCountTest,
                         ::testing::Values(1, 2, 4, 8));

TEST_F(DeterminismTest, RunOrderDoesNotLeakBetweenTrainers) {
  // Running FedAvg before FedProx must not change FedProx's trajectory
  // (all randomness is derived from (seed, purpose, round, device), not
  // from shared mutable state).
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig prox = config();

  const auto solo = Trainer(model, data(), prox).run();

  TrainerConfig avg = config();
  avg.algorithm = Algorithm::kFedAvg;
  avg.mu = 0.0;
  Trainer(model, data(), avg).run();  // interleaved unrelated run
  const auto after = Trainer(model, data(), prox).run();

  EXPECT_EQ(solo.final_parameters, after.final_parameters);
}

// Attaching observers must not perturb training, and the structural trace
// fields (everything except wall times) must themselves be thread-count
// invariant.
TEST_F(DeterminismTest, ObserversDoNotPerturbTraining) {
  LogisticRegression model(data().input_dim, data().num_classes);

  const auto bare = Trainer(model, data(), config()).run();

  TraceCollector collector;
  Trainer observed(model, data(), config());
  observed.add_observer(collector);
  const auto with_observer = observed.run();

  EXPECT_EQ(bench::history_divergence(bare, with_observer), "");
  EXPECT_EQ(collector.traces().size(), bare.rounds.size());
}

TEST_F(DeterminismTest, TracesStructurallyIdenticalAcrossThreadCounts) {
  LogisticRegression model(data().input_dim, data().num_classes);

  auto run_with_threads = [&](std::size_t threads) {
    TrainerConfig c = config();
    c.threads = threads;
    TraceCollector collector;
    Trainer trainer(model, data(), c);
    trainer.add_observer(collector);
    auto history = trainer.run();
    return std::make_pair(std::move(history), collector.traces());
  };

  const auto [h1, t1] = run_with_threads(1);
  const auto [h4, t4] = run_with_threads(4);

  EXPECT_EQ(bench::history_divergence(h1, h4), "");
  ASSERT_EQ(t1.size(), t4.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].round, t4[i].round);
    EXPECT_EQ(t1[i].evaluated, t4[i].evaluated);
    EXPECT_EQ(t1[i].selected, t4[i].selected);
    EXPECT_EQ(t1[i].contributors, t4[i].contributors);
    EXPECT_EQ(t1[i].stragglers, t4[i].stragglers);
    EXPECT_EQ(t1[i].solve.count, t4[i].solve.count);
    EXPECT_EQ(t1[i].bytes_down, t4[i].bytes_down);
    EXPECT_EQ(t1[i].bytes_up, t4[i].bytes_up);
  }
}

TEST_F(DeterminismTest, DifferentSeedsDiverge) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig a = config();
  TrainerConfig b = config();
  b.seed = 32;
  const auto ra = Trainer(model, data(), a).run();
  const auto rb = Trainer(model, data(), b).run();
  EXPECT_NE(ra.final_parameters, rb.final_parameters);
}

}  // namespace
}  // namespace fed
