// Tests for the theory-guided mu controller (mu ~ B^2 - 1, Corollary 7)
// and its integration with the Trainer, plus FPC1 crash/resume
// bit-exactness with the controller live.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/adaptive_mu.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "support/log.h"

namespace fed {
namespace {

TEST(DissimilarityMuTest, IidMapsToZeroMu) {
  DissimilarityMu controller(0.1);
  EXPECT_DOUBLE_EQ(controller.update(1.0), 0.0);  // B = 1: no penalty
}

TEST(DissimilarityMuTest, MuScalesWithBSquared) {
  DissimilarityMu controller(0.5, /*max_mu=*/100.0, /*smoothing=*/0.0);
  EXPECT_DOUBLE_EQ(controller.update(2.0), 0.5 * (4.0 - 1.0));
  EXPECT_DOUBLE_EQ(controller.update(3.0), 0.5 * (9.0 - 1.0));
}

TEST(DissimilarityMuTest, ClampedAtMaxMu) {
  DissimilarityMu controller(1.0, /*max_mu=*/2.0, /*smoothing=*/0.0);
  EXPECT_DOUBLE_EQ(controller.update(100.0), 2.0);
}

TEST(DissimilarityMuTest, SmoothingAveragesEstimates) {
  DissimilarityMu controller(1.0, 100.0, /*smoothing=*/0.5);
  controller.update(1.0);  // ema = 1
  // ema = 0.5*1 + 0.5*9 = 5 -> mu = 4.
  EXPECT_DOUBLE_EQ(controller.update(3.0), 4.0);
}

TEST(DissimilarityMuTest, BBelowOneFloorsAtZero) {
  DissimilarityMu controller(1.0, 10.0, 0.0);
  EXPECT_DOUBLE_EQ(controller.update(0.5), 0.0);
}

TEST(DissimilarityMuTest, RejectsBadInput) {
  EXPECT_THROW(DissimilarityMu(0.0), std::invalid_argument);
  EXPECT_THROW(DissimilarityMu(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(DissimilarityMu(1.0, 1.0, 1.0), std::invalid_argument);
  DissimilarityMu ok(1.0);
  EXPECT_THROW(ok.update(-1.0), std::invalid_argument);
  EXPECT_THROW(ok.update(std::nan("")), std::invalid_argument);
}

class TheoryMuTrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(1.0, 1.0, 13);
      c.num_devices = 12;
      c.min_samples = 20;
      c.mean_log = 3.0;
      c.sigma_log = 0.5;
      return make_synthetic(c);
    }();
    return d;
  }
};

TEST_F(TheoryMuTrainerTest, TheoryPolicyRaisesMuOnHeterogeneousData) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c;
  c.rounds = 10;
  c.devices_per_round = 5;
  c.systems.epochs = 5;
  c.learning_rate = 0.03;
  c.seed = 13;
  c.theory_mu.enabled = true;
  c.theory_mu.coefficient = 0.05;
  auto h = Trainer(model, data(), c).run();
  // The controller must have measured B > 1 and produced a positive mu.
  bool positive_mu = false;
  for (const auto& m : h.rounds) {
    if (m.mu > 0.0) positive_mu = true;
    if (m.evaluated()) {
      EXPECT_TRUE(m.dissimilarity_b.has_value());
    }
  }
  EXPECT_TRUE(positive_mu);
}

TEST_F(TheoryMuTrainerTest, MutuallyExclusiveWithAdaptive) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c;
  c.rounds = 2;
  c.devices_per_round = 2;
  c.adaptive_mu.enabled = true;
  c.theory_mu.enabled = true;
  EXPECT_THROW(Trainer(model, data(), c), std::invalid_argument);
}

TEST_F(TheoryMuTrainerTest, CheckpointResumeIsBitExact) {
  // The controller's smoothed B^2 estimate rides in the FPC1 checkpoint,
  // so a crashed-and-resumed run keeps the exact mu trajectory.
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c;
  c.rounds = 12;
  c.devices_per_round = 5;
  c.systems.epochs = 5;
  c.systems.straggler_fraction = 0.5;
  c.learning_rate = 0.03;
  c.seed = 13;
  c.eval_every = 2;  // theory mu moves on evaluated rounds
  c.theory_mu.enabled = true;
  c.theory_mu.coefficient = 0.05;
  const auto reference = Trainer(model, data(), c).run();

  const std::string dir =
      ::testing::TempDir() + "fedprox_theory_mu_checkpoint_resume";
  std::filesystem::remove_all(dir);
  TrainerConfig crashing = c;
  crashing.checkpoint.dir = dir;
  crashing.checkpoint.every = 7;
  crashing.crash.at_round = 9;
  EXPECT_THROW((void)Trainer(model, data(), crashing).run(), ServerCrashed);
  const auto newest = latest_checkpoint(dir);
  ASSERT_TRUE(newest.has_value());
  const auto resumed = Trainer(model, data(), c).resume(*newest);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(reference.final_parameters, resumed.final_parameters);
  ASSERT_EQ(reference.rounds.size(), resumed.rounds.size());
  bool positive_mu = false;
  for (std::size_t i = 0; i < reference.rounds.size(); ++i) {
    EXPECT_EQ(reference.rounds[i].mu, resumed.rounds[i].mu)
        << "theory mu diverged at round " << reference.rounds[i].round;
    EXPECT_EQ(reference.rounds[i].train_loss, resumed.rounds[i].train_loss);
    if (reference.rounds[i].mu > 0.0) positive_mu = true;
  }
  EXPECT_TRUE(positive_mu);  // the policy was live, not a constant mu
}

}  // namespace
}  // namespace fed
