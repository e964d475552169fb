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

// The controller's constants: mu = 0.05 (B_ema^2 - 1), clamped to
// [0, 10], with EMA weight 0.5 on the previous B^2 estimate.

TEST(DissimilarityMuTest, IidMapsToZeroMu) {
  DissimilarityMu controller;
  EXPECT_DOUBLE_EQ(controller.update(1.0), 0.0);  // B = 1: no penalty
}

TEST(DissimilarityMuTest, MuScalesWithBSquared) {
  DissimilarityMu controller;
  // The first measurement seeds the average.
  EXPECT_DOUBLE_EQ(controller.update(2.0), 0.05 * (4.0 - 1.0));
  DissimilarityMu other;
  EXPECT_DOUBLE_EQ(other.update(3.0), 0.05 * (9.0 - 1.0));
}

TEST(DissimilarityMuTest, ClampedAtMaxMu) {
  // 0.05 (B^2 - 1) reaches 10 at B = sqrt(201).
  DissimilarityMu below;
  EXPECT_DOUBLE_EQ(below.update(14.0), 0.05 * (196.0 - 1.0));  // 9.75
  DissimilarityMu above;
  EXPECT_DOUBLE_EQ(above.update(15.0), 10.0);  // 0.05 * 224 = 11.2
  EXPECT_DOUBLE_EQ(above.update(100.0), 10.0);
}

TEST(DissimilarityMuTest, SmoothingAveragesEstimates) {
  DissimilarityMu controller;
  controller.update(1.0);  // ema = 1
  // ema = 0.5*1 + 0.5*9 = 5 -> mu = 0.05 * 4.
  EXPECT_DOUBLE_EQ(controller.update(3.0), 0.05 * 4.0);
  // ema = 0.5*5 + 0.5*9 = 7 -> mu = 0.05 * 6.
  EXPECT_DOUBLE_EQ(controller.update(3.0), 0.05 * 6.0);
  EXPECT_DOUBLE_EQ(controller.state().b_sq_ema, 7.0);
}

TEST(DissimilarityMuTest, BBelowOneFloorsAtZero) {
  DissimilarityMu controller;
  EXPECT_DOUBLE_EQ(controller.update(0.5), 0.0);
}

TEST(DissimilarityMuTest, RejectsBadInput) {
  DissimilarityMu controller;
  EXPECT_THROW(controller.update(-1.0), std::invalid_argument);
  EXPECT_THROW(controller.update(std::nan("")), std::invalid_argument);
  EXPECT_THROW(controller.update(INFINITY), std::invalid_argument);
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
  c.theory_mu = true;
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
  c.theory_mu = true;
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
  c.theory_mu = true;
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
