// The Trainer under the theory-guided mu policy (mu ~ B^2 - 1,
// Corollary 7; the controller's own tests are in mu_controller_test),
// and FPC1 crash/resume bit-exactness with the policy live.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "support/log.h"

namespace fed {
namespace {

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
  c.mu_policy = MuPolicy::kTheory;
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
  c.mu_policy = MuPolicy::kTheory;
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
