// Tests for the mu controller (core/mu_controller.h): the adaptive
// policy's +/-0.1 loss heuristic, the theory policy's mu ~ B^2 - 1, and
// the fixed policy's constant mu.

#include "core/mu_controller.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace fed {
namespace {

// An evaluated round with training loss `loss`.
RoundMetrics loss_round(double loss) {
  RoundMetrics m;
  m.train_loss = loss;
  return m;
}

// An evaluated round whose dissimilarity B was measured as `b`.
RoundMetrics b_round(double b) {
  RoundMetrics m = loss_round(1.0);
  m.dissimilarity_b = b;
  return m;
}

MuController adaptive(double mu) { return {MuPolicy::kAdaptive, mu}; }
MuController theory() { return {MuPolicy::kTheory, 0.0}; }

TEST(AdaptiveMuTest, IncreasesOnLossIncrease) {
  MuController controller = adaptive(0.0);
  controller.update(loss_round(1.0));
  EXPECT_DOUBLE_EQ(controller.update(loss_round(1.5)), 0.1);
  EXPECT_DOUBLE_EQ(controller.update(loss_round(2.0)), 0.2);
  // A round that was not evaluated moves nothing.
  EXPECT_DOUBLE_EQ(controller.update(RoundMetrics{}), 0.2);
  EXPECT_DOUBLE_EQ(controller.state().last, 2.0);
}

TEST(AdaptiveMuTest, FirstObservationDoesNothing) {
  MuController controller = adaptive(0.5);
  EXPECT_DOUBLE_EQ(controller.update(loss_round(10.0)), 0.5);
}

TEST(AdaptiveMuTest, DecreasesAfterFiveConsecutiveDecreases) {
  // The paper's rule (Section 5.3.2): +-0.1, relaxing after 5 decreases.
  EXPECT_EQ(MuController::kStep, 0.1);
  EXPECT_EQ(MuController::kPatience, 5u);
  MuController controller = adaptive(1.0);
  double loss = 10.0;
  controller.update(loss_round(loss));
  for (int i = 0; i < 4; ++i) {
    loss -= 0.1;
    EXPECT_DOUBLE_EQ(controller.update(loss_round(loss)), 1.0);  // not yet
  }
  loss -= 0.1;  // fifth consecutive decrease
  EXPECT_DOUBLE_EQ(controller.update(loss_round(loss)), 0.9);
}

TEST(AdaptiveMuTest, IncreaseResetsDecreaseCounter) {
  MuController controller = adaptive(1.0);
  controller.update(loss_round(10.0));
  controller.update(loss_round(9.0));
  controller.update(loss_round(8.0));
  EXPECT_EQ(controller.state().streak, 2u);
  controller.update(loss_round(8.5));  // increase: mu -> 1.1, streak resets
  EXPECT_DOUBLE_EQ(controller.mu(), 1.1);
  EXPECT_EQ(controller.state().streak, 0u);
  double loss = 8.5;
  for (int i = 0; i < 4; ++i) {
    loss -= 0.1;
    controller.update(loss_round(loss));
  }
  EXPECT_DOUBLE_EQ(controller.mu(), 1.1);  // only 4 decreases so far
  loss -= 0.1;
  controller.update(loss_round(loss));
  EXPECT_DOUBLE_EQ(controller.mu(), 1.0);
}

TEST(AdaptiveMuTest, FlooredAtZero) {
  MuController controller = adaptive(0.05);
  double loss = 10.0;
  controller.update(loss_round(loss));
  for (int i = 0; i < 10; ++i) {
    loss -= 1.0;
    controller.update(loss_round(loss));
  }
  EXPECT_DOUBLE_EQ(controller.mu(), 0.0);
  EXPECT_GE(controller.mu(), 0.0);
}

TEST(AdaptiveMuTest, EqualLossResetsStreak) {
  MuController controller = adaptive(1.0);
  for (const double loss : {5.0, 4.0, 4.0, 3.9, 3.8, 3.7, 3.6}) {
    controller.update(loss_round(loss));  // the plateau at 4.0
  }
  EXPECT_DOUBLE_EQ(controller.mu(), 1.0);  // plateau broke the streak
  controller.update(loss_round(3.5));
  EXPECT_DOUBLE_EQ(controller.mu(), 0.9);
}

TEST(AdaptiveMuTest, RejectsBadParameters) {
  for (const MuPolicy policy :
       {MuPolicy::kFixed, MuPolicy::kAdaptive, MuPolicy::kTheory}) {
    EXPECT_THROW(MuController(policy, -1.0), std::invalid_argument);
    // NaN fails every comparison, so a plain `< 0` check would pass it.
    EXPECT_THROW(MuController(policy, std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(MuController(policy, std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_NO_THROW(MuController(policy, 0.0));
  }
}

TEST(AdaptiveMuTest, RestoredStateContinuesTheStreak) {
  MuController reference = adaptive(1.0);
  for (const double loss : {5.0, 4.0, 3.0}) reference.update(loss_round(loss));
  MuController restored = adaptive(reference.mu());
  restored.restore(reference.state());
  for (const double loss : {2.0, 1.0, 0.5}) {
    EXPECT_EQ(restored.update(loss_round(loss)),
              reference.update(loss_round(loss)));
  }
  EXPECT_DOUBLE_EQ(restored.mu(), 0.9);  // the fifth decrease, at 1.0
}

TEST(AdaptiveMuTest, FixedPolicyNeverMoves) {
  MuController controller(MuPolicy::kFixed, 0.25);
  for (const double loss : {1.0, 2.0, 3.0}) {
    EXPECT_EQ(controller.update(loss_round(loss)), 0.25);
  }
  EXPECT_EQ(controller.update(b_round(5.0)), 0.25);
  EXPECT_FALSE(controller.state().has_last);
}

// The theory policy: mu = 0.05 (B_ema^2 - 1), clamped to [0, 10], with
// EMA weight 0.5 on the previous B^2 estimate.

TEST(DissimilarityMuTest, IidMapsToZeroMu) {
  EXPECT_DOUBLE_EQ(theory().update(b_round(1.0)), 0.0);  // B = 1: no penalty
}

TEST(DissimilarityMuTest, MuScalesWithBSquared) {
  // The first measurement seeds the average.
  EXPECT_DOUBLE_EQ(theory().update(b_round(2.0)), 0.05 * (4.0 - 1.0));
  EXPECT_DOUBLE_EQ(theory().update(b_round(3.0)), 0.05 * (9.0 - 1.0));
  // A start other than 0 holds only until the first measurement.
  MuController from_one(MuPolicy::kTheory, 1.0);
  EXPECT_DOUBLE_EQ(from_one.update(loss_round(2.0)), 1.0);
  EXPECT_DOUBLE_EQ(from_one.update(b_round(2.0)), 0.05 * (4.0 - 1.0));
}

TEST(DissimilarityMuTest, ClampedAtMaxMu) {
  // 0.05 (B^2 - 1) reaches 10 at B = sqrt(201).
  EXPECT_DOUBLE_EQ(theory().update(b_round(14.0)), 0.05 * (196.0 - 1.0));
  MuController above = theory();
  EXPECT_DOUBLE_EQ(above.update(b_round(15.0)), 10.0);  // 0.05 * 224 = 11.2
  EXPECT_DOUBLE_EQ(above.update(b_round(100.0)), 10.0);
}

TEST(DissimilarityMuTest, SmoothingAveragesEstimates) {
  MuController controller = theory();
  controller.update(b_round(1.0));  // ema = 1
  // ema = 0.5*1 + 0.5*9 = 5 -> mu = 0.05 * 4.
  EXPECT_DOUBLE_EQ(controller.update(b_round(3.0)), 0.05 * 4.0);
  // ema = 0.5*5 + 0.5*9 = 7 -> mu = 0.05 * 6.
  EXPECT_DOUBLE_EQ(controller.update(b_round(3.0)), 0.05 * 6.0);
  EXPECT_DOUBLE_EQ(controller.state().last, 7.0);
}

TEST(DissimilarityMuTest, BBelowOneFloorsAtZero) {
  EXPECT_DOUBLE_EQ(theory().update(b_round(0.5)), 0.0);
}

TEST(DissimilarityMuTest, RejectsBadInput) {
  MuController controller = theory();
  EXPECT_THROW(controller.update(b_round(-1.0)), std::invalid_argument);
  EXPECT_THROW(controller.update(b_round(std::nan(""))),
               std::invalid_argument);
  EXPECT_THROW(controller.update(b_round(INFINITY)), std::invalid_argument);
}

}  // namespace
}  // namespace fed
