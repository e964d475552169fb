#include "core/adaptive_mu.h"

#include <gtest/gtest.h>

#include <limits>

namespace fed {
namespace {

TEST(AdaptiveMuTest, IncreasesOnLossIncrease) {
  AdaptiveMu controller(0.0);
  controller.update(1.0);
  EXPECT_DOUBLE_EQ(controller.update(1.5), 0.1);
  EXPECT_DOUBLE_EQ(controller.update(2.0), 0.2);
}

TEST(AdaptiveMuTest, FirstObservationDoesNothing) {
  AdaptiveMu controller(0.5);
  EXPECT_DOUBLE_EQ(controller.update(10.0), 0.5);
}

TEST(AdaptiveMuTest, DecreasesAfterFiveConsecutiveDecreases) {
  // The paper's rule (Section 5.3.2): +-0.1, relaxing after 5 decreases.
  EXPECT_EQ(AdaptiveMu::kStep, 0.1);
  EXPECT_EQ(AdaptiveMu::kPatience, 5u);
  AdaptiveMu controller(1.0);
  double loss = 10.0;
  controller.update(loss);
  for (int i = 0; i < 4; ++i) {
    loss -= 0.1;
    EXPECT_DOUBLE_EQ(controller.update(loss), 1.0);  // not yet
  }
  loss -= 0.1;  // fifth consecutive decrease
  EXPECT_DOUBLE_EQ(controller.update(loss), 0.9);
}

TEST(AdaptiveMuTest, IncreaseResetsDecreaseCounter) {
  AdaptiveMu controller(1.0);
  controller.update(10.0);
  controller.update(9.0);
  controller.update(8.0);
  controller.update(8.5);  // increase: mu -> 1.1, counter resets
  EXPECT_DOUBLE_EQ(controller.mu(), 1.1);
  double loss = 8.5;
  for (int i = 0; i < 4; ++i) {
    loss -= 0.1;
    controller.update(loss);
  }
  EXPECT_DOUBLE_EQ(controller.mu(), 1.1);  // only 4 decreases so far
  loss -= 0.1;
  controller.update(loss);
  EXPECT_DOUBLE_EQ(controller.mu(), 1.0);
}

TEST(AdaptiveMuTest, FlooredAtZero) {
  AdaptiveMu controller(0.05);
  double loss = 10.0;
  controller.update(loss);
  for (int i = 0; i < 10; ++i) {
    loss -= 1.0;
    controller.update(loss);
  }
  EXPECT_DOUBLE_EQ(controller.mu(), 0.0);
  EXPECT_GE(controller.mu(), 0.0);
}

TEST(AdaptiveMuTest, EqualLossResetsStreak) {
  AdaptiveMu controller(1.0);
  controller.update(5.0);
  controller.update(4.0);
  controller.update(4.0);  // plateau
  controller.update(3.9);
  controller.update(3.8);
  controller.update(3.7);
  controller.update(3.6);
  EXPECT_DOUBLE_EQ(controller.mu(), 1.0);  // plateau broke the streak
  controller.update(3.5);
  EXPECT_DOUBLE_EQ(controller.mu(), 0.9);
}

TEST(AdaptiveMuTest, RejectsBadParameters) {
  EXPECT_THROW(AdaptiveMu(-1.0), std::invalid_argument);
  // --initial-mu reaches here from the command line; NaN fails every
  // comparison, so a plain `< 0` check would pass it.
  EXPECT_THROW(AdaptiveMu(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(AdaptiveMu(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_NO_THROW(AdaptiveMu(0.0));
}

}  // namespace
}  // namespace fed
