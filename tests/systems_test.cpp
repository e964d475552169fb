#include "sim/systems.h"

#include <gtest/gtest.h>

#include <limits>

namespace fed {
namespace {

std::vector<std::size_t> sizes(std::size_t k, std::size_t n) {
  return std::vector<std::size_t>(k, n);
}

TEST(StragglerCount, RoundsToNearest) {
  EXPECT_EQ(straggler_count(0.0, 10), 0u);
  EXPECT_EQ(straggler_count(0.5, 10), 5u);
  EXPECT_EQ(straggler_count(0.9, 10), 9u);
  EXPECT_EQ(straggler_count(1.0, 10), 10u);
  EXPECT_THROW(straggler_count(-0.1, 10), std::invalid_argument);
  EXPECT_THROW(straggler_count(1.1, 10), std::invalid_argument);
  EXPECT_THROW(straggler_count(std::numeric_limits<double>::quiet_NaN(), 10),
               std::invalid_argument);
}

TEST(LongestFirst, DescendingIterationsTiesInIndexOrder) {
  std::vector<DeviceBudget> budgets;
  for (std::size_t iterations : {3, 7, 3, 9, 7, 0, 9}) {
    budgets.push_back({.device = budgets.size() * 10,
                       .straggler = false,
                       .epochs = 1,
                       .iterations = iterations});
  }
  EXPECT_EQ(longest_first(budgets),
            (std::vector<std::size_t>{3, 6, 1, 4, 0, 2, 5}));
  EXPECT_TRUE(longest_first({}).empty());
}

class BudgetFractionTest : public ::testing::TestWithParam<double> {};

TEST_P(BudgetFractionTest, ExactStragglerFraction) {
  const double fraction = GetParam();
  SystemsConfig config{.straggler_fraction = fraction, .epochs = 20};
  std::vector<std::size_t> selected{3, 1, 4, 1, 5, 9, 2, 6, 8, 7};
  // device ids may repeat across positions in this synthetic list; the
  // budget is per-position.
  const auto budgets =
      assign_budgets(config, /*seed=*/1, /*round=*/0, selected, sizes(10, 40),
                     /*batch_size=*/10);
  std::size_t stragglers = 0;
  for (const auto& b : budgets) stragglers += b.straggler ? 1 : 0;
  EXPECT_EQ(stragglers, straggler_count(fraction, 10));
}

INSTANTIATE_TEST_SUITE_P(Fractions, BudgetFractionTest,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0));

TEST(AssignBudgets, NonStragglersGetFullWork) {
  SystemsConfig config{.straggler_fraction = 0.5, .epochs = 20};
  std::vector<std::size_t> selected{0, 1, 2, 3};
  const auto budgets =
      assign_budgets(config, 7, 3, selected, sizes(4, 35), 10);
  for (const auto& b : budgets) {
    if (!b.straggler) {
      EXPECT_EQ(b.epochs, 20u);
      EXPECT_EQ(b.iterations, 20u * 4u);  // ceil(35/10) = 4 per epoch
    } else {
      EXPECT_GE(b.epochs, 1u);
      EXPECT_LE(b.epochs, 20u);
      EXPECT_EQ(b.iterations, b.epochs * 4u);
    }
  }
}

TEST(AssignBudgets, DeterministicInSeedAndRound) {
  SystemsConfig config{.straggler_fraction = 0.9, .epochs = 20};
  std::vector<std::size_t> selected{5, 6, 7, 8, 9};
  const auto a = assign_budgets(config, 11, 4, selected, sizes(5, 20), 10);
  const auto b = assign_budgets(config, 11, 4, selected, sizes(5, 20), 10);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a[i].straggler, b[i].straggler);
    EXPECT_EQ(a[i].iterations, b[i].iterations);
  }
  // A different round produces a different assignment eventually.
  bool any_difference = false;
  for (std::uint64_t round = 0; round < 20 && !any_difference; ++round) {
    const auto c = assign_budgets(config, 11, round, selected, sizes(5, 20), 10);
    for (std::size_t i = 0; i < 5; ++i) {
      if (c[i].straggler != a[i].straggler ||
          c[i].iterations != a[i].iterations) {
        any_difference = true;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(AssignBudgets, EpochOneDrawsPartialIterations) {
  SystemsConfig config{.straggler_fraction = 1.0, .epochs = 1};
  std::vector<std::size_t> selected{0};
  bool saw_partial = false;
  for (std::uint64_t round = 0; round < 50; ++round) {
    const auto budgets =
        assign_budgets(config, 3, round, selected, sizes(1, 100), 10);
    EXPECT_EQ(budgets[0].epochs, 1u);
    EXPECT_GE(budgets[0].iterations, 1u);
    EXPECT_LE(budgets[0].iterations, 10u);  // one epoch = 10 iterations
    if (budgets[0].iterations < 10) saw_partial = true;
  }
  EXPECT_TRUE(saw_partial);
}

TEST(AssignBudgets, StragglerEpochsCoverFullRange) {
  SystemsConfig config{.straggler_fraction = 1.0, .epochs = 5};
  std::vector<std::size_t> selected{0, 1, 2};
  std::vector<bool> seen(6, false);
  for (std::uint64_t round = 0; round < 200; ++round) {
    for (const auto& b :
         assign_budgets(config, 13, round, selected, sizes(3, 10), 10)) {
      seen[b.epochs] = true;
    }
  }
  for (std::size_t e = 1; e <= 5; ++e) EXPECT_TRUE(seen[e]) << "epoch " << e;
}

TEST(AssignBudgets, ValidatesInput) {
  SystemsConfig config{.straggler_fraction = 0.0, .epochs = 0};
  std::vector<std::size_t> selected{0};
  EXPECT_THROW(assign_budgets(config, 1, 0, selected, sizes(1, 10), 10),
               std::invalid_argument);
  SystemsConfig ok{.straggler_fraction = 0.0, .epochs = 1};
  EXPECT_THROW(assign_budgets(ok, 1, 0, selected, sizes(2, 10), 10),
               std::invalid_argument);
}

}  // namespace
}  // namespace fed
