// Tests for the figure-driver harness (bench/bench_common).

#include "bench_common.h"

#include <gtest/gtest.h>

#include "support/log.h"

namespace fed::bench {
namespace {

class BenchCommonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }
};

TEST_F(BenchCommonTest, ParseOptionsDefaults) {
  const char* argv[] = {"prog"};
  const BenchOptions options = parse_options(1, const_cast<char**>(argv));
  EXPECT_EQ(options.config.seed, 1u);
  EXPECT_DOUBLE_EQ(options.scale, 1.0);
  EXPECT_EQ(options.config.systems.epochs, 20u);
  EXPECT_EQ(options.config.rounds, 0u);  // the workload's default
  EXPECT_FALSE(options.quick);
}

TEST_F(BenchCommonTest, QuickModeShrinksScale) {
  const char* argv[] = {"prog", "--quick", "--scale=0.5"};
  const BenchOptions options = parse_options(3, const_cast<char**>(argv));
  EXPECT_TRUE(options.quick);
  EXPECT_LE(options.scale, 0.1);
}

TEST_F(BenchCommonTest, ApplyRoundsHonorsOverrideAndQuick) {
  const char* argv[] = {"prog", "--rounds=37"};
  BenchOptions options = parse_options(2, const_cast<char**>(argv));
  const Workload w = load_workload("synthetic_iid", options);
  const auto rounds = [&] {
    return base_config(w, options, Algorithm::kFedProx, 0.0, 0.0).rounds;
  };
  EXPECT_EQ(rounds(), 37u);

  options.config.rounds = 0;
  options.quick = true;
  EXPECT_EQ(rounds(), std::max<std::size_t>(2, w.default_rounds / 20));

  // An explicit --rounds beats --quick's shrink, even below its floor.
  const char* quick_argv[] = {"prog", "--quick", "--rounds", "3"};
  options = parse_options(4, const_cast<char**>(quick_argv));
  EXPECT_EQ(rounds(), 3u);
  options.config.rounds = 1;
  EXPECT_EQ(rounds(), 1u);
}

TEST_F(BenchCommonTest, RenderSeriesAlignsVariants) {
  VariantResult a{"method-a", {}};
  VariantResult b{"method-b", {}};
  for (std::size_t r : {0u, 5u, 10u}) {
    RoundMetrics m;
    m.round = r;
    m.train_loss = 1.0 + r;
    m.test_accuracy = 0.1 * r;
    a.history.rounds.push_back(m);
    m.train_loss = 2.0 + r;
    b.history.rounds.push_back(m);
  }
  const std::string loss = render_series({a, b}, Metric::kTrainLoss);
  EXPECT_NE(loss.find("method-a"), std::string::npos);
  EXPECT_NE(loss.find("method-b"), std::string::npos);
  EXPECT_NE(loss.find("6.0000"), std::string::npos);   // a at round 5
  EXPECT_NE(loss.find("12.0000"), std::string::npos);  // b at round 10
  const std::string acc = render_series({a}, Metric::kTestAccuracy);
  EXPECT_NE(acc.find("0.5000"), std::string::npos);
  EXPECT_NE(acc.find("1.0000"), std::string::npos);
}

TEST_F(BenchCommonTest, RenderSeriesSkipsUnmeasuredVariance) {
  VariantResult a{"x", {}};
  RoundMetrics m;
  m.round = 1;
  m.train_loss = 0.5;  // evaluated, but variance never measured: '-'
  a.history.rounds.push_back(m);
  const std::string table = render_series({a}, Metric::kGradVariance);
  EXPECT_EQ(table.find("42.0"), std::string::npos);
}

TEST_F(BenchCommonTest, MetricNames) {
  EXPECT_STREQ(metric_name(Metric::kTrainLoss), "training loss");
  EXPECT_STREQ(metric_name(Metric::kMu), "mu");
}

}  // namespace
}  // namespace fed::bench
