// Tests for the figure-driver harness (bench/bench_common).

#include "bench_common.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

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

// Changes the `target`-th field visit_metrics walks (from 0) by its
// last bit: a count by one, a double to the next one up, and an optional
// the same way or, with `presence`, to unset. Records the field's key.
struct FieldChange {
  std::size_t target;
  bool presence = false;
  std::size_t seen = 0;
  const char* key = nullptr;
  bool optional = false;

  bool hit(const char* k) {
    if (seen++ != target) return false;
    key = k;
    return true;
  }
  void field(const char* k, std::size_t& v) {
    if (hit(k)) ++v;
  }
  void field(const char* k, double& v) {
    if (hit(k)) v = std::nextafter(v, 1e300);
  }
  void field(const char* k, std::optional<double>& v) {
    if (!hit(k)) return;
    optional = true;
    if (presence) {
      v.reset();
    } else {
      v = std::nextafter(*v, 1e300);
    }
  }
  template <typename Group>
  void optionals(Group group) {
    group(*this);
  }
};

TEST_F(BenchCommonTest, HistoryDivergenceNamesEveryFieldThatChanges) {
  TrainHistory a;
  for (std::size_t r = 0; r < 2; ++r) {
    a.rounds.push_back({.round = r, .train_loss = 0.5, .train_accuracy = 0.25,
                        .test_accuracy = 0.75, .grad_variance = 2.5,
                        .dissimilarity_b = 1.5, .mu = 0.1,
                        .mean_gamma = 0.3, .contributors = 7,
                        .stragglers = 2});
  }
  a.final_parameters = Vector{1.0, -2.0, 3.0};
  ASSERT_EQ(history_divergence(a, a), "");

  constexpr std::size_t kFields = 10;  // every RoundMetrics field
  for (std::size_t target = 0; target <= kFields; ++target) {
    for (const bool presence : {false, true}) {
      TrainHistory b = a;
      FieldChange change{.target = target, .presence = presence};
      visit_metrics(change, b.rounds[1]);
      if (target == kFields) {
        EXPECT_EQ(change.key, nullptr) << "a field past the " << kFields;
      } else if (!presence || change.optional) {
        EXPECT_EQ(history_divergence(a, b),
                  std::string("round 1: ") + change.key + " diverged")
            << (presence ? "presence of " : "value of ") << change.key;
      }
    }
  }

  TrainHistory b = a;
  b.final_parameters[2] = std::nextafter(3.0, 4.0);
  EXPECT_EQ(history_divergence(a, b), "final parameters diverged at index 2");
  b.rounds.pop_back();
  EXPECT_EQ(history_divergence(a, b), "round count 2 != 1");
}

}  // namespace
}  // namespace fed::bench
