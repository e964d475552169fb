// End-to-end tests mirroring the paper's experiments at miniature scale.

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/trainer.h"
#include "figures.h"
#include "support/log.h"

namespace fed {
namespace {

using bench::append_history_csv;
using bench::base_config;
using bench::history_csv_header;
using bench::run_variants;
using bench::settled_accuracy;
using bench::VariantSpec;

// The variants of figure row `name`'s section `tag` on `workload` at
// `seed`, as the figure's driver builds them.
std::vector<VariantSpec> figure_specs(const std::string& name,
                                      const Workload& workload,
                                      std::uint64_t seed,
                                      const std::string& tag) {
  bench::BenchOptions options;
  options.config.seed = seed;
  for (auto& section : bench::figure(name).sections(workload, options)) {
    if (section.tag == tag) return section.specs;
  }
  ADD_FAILURE() << name << " has no section " << tag;
  return {};
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }
};

// Figure 1's headline claim at mini scale: on heterogeneous synthetic
// data with 90% stragglers, tolerating partial work (FedProx mu=0) and
// adding the proximal term (the best mu, 1) both end with a lower global
// loss than FedAvg's drop-the-stragglers policy.
TEST_F(IntegrationTest, FedProxBeatsFedAvgUnderHighSystemsHeterogeneity) {
  const Workload w = make_workload("synthetic_1_1", /*seed=*/4);
  auto specs = figure_specs("fig1_systems_heterogeneity", w, 4,
                            "synthetic_1_1@90%stragglers");
  ASSERT_EQ(specs.size(), 3u);  // FedAvg, FedProx mu=0, FedProx best mu
  std::vector<double> loss;
  for (auto& spec : specs) {
    spec.config.rounds = 60;
    spec.config.eval_every = 60;  // only final evaluation; keeps it fast
    loss.push_back(*Trainer(*w.model, w.data, spec.config)
                        .run()
                        .final_metrics()
                        .train_loss);
  }
  EXPECT_LT(loss[1], loss[0]);
  EXPECT_LT(loss[2], loss[0]);
}

// Figure 5's control: on IID data FedAvg is robust to stragglers.
TEST_F(IntegrationTest, FedAvgRobustOnIidData) {
  const Workload w = make_workload("synthetic_iid", 4);
  TrainerConfig c = figure_specs("fig5_iid_stragglers", w, 4,
                                 "synthetic_iid@50% stragglers")
                        .at(0)  // FedAvg
                        .config;
  c.rounds = 40;
  c.eval_every = 40;
  auto history = Trainer(*w.model, w.data, c).run();
  EXPECT_FALSE(history.diverged());
  EXPECT_LT(*history.final_metrics().train_loss,
            *history.rounds.front().train_loss * 0.7);
}

// The proximal term shrinks measured dissimilarity (Section 5.3.3).
TEST_F(IntegrationTest, ProximalTermReducesGradientVariance) {
  const Workload w = make_workload("synthetic_1_1", 9);
  auto specs =
      figure_specs("fig2_statistical_heterogeneity", w, 9, "synthetic_1_1");
  ASSERT_EQ(specs.size(), 2u);  // mu = 0, mu = 1
  std::vector<TrainHistory> h;
  for (auto& spec : specs) {
    spec.config.rounds = 30;
    spec.config.eval_every = 30;
    h.push_back(Trainer(*w.model, w.data, spec.config).run());
  }
  EXPECT_LT(*h[1].final_metrics().grad_variance,
            *h[0].final_metrics().grad_variance);
}

// Both LSTM workloads run end to end without divergence at tiny scale.
TEST_F(IntegrationTest, SequenceWorkloadsTrainWithoutDivergence) {
  for (const char* name : {"shakespeare", "sent140"}) {
    Workload w = make_workload(name, 2, /*scale=*/0.12);
    bench::BenchOptions options;
    options.config.seed = 2;
    options.config.systems.epochs = 2;
    TrainerConfig c =
        base_config(w, options, Algorithm::kFedProx, w.best_mu, 0.0);
    c.rounds = 2;
    c.devices_per_round = std::min<std::size_t>(3, w.data.num_clients());
    c.eval_every = 2;
    auto history = Trainer(*w.model, w.data, c).run();
    EXPECT_FALSE(history.diverged()) << name;
  }
}

// settled_accuracy implements the paper's read-off rule.
TEST_F(IntegrationTest, SettledAccuracyRules) {
  TrainHistory h;
  auto add = [&](std::size_t round, double loss, double acc) {
    RoundMetrics m;
    m.round = round;
    m.train_loss = loss;
    m.test_accuracy = acc;
    h.rounds.push_back(m);
  };
  // Converged at the second step: |delta| < 1e-4.
  add(0, 1.0, 0.1);
  add(1, 0.5, 0.5);
  add(2, 0.499999, 0.7);
  add(3, 0.2, 0.9);
  EXPECT_DOUBLE_EQ(settled_accuracy(h), 0.7);

  // No convergence: last round wins.
  TrainHistory h2;
  for (std::size_t i = 0; i < 5; ++i) {
    RoundMetrics m;
    m.round = i;
    m.train_loss = 1.0 - 0.1 * static_cast<double>(i);
    m.test_accuracy = 0.1 * static_cast<double>(i);
    h2.rounds.push_back(m);
  }
  EXPECT_DOUBLE_EQ(settled_accuracy(h2), 0.4);
}

// Trainer histories serialize to the experiment CSV without error.
TEST_F(IntegrationTest, HistoryCsvRoundTrip) {
  const Workload w = make_workload("synthetic_iid", 4);
  bench::BenchOptions options;
  options.config.seed = 4;
  options.config.systems.epochs = 5;
  TrainerConfig c = base_config(w, options, Algorithm::kFedProx, 0.0, 0.0);
  c.rounds = 3;
  std::vector<VariantSpec> specs{{"FedProx (mu=0)", c}};
  auto results = run_variants(w, specs);
  CsvWriter csv("/tmp/fedprox_integration_test.csv", history_csv_header());
  append_history_csv(csv, w.name, results);
  SUCCEED();
}

}  // namespace
}  // namespace fed
