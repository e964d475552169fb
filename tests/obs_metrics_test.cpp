// Metrics registry: instrument semantics, stable references, registry
// copies, and the Trainer-fed MetricsObserver.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/observer.h"
#include "support/log.h"
#include "support/serialize.h"

namespace fed {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig sc = synthetic_config(0.5, 0.5, 23);
      sc.num_devices = 8;
      sc.min_samples = 12;
      sc.mean_log = 2.5;
      sc.sigma_log = 0.4;
      return make_synthetic(sc);
    }();
    return d;
  }

  // Four devices a round for `rounds` rounds, half of them stragglers.
  static TrainerConfig config(TrainerConfig c, std::size_t rounds) {
    c.rounds = rounds;
    c.devices_per_round = 4;
    c.systems.epochs = 3;
    c.systems.straggler_fraction = 0.5;
    c.learning_rate = 0.03;
    c.seed = 23;
    return c;
  }
};

TEST_F(MetricsTest, CounterAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c = Counter{};  // a plain value: resetting is assigning a fresh one
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST_F(MetricsTest, HistogramTracksSumMinMaxMean) {
  Histogram h;
  h.observe(2e-6);
  h.observe(8e-6);
  h.observe(32e-6);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 42e-6, 1e-12);
  EXPECT_NEAR(h.min(), 2e-6, 1e-12);
  EXPECT_NEAR(h.max(), 32e-6, 1e-12);
  EXPECT_NEAR(h.mean(), 14e-6, 1e-12);
}

TEST_F(MetricsTest, HistogramBucketsAreExponential) {
  // scale = 1: bucket 0 covers up to 2, bucket i covers (2^i, 2^(i+1)].
  Histogram h(/*scale=*/1.0, /*num_buckets=*/4);
  h.observe(1.0);   // bucket 0
  h.observe(2.0);   // bucket 0: an edge counts in the bucket it closes
  h.observe(3.0);   // bucket 1
  h.observe(4.0);   // bucket 1
  h.observe(5.0);   // bucket 2
  h.observe(100.0); // clamps to the last bucket
  h.observe(0.25);  // clamps to the first bucket
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{3, 2, 1, 1}));
  EXPECT_EQ(h.count(), 7u);
}

TEST_F(MetricsTest, RegistryReturnsStableInstruments) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);  // find-or-create: same name, same instrument
  a.add(7);
  EXPECT_EQ(registry.counter("x").value(), 7u);
  EXPECT_NE(&registry.counter("y"), &a);

  // Registering more instruments never moves the cached ones, and a copy
  // of the registry is independent of the original.
  for (int i = 0; i < 100; ++i) {
    registry.counter("z", {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(&registry.counter("x"), &a);
  const MetricsRegistry copy = registry;
  a.add(1);
  EXPECT_EQ(copy.counters().at("x").at({}).value(), 7u);
  EXPECT_EQ(registry.counter("x").value(), 8u);
}

TEST_F(MetricsTest, MetricsObserverFedByTrainerRun) {
  LogisticRegression model(data().input_dim, data().num_classes);
  MetricsRegistry registry;
  MetricsObserver metrics(registry);
  Trainer trainer(model, data(), config(fedprox_config(0.5), 5));
  trainer.add_observer(metrics);
  const auto history = trainer.run();

  EXPECT_EQ(registry.counter("fed_rounds_total").value(),
            history.rounds.size());
  EXPECT_EQ(registry.counter("fed_clients_total").value(), 5u * 4u);
  std::size_t stragglers = 0;
  for (const auto& m : history.rounds) stragglers += m.stragglers;
  EXPECT_EQ(registry.counter("fed_stragglers_total").value(), stragglers);

  // Transport-measured traffic: one broadcast per selected device down,
  // one update per contributor up, at exact wire sizes.
  const std::size_t d = model.parameter_count();
  std::uint64_t expect_up = 0;
  for (const auto& m : history.rounds) {
    expect_up += m.contributors * update_wire_size(d);
  }
  EXPECT_EQ(registry.counter("fed_comm_bytes_up_total").value(), expect_up);
  EXPECT_EQ(registry.counter("fed_comm_bytes_down_total").value(),
            5u * 4u * broadcast_wire_size(d, 0));

  EXPECT_DOUBLE_EQ(registry.gauge("fed_mu").value(), 0.5);
  EXPECT_DOUBLE_EQ(registry.gauge("fed_round").value(),
                   static_cast<double>(history.rounds.back().round));
  EXPECT_DOUBLE_EQ(registry.gauge("fed_train_loss").value(),
                   *history.final_metrics().train_loss);

  EXPECT_EQ(registry.histogram("fed_round_seconds").count(),
            history.rounds.size());
  EXPECT_EQ(registry.histogram("fed_client_solve_seconds").count(),
            5u * 4u);
}

// FedAvg drops its stragglers at aggregation, so the updates the server
// accepted (one solve each) outnumber the contributors: fed_clients_total
// and the solve-time histogram count the former.
TEST_F(MetricsTest, FedAvgClientsCountAcceptedUpdatesNotContributors) {
  LogisticRegression model(data().input_dim, data().num_classes);
  MetricsRegistry registry;
  MetricsObserver metrics(registry);
  TraceCollector collector;
  Trainer trainer(model, data(), config(fedavg_config(), 6));
  trainer.add_observer(metrics);
  trainer.add_observer(collector);
  (void)trainer.run();

  std::uint64_t solves = 0;
  std::uint64_t contributors = 0;
  for (const RoundTrace& t : collector.traces()) {
    solves += t.solve.count;
    contributors += t.contributors;
  }
  EXPECT_EQ(registry.counter("fed_clients_total").value(), solves);
  EXPECT_EQ(registry.histogram("fed_client_solve_seconds").count(),
            solves);
  EXPECT_GT(solves, contributors);
}

}  // namespace
}  // namespace fed
