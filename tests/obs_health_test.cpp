// HealthMonitor contract: silent on clean runs and on a device whose
// update the round driver rejects as non-finite, fatal with a useful
// report when the global weights or the evaluated loss go non-finite,
// and loss blow-up / stall detection on the evaluated loss stream.

#include "obs/health.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "optim/sgd.h"
#include "support/log.h"
#include "test_util.h"

namespace fed {
namespace {

class HealthTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(0.5, 0.5, 29);
      c.num_devices = 6;
      c.min_samples = 12;
      c.mean_log = 2.5;
      c.sigma_log = 0.4;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig config() {
    TrainerConfig c = fedprox_config(0.5);
    c.rounds = 4;
    c.devices_per_round = data().num_clients();  // select everyone
    c.systems.epochs = 2;
    c.systems.straggler_fraction = 0.0;
    c.learning_rate = 0.03;
    c.seed = 29;
    c.eval_every = 1;
    return c;
  }

  // Feeds an evaluated loss straight into the monitor's round-end hook.
  static void feed_loss(HealthMonitor& monitor, std::size_t round,
                        double loss) {
    RoundMetrics metrics;
    metrics.round = round;
    metrics.train_loss = loss;
    metrics.train_accuracy = 0.5;
    metrics.test_accuracy = 0.5;
    monitor.on_round_end(metrics, RoundTrace{});
  }
};

// Delegates to SGD but poisons every update of one target device
// (matched by its training-set address).
class PoisoningSolver final : public LocalSolver {
 public:
  explicit PoisoningSolver(const Dataset* target) : target_(target) {}

  std::string name() const override { return "poisoning_sgd"; }

  void solve(const LocalProblem& problem, const SolveBudget& budget, Rng& rng,
             std::span<double> w) const override {
    inner_.solve(problem, budget, rng, w);
    if (problem.data == target_) {
      w[0] = std::numeric_limits<double>::quiet_NaN();
    }
  }

 private:
  SgdSolver inner_;
  const Dataset* target_;
};

TEST_F(HealthTest, CleanRunStaysSilent) {
  LogisticRegression model(data().input_dim, data().num_classes);
  Trainer trainer(model, data(), config());
  MetricsRegistry registry;
  HealthMonitor health(HealthConfig{}, &registry);
  trainer.add_observer(health);
  trainer.run();

  EXPECT_TRUE(health.healthy());
  EXPECT_TRUE(health.incidents().empty());
  EXPECT_EQ(health.report(), "");
  EXPECT_EQ(registry.counter("health_incidents_total").value(), 0u);
}

TEST_F(HealthTest, InjectedNaNUpdateIsRejectedAndTrainingContinues) {
  // A device whose every update is NaN never reaches the aggregate: each
  // attempt is a corrupt arrival naming the coordinate, the device fails
  // every round, and the run completes on the other devices' updates.
  constexpr std::size_t kTarget = 2;
  LogisticRegression model(data().input_dim, data().num_classes);
  auto cfg = config();
  cfg.solver =
      std::make_shared<PoisoningSolver>(&data().clients[kTarget].train);
  Trainer trainer(model, data(), cfg);
  MetricsRegistry registry;
  HealthMonitor health(HealthConfig{}, &registry);
  testing::FaultEventCollector faults;
  TraceCollector traces;
  trainer.add_observer(health);
  trainer.add_observer(faults);
  trainer.add_observer(traces);
  const TrainHistory history = trainer.run();

  EXPECT_TRUE(health.healthy()) << health.report();
  EXPECT_EQ(registry.counter("health_incidents_total").value(), 0u);
  EXPECT_FALSE(history.diverged());
  const std::size_t attempts = cfg.recovery.max_retries + 1;
  ASSERT_EQ(faults.events.size(), cfg.rounds * (attempts + 1));
  for (std::size_t round = 1; round <= cfg.rounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const FaultEvent* e = &faults.events[(round - 1) * (attempts + 1)];
    for (std::size_t attempt = 0; attempt < attempts; ++attempt, ++e) {
      EXPECT_EQ(e->kind, FaultEvent::Kind::kCorrupt);
      EXPECT_EQ(e->round, round);
      EXPECT_EQ(e->device, kTarget);
      EXPECT_EQ(e->attempt, attempt);
      EXPECT_EQ(e->detail, "update coordinate 0 is nan");
    }
    EXPECT_EQ(e->kind, FaultEvent::Kind::kDeviceFailed);
    EXPECT_EQ(e->device, kTarget);
  }
  ASSERT_EQ(traces.traces().size(), cfg.rounds + 1);
  for (const RoundTrace& t : traces.traces()) {
    EXPECT_EQ(check_round_trace(t), "") << "round " << t.round;
    if (t.round == 0) continue;
    EXPECT_EQ(t.faults.failed_devices, 1u);
    EXPECT_EQ(t.contributors, data().num_clients() - 1);
  }
}

TEST_F(HealthTest, NonFiniteAggregateIsFatalNamingTheRound) {
  MetricsRegistry registry;
  HealthMonitor health(HealthConfig{}, &registry);
  const std::vector<double> weights = {
      0.5, std::numeric_limits<double>::infinity(), -1.0};
  try {
    health.on_aggregate(3, weights);
    FAIL() << "expected HealthError";
  } catch (const HealthError& error) {
    EXPECT_EQ(error.incident().kind, HealthIncident::Kind::kNonFiniteWeights);
    EXPECT_EQ(error.incident().round, 3u);
    const std::string report = error.what();
    EXPECT_NE(report.find("nonfinite_weights"), std::string::npos) << report;
    EXPECT_NE(report.find("round 3"), std::string::npos) << report;
  }
  EXPECT_EQ(registry.counter("health_nonfinite_weights_total").value(), 1u);
}

TEST_F(HealthTest, LossBlowupRecordedAgainstRunningMedian) {
  MetricsRegistry registry;
  HealthConfig cfg;
  cfg.blowup_factor = 10.0;
  HealthMonitor health(cfg, &registry);
  for (std::size_t round = 1; round <= 5; ++round) {
    feed_loss(health, round, 1.0);
  }
  EXPECT_TRUE(health.healthy());
  feed_loss(health, 6, 1000.0);  // 1000x the median of all-ones

  ASSERT_EQ(health.incidents().size(), 1u);
  const HealthIncident& incident = health.incidents().front();
  EXPECT_EQ(incident.kind, HealthIncident::Kind::kLossBlowup);
  EXPECT_EQ(incident.round, 6u);
  EXPECT_NEAR(incident.value, 1000.0, 1e-9);
  EXPECT_EQ(registry.counter("health_loss_blowup_total").value(), 1u);
  EXPECT_NE(health.report().find("loss_blowup"), std::string::npos);
}

TEST_F(HealthTest, LossBlowupCanBeFatal) {
  HealthConfig cfg;
  cfg.blowup_factor = 10.0;
  cfg.abort_on_blowup = true;
  HealthMonitor health(cfg);
  feed_loss(health, 1, 1.0);
  feed_loss(health, 2, 1.0);
  EXPECT_THROW(feed_loss(health, 3, 100.0), HealthError);
}

TEST_F(HealthTest, NonFiniteEvaluatedLossIsFatal) {
  HealthMonitor health;
  feed_loss(health, 1, 0.7);
  EXPECT_THROW(
      feed_loss(health, 2, std::numeric_limits<double>::quiet_NaN()),
      HealthError);
  ASSERT_EQ(health.incidents().size(), 1u);
  EXPECT_EQ(health.incidents().front().kind,
            HealthIncident::Kind::kNonFiniteLoss);
}

TEST_F(HealthTest, StallReportedOnceAfterPatienceRunsOut) {
  HealthConfig cfg;
  cfg.stall_patience = 3;
  HealthMonitor health(cfg);
  feed_loss(health, 1, 1.0);
  for (std::size_t round = 2; round <= 10; ++round) {
    feed_loss(health, round, 1.0);  // never improves
  }
  ASSERT_EQ(health.incidents().size(), 1u);
  const HealthIncident& incident = health.incidents().front();
  EXPECT_EQ(incident.kind, HealthIncident::Kind::kStalledConvergence);
  EXPECT_EQ(incident.round, 4u);  // patience of 3 exhausted at round 4

  // Improvement resets the streak and re-arms detection.
  feed_loss(health, 11, 0.5);
  for (std::size_t round = 12; round <= 15; ++round) {
    feed_loss(health, round, 0.5);
  }
  EXPECT_EQ(health.incidents().size(), 2u);
}

// A dead channel degrades every round; the log keeps the first
// kMaxIncidents, the report and the counters account for every one, and
// a fatal incident past the cap is still kept and thrown.
TEST_F(HealthTest, IncidentLogIsBoundedOnADeadChannel) {
  constexpr std::size_t kExtra = 5;
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig cfg = config();
  cfg.rounds = HealthMonitor::kMaxIncidents + kExtra;
  cfg.eval_every = cfg.rounds;
  cfg.faults = FaultProfile{.drop = 1.0};
  Trainer trainer(model, data(), cfg);
  MetricsRegistry registry;
  HealthMonitor health(HealthConfig{}, &registry);
  trainer.add_observer(health);
  trainer.run();

  ASSERT_EQ(health.incidents().size(), HealthMonitor::kMaxIncidents);
  EXPECT_EQ(health.incidents().back().round, HealthMonitor::kMaxIncidents);
  EXPECT_FALSE(health.healthy());
  EXPECT_EQ(registry.counter("health_incidents_total").value(), cfg.rounds);
  EXPECT_EQ(registry.counter("health_degraded_round_total").value(),
            cfg.rounds);
  const std::string report = health.report();
  EXPECT_NE(report.find("health: " + std::to_string(cfg.rounds) +
                        " incidents detected, " + std::to_string(kExtra) +
                        " not listed\n"),
            std::string::npos)
      << report;

  const std::vector<double> weights = {
      std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(health.on_aggregate(cfg.rounds + 1, weights), HealthError);
  ASSERT_EQ(health.incidents().size(), HealthMonitor::kMaxIncidents + 1);
  EXPECT_EQ(health.incidents().back().kind,
            HealthIncident::Kind::kNonFiniteWeights);
  EXPECT_EQ(registry.counter("health_incidents_total").value(),
            cfg.rounds + 1);
  EXPECT_NE(health.report().find(", " + std::to_string(kExtra) +
                                 " not listed\n"),
            std::string::npos);
}

TEST_F(HealthTest, RunStartResetsState) {
  HealthMonitor health;
  feed_loss(health, 1, 1.0);
  feed_loss(health, 2, 1.0);
  health.on_run_start(RunInfo{});
  // A fresh run has no median history, so a big first loss is fine.
  feed_loss(health, 1, 500.0);
  EXPECT_TRUE(health.healthy());
}

}  // namespace
}  // namespace fed
