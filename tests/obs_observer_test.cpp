// Observer API contract: hook cadence and ordering through a real
// Trainer run, composite fan-out, and registration-time guarantees.

#include "obs/observer.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "support/log.h"

namespace fed {
namespace {

constexpr std::size_t kRounds = 6;
constexpr std::size_t kDevices = 4;

class ObserverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(0.5, 0.5, 17);
      c.num_devices = 8;
      c.min_samples = 12;
      c.mean_log = 2.5;
      c.sigma_log = 0.4;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig config() {
    TrainerConfig c = fedprox_config(0.5);
    c.rounds = kRounds;
    c.devices_per_round = kDevices;
    c.systems.epochs = 3;
    c.systems.straggler_fraction = 0.5;
    c.learning_rate = 0.03;
    c.seed = 17;
    c.eval_every = 2;
    return c;
  }
};

// Records every hook invocation as a tagged string.
struct RecordingObserver : TrainingObserver {
  std::vector<std::string> events;
  RunInfo run_info;
  std::vector<std::size_t> client_rounds;

  void on_run_start(const RunInfo& info) override {
    run_info = info;
    events.push_back("run_start");
  }
  void on_round_start(std::size_t round,
                      std::span<const std::size_t> selected) override {
    events.push_back("round_start:" + std::to_string(round) + ":k=" +
                     std::to_string(selected.size()));
  }
  void on_client_result(std::size_t round, const ClientResult& result) override {
    client_rounds.push_back(round);
    events.push_back("client:" + std::to_string(result.device));
  }
  void on_round_end(const RoundMetrics& metrics,
                    const RoundTrace& trace) override {
    EXPECT_EQ(metrics.round, trace.round);
    events.push_back("round_end:" + std::to_string(metrics.round));
  }
  void on_run_end(const TrainHistory& history) override {
    EXPECT_FALSE(history.rounds.empty());
    events.push_back("run_end");
  }
};

TEST_F(ObserverTest, HookCountsMatchRunShape) {
  LogisticRegression model(data().input_dim, data().num_classes);
  Trainer trainer(model, data(), config());
  RecordingObserver rec;
  trainer.add_observer(rec);
  trainer.run();

  std::size_t run_starts = 0, round_starts = 0, clients = 0, round_ends = 0,
              run_ends = 0;
  for (const auto& e : rec.events) {
    if (e == "run_start") ++run_starts;
    if (e.starts_with("round_start:")) ++round_starts;
    if (e.starts_with("client:")) ++clients;
    if (e.starts_with("round_end:")) ++round_ends;
    if (e == "run_end") ++run_ends;
  }
  EXPECT_EQ(run_starts, 1u);
  EXPECT_EQ(round_starts, kRounds);
  EXPECT_EQ(clients, kRounds * kDevices);
  EXPECT_EQ(round_ends, kRounds + 1);  // round-0 record + training rounds
  EXPECT_EQ(run_ends, 1u);
}

TEST_F(ObserverTest, HookOrderingIsRunRoundClientEnd) {
  LogisticRegression model(data().input_dim, data().num_classes);
  Trainer trainer(model, data(), config());
  RecordingObserver rec;
  trainer.add_observer(rec);
  trainer.run();

  ASSERT_GE(rec.events.size(), 4u);
  EXPECT_EQ(rec.events.front(), "run_start");
  // The round-0 evaluation record lands before any training round starts.
  EXPECT_EQ(rec.events[1], "round_end:0");
  EXPECT_EQ(rec.events[2], "round_start:1:k=" + std::to_string(kDevices));
  EXPECT_EQ(rec.events.back(), "run_end");

  // Within each training round: round_start, K client results, round_end.
  std::size_t i = 2;
  for (std::size_t t = 1; t <= kRounds; ++t) {
    ASSERT_LT(i + kDevices + 1, rec.events.size() + 1);
    EXPECT_TRUE(rec.events[i].starts_with("round_start:" + std::to_string(t)));
    for (std::size_t k = 1; k <= kDevices; ++k) {
      EXPECT_TRUE(rec.events[i + k].starts_with("client:")) << rec.events[i + k];
    }
    EXPECT_EQ(rec.events[i + kDevices + 1], "round_end:" + std::to_string(t));
    i += kDevices + 2;
  }

  // Every client result is tagged with its training round.
  ASSERT_EQ(rec.client_rounds.size(), kRounds * kDevices);
  for (std::size_t j = 0; j < rec.client_rounds.size(); ++j) {
    EXPECT_EQ(rec.client_rounds[j], j / kDevices + 1);
  }
}

TEST_F(ObserverTest, RunInfoDescribesTheRun) {
  LogisticRegression model(data().input_dim, data().num_classes);
  const auto c = config();
  Trainer trainer(model, data(), c);
  RecordingObserver rec;
  trainer.add_observer(rec);
  trainer.run();

  EXPECT_EQ(rec.run_info.config.algorithm, Algorithm::kFedProx);
  EXPECT_EQ(rec.run_info.rounds, kRounds);
  EXPECT_EQ(rec.run_info.config.devices_per_round, kDevices);
  EXPECT_EQ(rec.run_info.num_clients, data().num_clients());
  EXPECT_EQ(rec.run_info.parameter_count, model.parameter_count());
  EXPECT_EQ(rec.run_info.config.seed, c.seed);
  EXPECT_EQ(name_of(rec.run_info.config.solver), "sgd");
  EXPECT_GE(rec.run_info.threads, 1u);
}

TEST_F(ObserverTest, MultipleObserversSeeIdenticalCadence) {
  LogisticRegression model(data().input_dim, data().num_classes);
  Trainer trainer(model, data(), config());
  RecordingObserver a, b;
  trainer.add_observer(a);
  trainer.add_observer(b);
  trainer.run();
  EXPECT_EQ(a.events, b.events);
}

TEST_F(ObserverTest, ObserversFireInRegistrationOrderThroughTrainer) {
  LogisticRegression model(data().input_dim, data().num_classes);
  Trainer trainer(model, data(), config());
  std::vector<int> order;
  struct Tagger : TrainingObserver {
    Tagger(std::vector<int>& order_log, int id) : order(order_log), tag(id) {}
    void on_round_end(const RoundMetrics&, const RoundTrace&) override {
      order.push_back(tag);
    }
    std::vector<int>& order;
    int tag;
  };
  Tagger first(order, 1), second(order, 2), third(order, 3);
  trainer.add_observer(first);
  trainer.add_observer(second);
  trainer.add_observer(third);
  trainer.run();

  // Every round-end fans out 1, 2, 3 in registration order.
  ASSERT_EQ(order.size(), 3 * (kRounds + 1));
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i % 3) + 1);
  }
}

TEST_F(ObserverTest, OnAggregateSeesEveryTrainingRound) {
  LogisticRegression model(data().input_dim, data().num_classes);
  Trainer trainer(model, data(), config());
  struct AggregateRecorder : TrainingObserver {
    std::vector<std::size_t> rounds;
    std::size_t dimension = 0;
    void on_aggregate(std::size_t round,
                      std::span<const double> weights) override {
      rounds.push_back(round);
      dimension = weights.size();
    }
  } rec;
  trainer.add_observer(rec);
  trainer.run();

  // One aggregation per training round (round 0 is evaluation only),
  // exposing the live global parameter vector.
  ASSERT_EQ(rec.rounds.size(), kRounds);
  for (std::size_t t = 0; t < kRounds; ++t) EXPECT_EQ(rec.rounds[t], t + 1);
  EXPECT_EQ(rec.dimension, model.parameter_count());
}

TEST_F(ObserverTest, AddObserverAfterRunStartThrows) {
  LogisticRegression model(data().input_dim, data().num_classes);
  auto c = config();
  c.rounds = 1;
  Trainer trainer(model, data(), c);
  RecordingObserver late;
  trainer.run();
  EXPECT_THROW(trainer.add_observer(late), std::logic_error);
}

TEST_F(ObserverTest, TraceCollectorGathersOneTracePerRecord) {
  LogisticRegression model(data().input_dim, data().num_classes);
  Trainer trainer(model, data(), config());
  TraceCollector collector;
  trainer.add_observer(collector);
  const auto history = trainer.run();

  const auto& traces = collector.traces();
  ASSERT_EQ(traces.size(), history.rounds.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].round, history.rounds[i].round);
    EXPECT_EQ(traces[i].evaluated, history.rounds[i].evaluated());
    EXPECT_EQ(traces[i].contributors, history.rounds[i].contributors);
    EXPECT_EQ(traces[i].stragglers, history.rounds[i].stragglers);
  }
  // Training rounds select K devices; solve stats cover all of them.
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].selected, kDevices);
    EXPECT_EQ(traces[i].solve.count, kDevices);
    EXPECT_GE(traces[i].round_seconds, 0.0);
  }
  collector.clear();
  EXPECT_TRUE(collector.traces().empty());
}

}  // namespace
}  // namespace fed
