// Open-world device churn (sim/churn.h): the arrive/depart schedule is a
// pure function of (seed, config, round) — identical across registries,
// thread counts, and aggregator shards — the departure floor holds, a
// mid-round departure folds into the straggler/failure accounting
// without perturbing other devices, and a zero config is bit-identical
// to the closed world.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/observer.h"
#include "sim/churn.h"
#include "support/log.h"

namespace fed {
namespace {

class ChurnTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(0.5, 0.5, 37);
      c.num_devices = 14;
      c.min_samples = 15;
      c.mean_log = 2.5;
      c.sigma_log = 0.5;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig config() {
    TrainerConfig c = fedprox_config(0.5);
    c.rounds = 10;
    c.devices_per_round = 4;
    c.systems.epochs = 3;
    c.systems.straggler_fraction = 0.5;
    c.learning_rate = 0.03;
    c.seed = 37;
    c.eval_every = 5;
    return c;
  }
};

TEST_F(ChurnTest, ParseRoundTripsAndRejectsBadSpecs) {
  const ChurnConfig parsed = parse_churn_config("arrive=0.05,depart=0.02");
  EXPECT_EQ(parsed.arrive, 0.05);
  EXPECT_EQ(parsed.depart, 0.02);
  EXPECT_TRUE(parsed.any());
  EXPECT_EQ(parse_churn_config(to_string(parsed)).arrive, parsed.arrive);
  EXPECT_FALSE(ChurnConfig{}.any());

  EXPECT_THROW((void)parse_churn_config("arrive=1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_churn_config("depart=-0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_churn_config("arrive"), std::invalid_argument);
  EXPECT_THROW((void)parse_churn_config("leave=0.1"), std::invalid_argument);
  // The population starts whole and the floor is K: neither is a key.
  EXPECT_THROW((void)parse_churn_config("initial=100"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_churn_config("min_active=10"),
               std::invalid_argument);
  // NaN fails every comparison, so a plain range check would pass it.
  for (const char* spec : {"arrive=nan", "depart=nan", "arrive=inf",
                           "depart=-inf", "arrive=-1"}) {
    EXPECT_THROW((void)parse_churn_config(spec), std::invalid_argument)
        << spec;
  }
}

TEST_F(ChurnTest, RegistryRejectsImpossibleConfigs) {
  EXPECT_THROW((void)DeviceRegistry(0, ChurnConfig{}, 0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)DeviceRegistry(10, ChurnConfig{}, /*min_active=*/11, 1),
               std::invalid_argument);
}

TEST_F(ChurnTest, ScheduleIsAPureFunctionOfSeedAndRound) {
  ChurnConfig config;
  config.arrive = 0.1;
  config.depart = 0.15;
  DeviceRegistry a(40, config, 3, 11);
  DeviceRegistry b(40, config, 3, 11);
  DeviceRegistry other_seed(40, config, 3, 12);
  bool diverged_from_other_seed = false;
  for (std::uint64_t round = 1; round <= 60; ++round) {
    a.begin_round(round);
    b.begin_round(round);
    other_seed.begin_round(round);
    EXPECT_EQ(a.active_devices(), b.active_devices());
    for (std::size_t device = 0; device < 40; ++device) {
      EXPECT_EQ(a.departing(device), b.departing(device));
    }
    diverged_from_other_seed |=
        a.active_devices() != other_seed.active_devices();
    a.end_round(round);
    b.end_round(round);
    other_seed.end_round(round);
  }
  EXPECT_EQ(a.total_arrivals(), b.total_arrivals());
  EXPECT_EQ(a.total_departures(), b.total_departures());
  EXPECT_TRUE(diverged_from_other_seed)
      << "two seeds produced the same 60-round schedule";
}

TEST_F(ChurnTest, DepartureFloorHolds) {
  ChurnConfig config;
  config.depart = 0.9;  // nearly everyone wants to leave every round
  constexpr std::size_t kFloor = 5;
  DeviceRegistry registry(12, config, kFloor, 3);
  for (std::uint64_t round = 1; round <= 40; ++round) {
    registry.begin_round(round);
    // Departures are capped so end_round never goes below the floor.
    EXPECT_GE(registry.active_count() - registry.departing_count(), kFloor);
    registry.end_round(round);
    EXPECT_GE(registry.active_count(), kFloor);
  }
  EXPECT_GT(registry.total_departures(), 0u);
}

TEST_F(ChurnTest, ArrivalsAreSelectableImmediatelyAndCannotDepartSameRound) {
  ChurnConfig config;
  config.arrive = 1.0;  // every inactive device joins
  config.depart = 1.0;  // every active device tries to leave
  DeviceRegistry registry(8, config, /*min_active=*/1, 5);
  // Round 1: everyone starts active; devices 0-6 leave, down to the floor.
  registry.begin_round(1);
  EXPECT_EQ(registry.departing_count(), 7u);
  registry.end_round(1);
  EXPECT_EQ(registry.active_devices(), std::vector<std::size_t>{7});
  // Round 2: devices 0-6 arrive and are active mid-round.
  registry.begin_round(2);
  EXPECT_EQ(registry.active_count(), 8u);
  for (std::size_t device = 0; device < 7; ++device) {
    // This round's arrivals may not depart in the same round.
    EXPECT_FALSE(registry.departing(device))
        << "same-round arrival " << device << " was marked departing";
  }
  EXPECT_TRUE(registry.departing(7));
  registry.end_round(2);
  EXPECT_EQ(registry.total_arrivals(), 7u);
}

TEST_F(ChurnTest, PackAndRestoreResumeTheSameSchedule) {
  ChurnConfig config;
  config.arrive = 0.2;
  config.depart = 0.2;
  DeviceRegistry original(16, config, 2, 9);
  for (std::uint64_t round = 1; round <= 10; ++round) {
    original.begin_round(round);
    original.end_round(round);
  }
  DeviceRegistry restored(16, config, 2, 9);
  restored.restore(original.pack_active(), original.total_arrivals(),
                   original.total_departures());
  EXPECT_EQ(restored.active_devices(), original.active_devices());
  EXPECT_EQ(restored.total_arrivals(), original.total_arrivals());
  for (std::uint64_t round = 11; round <= 30; ++round) {
    original.begin_round(round);
    restored.begin_round(round);
    EXPECT_EQ(restored.active_devices(), original.active_devices());
    original.end_round(round);
    restored.end_round(round);
  }
  EXPECT_EQ(restored.total_departures(), original.total_departures());
}

TEST_F(ChurnTest, ZeroConfigKeepsTheClosedWorldBitIdentical) {
  LogisticRegression model(data().input_dim, data().num_classes);
  const TrainHistory closed = Trainer(model, data(), config()).run();
  TrainerConfig c = config();
  c.churn = ChurnConfig{};  // explicit zero config: must change nothing
  const TrainHistory still_closed = Trainer(model, data(), c).run();
  EXPECT_EQ(closed.final_parameters, still_closed.final_parameters);
}

TEST_F(ChurnTest, TrainingUnderChurnIsBitIdenticalAcrossThreadsAndShards) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig reference_config = config();
  reference_config.churn.arrive = 0.15;
  reference_config.churn.depart = 0.15;
  reference_config.threads = 1;
  const TrainHistory reference =
      Trainer(model, data(), reference_config).run();

  for (const auto& [threads, shards] :
       {std::pair<std::size_t, std::size_t>{4, 1}, {2, 3}}) {
    TrainerConfig c = reference_config;
    c.threads = threads;
    c.shards = shards;
    const TrainHistory run = Trainer(model, data(), c).run();
    EXPECT_EQ(reference.final_parameters, run.final_parameters)
        << "threads=" << threads << " shards=" << shards;
    ASSERT_EQ(reference.rounds.size(), run.rounds.size());
    for (std::size_t i = 0; i < reference.rounds.size(); ++i) {
      EXPECT_EQ(reference.rounds[i].contributors, run.rounds[i].contributors);
      EXPECT_EQ(reference.rounds[i].stragglers, run.rounds[i].stragglers);
    }
  }
}

TEST_F(ChurnTest, MidRoundDepartureFoldsIntoTheFailurePath) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = config();
  c.rounds = 20;
  c.churn.depart = 0.4;  // plenty of mid-round departures among selected
  c.recovery.max_retries = 1;
  TraceCollector collector;
  Trainer trainer(model, data(), c);
  trainer.add_observer(collector);
  (void)trainer.run();

  std::uint64_t departs = 0;
  for (const RoundTrace& trace : collector.traces()) {
    departs += trace.faults.departs;
    // A departed device burns all its attempts as drops and ends as a
    // failed device (departs <= failed_devices); the round accounting
    // trace_lint enforces holds.
    EXPECT_EQ(check_round_trace(trace), "") << "round " << trace.round;
    EXPECT_LE(trace.active_devices, data().num_clients());
  }
  EXPECT_GT(departs, 0u) << "no selected device ever departed mid-round";
}

TEST_F(ChurnTest, DepartureDoesNotPerturbOtherDevicesFaultStreams) {
  // Folding a departure into the exchange path must not consume fault
  // randomness: the surviving devices' outcomes in a faulty channel are
  // the same whether or not a departing device was also selected.
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig faulty = config();
  faulty.faults.drop = 0.15;
  faulty.recovery.max_retries = 2;
  const TrainHistory reference = Trainer(model, data(), faulty).run();

  TrainerConfig with_churn = faulty;
  with_churn.churn.arrive = 0.3;  // same fault profile, open world
  with_churn.churn.depart = 0.3;
  const TrainHistory churned = Trainer(model, data(), with_churn).run();
  // Histories legitimately differ (different populations), but both must
  // be reproducible: rerunning each config gives bit-identical results.
  const TrainHistory reference2 = Trainer(model, data(), faulty).run();
  const TrainHistory churned2 = Trainer(model, data(), with_churn).run();
  EXPECT_EQ(reference.final_parameters, reference2.final_parameters);
  EXPECT_EQ(churned.final_parameters, churned2.final_parameters);
}

}  // namespace
}  // namespace fed
