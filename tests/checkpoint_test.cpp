// Crash recovery (core/checkpoint.h): the FPC1 snapshot round-trips
// bit-exactly and rejects any damage, the CheckpointWriter is atomic and
// retention-bounded, the trainer writes on the configured cadence, and —
// the central contract — a crashed-and-resumed run reproduces the
// uninterrupted TrainHistory bit-for-bit, including under channel
// faults, open-world churn, and a different thread/shard count after the
// resume. Also covers the telemetry resume semantics the bench layer
// relies on: JsonlTraceSink append mode, counter seeding from a
// published exposition file, and counters that count replayed rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/transport.h"
#include "core/checkpoint.h"
#include "core/mu_controller.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "optim/gd.h"
#include "optim/sgd.h"
#include "support/log.h"
#include "support/serialize.h"
#include "test_util.h"

namespace fed {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  void SetUp() override {
    dir_ = ::testing::TempDir() + "fedprox_checkpoint_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(0.5, 0.5, 33);
      c.num_devices = 12;
      c.min_samples = 15;
      c.mean_log = 2.5;
      c.sigma_log = 0.5;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig config() {
    TrainerConfig c = fedprox_config(0.5);
    c.rounds = 12;
    c.devices_per_round = 4;
    c.systems.epochs = 3;
    c.systems.straggler_fraction = 0.5;
    c.learning_rate = 0.03;
    c.seed = 33;
    c.eval_every = 3;
    return c;
  }

  // A fully-populated snapshot exercising every optional field.
  static CheckpointState sample_state() {
    CheckpointState state;
    state.fingerprint = 0x1234abcd5678ef01ull;
    state.seed = 42;
    state.next_round = 9;
    state.mu = 0.75;
    state.mu_state = {.last = 1.25, .has_last = true, .streak = 3};
    state.parameters = Vector{0.5, -1.25, 3.0, 0.0};
    state.population = 10;
    state.churn_arrivals = 7;
    state.churn_departures = 5;
    state.active = {0xAF, 0x02};
    RoundMetrics m;
    m.round = 8;
    m.train_loss = 0.5;
    m.train_accuracy = 0.75;
    m.test_accuracy = 0.625;
    m.dissimilarity_b = 1.5;
    m.mu = 0.75;
    m.mean_gamma = 0.125;
    m.contributors = 4;
    m.stragglers = 2;
    RoundMetrics first;
    first.round = 7;
    first.mu = 0.5;
    state.rounds = {first, m};
    return state;
  }

  // Runs config `c` to completion; on a planned crash, resumes from the
  // newest checkpoint (repeatedly, in case a second crash is armed by
  // the caller between calls) and returns the combined history.
  static TrainHistory run_with_recovery(const Model& model, TrainerConfig c,
                                        const std::string& dir) {
    c.checkpoint.dir = dir;
    for (;;) {
      try {
        Trainer trainer(model, data(), c);
        if (auto newest = latest_checkpoint(dir)) {
          return trainer.resume(*newest);
        }
        return trainer.run();
      } catch (const ServerCrashed&) {
        c.crash = {};  // the next segment's server stays up
      }
    }
  }

  // Resumes from each case's frame (saved with a fresh checksum) and
  // expects a runtime_error naming `what` before any observer hook
  // fires.
  void expect_refused(
      const std::vector<std::pair<std::string, CheckpointState>>& cases,
      const std::string& what) {
    LogisticRegression model(data().input_dim, data().num_classes);
    for (const auto& [name, state] : cases) {
      SCOPED_TRACE(name);
      const std::string path = dir_ + "/" + name + ".fpc";
      save_checkpoint_state(path, state);
      struct HookCounter : TrainingObserver {
        std::size_t calls = 0;
        void on_run_start(const RunInfo&) override { ++calls; }
        void on_round_end(const RoundMetrics&, const RoundTrace&) override {
          ++calls;
        }
      } hooks;
      Trainer trainer(model, data(), run_config());
      trainer.add_observer(hooks);
      try {
        (void)trainer.resume(path);
        ADD_FAILURE() << name << " was resumed from";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(hooks.calls, 0u);
    }
  }

  TrainerConfig run_config() const {
    TrainerConfig c = config();
    c.checkpoint.dir = dir_ + "/ckpt";
    c.checkpoint.every = 4;
    return c;
  }

  // The newest checkpoint of a finished run_config() run.
  CheckpointState valid_state() {
    LogisticRegression model(data().input_dim, data().num_classes);
    (void)Trainer(model, data(), run_config()).run();
    const auto newest = latest_checkpoint(run_config().checkpoint.dir);
    EXPECT_TRUE(newest.has_value());
    return load_checkpoint_state(*newest);
  }

  std::string dir_;
};

TEST_F(CheckpointTest, StateRoundTripsBitExact) {
  const CheckpointState state = sample_state();
  const WireBuffer wire = encode_checkpoint_state(state);
  const CheckpointState back =
      decode_checkpoint_state(std::span<const std::uint8_t>(wire));
  EXPECT_EQ(back.fingerprint, state.fingerprint);
  EXPECT_EQ(back.seed, state.seed);
  EXPECT_EQ(back.next_round, state.next_round);
  EXPECT_EQ(back.mu, state.mu);
  EXPECT_EQ(back.mu_state.last, 1.25);
  EXPECT_TRUE(back.mu_state.has_last);
  EXPECT_EQ(back.mu_state.streak, 3u);
  EXPECT_EQ(back.parameters, state.parameters);
  EXPECT_EQ(back.population, state.population);
  EXPECT_EQ(back.churn_arrivals, state.churn_arrivals);
  EXPECT_EQ(back.churn_departures, state.churn_departures);
  EXPECT_EQ(back.active, state.active);
  ASSERT_EQ(back.rounds.size(), 2u);
  EXPECT_EQ(back.rounds[0].round, 7u);
  EXPECT_FALSE(back.rounds[0].evaluated());
  EXPECT_EQ(back.rounds[1].train_loss, state.rounds[1].train_loss);
  EXPECT_EQ(back.rounds[1].mean_gamma, state.rounds[1].mean_gamma);
  EXPECT_EQ(back.rounds[1].stragglers, 2u);
}

TEST_F(CheckpointTest, EveryBitFlipIsRejected) {
  // The FNV-1a trailer covers the whole frame: flipping ANY single bit —
  // header, payload, or the checksum itself — must fail the load.
  const WireBuffer wire = encode_checkpoint_state(sample_state());
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    WireBuffer damaged = wire;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(
        (void)decode_checkpoint_state(std::span<const std::uint8_t>(damaged)),
        std::runtime_error)
        << "flip of bit " << bit << " was not detected";
  }
}

TEST_F(CheckpointTest, TruncationAndTrailingBytesAreRejected) {
  const WireBuffer wire = encode_checkpoint_state(sample_state());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    WireBuffer prefix(wire.begin(),
                      wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(
        (void)decode_checkpoint_state(std::span<const std::uint8_t>(prefix)),
        std::runtime_error)
        << "prefix of " << len << " bytes was not rejected";
  }
  WireBuffer extended = wire;
  extended.push_back(0x00);
  EXPECT_THROW(
      (void)decode_checkpoint_state(std::span<const std::uint8_t>(extended)),
      std::runtime_error);
}

TEST_F(CheckpointTest, SaveLoadIsAtomicOnDisk) {
  const CheckpointState state = sample_state();
  const std::string path = dir_ + "/ckpt-000000000008.fpc";
  save_checkpoint_state(path, state);
  EXPECT_TRUE(std::filesystem::exists(path));
  // temp+rename leaves no intermediate file behind.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".fpc")
        << "stray file " << entry.path();
  }
  const CheckpointState back = load_checkpoint_state(path);
  EXPECT_EQ(back.parameters, state.parameters);
  EXPECT_EQ(back.next_round, state.next_round);
  EXPECT_THROW((void)load_checkpoint_state(dir_ + "/absent.fpc"),
               std::runtime_error);
}

TEST_F(CheckpointTest, CorruptFileOnDiskIsRejected) {
  const std::string path = dir_ + "/ckpt-000000000008.fpc";
  save_checkpoint_state(path, sample_state());
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(12);
  file.put('\x7f');
  file.close();
  EXPECT_THROW((void)load_checkpoint_state(path), std::runtime_error);
}

TEST_F(CheckpointTest, WriterPrunesBeyondRetention) {
  CheckpointConfig config;
  config.dir = dir_;
  config.every = 1;
  config.retain = 2;
  CheckpointWriter writer(config);
  CheckpointState state = sample_state();
  for (std::uint64_t round = 1; round <= 5; ++round) {
    state.next_round = round + 1;  // names the file ckpt-<round>.fpc
    const auto info = writer.write(state);
    EXPECT_GT(info.bytes, 0u);
    EXPECT_LE(info.generations, config.retain);
  }
  const auto files = list_checkpoints(dir_);
  ASSERT_EQ(files.size(), 2u);  // only the newest two generations remain
  EXPECT_NE(files[0].find("ckpt-000000000004.fpc"), std::string::npos);
  EXPECT_NE(files[1].find("ckpt-000000000005.fpc"), std::string::npos);
  EXPECT_EQ(latest_checkpoint(dir_), files[1]);
  EXPECT_EQ(load_checkpoint_state(files[1]).next_round, 6u);
}

TEST_F(CheckpointTest, ListingSkipsNamesWhoseRoundOverflows) {
  // A stray file whose round does not fit in a u64 is not a checkpoint:
  // listing (and so resume, and the writer's pruning) skips it instead
  // of throwing.
  std::filesystem::create_directories(dir_);
  const std::string stray = dir_ + "/ckpt-99999999999999999999999.fpc";
  std::ofstream(stray) << "stray";
  std::ofstream(dir_ + "/ckpt-18446744073709551616.fpc") << "stray";
  CheckpointConfig config;
  config.dir = dir_;
  config.every = 1;
  CheckpointWriter writer(config);
  CheckpointState state = sample_state();
  state.next_round = 4;
  const std::string written = writer.write(state).path;
  const auto files = list_checkpoints(dir_);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], written);
  EXPECT_EQ(latest_checkpoint(dir_), written);
  EXPECT_TRUE(std::filesystem::exists(stray));
}

TEST_F(CheckpointTest, TrainerWritesOnTheConfiguredCadence) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = config();  // 12 rounds
  c.checkpoint.dir = dir_;
  c.checkpoint.every = 5;
  c.checkpoint.retain = 10;
  (void)Trainer(model, data(), c).run();
  const auto files = list_checkpoints(dir_);
  ASSERT_EQ(files.size(), 2u);  // after rounds 5 and 10 only
  EXPECT_EQ(load_checkpoint_state(files[0]).next_round, 6u);
  EXPECT_EQ(load_checkpoint_state(files[1]).next_round, 11u);
}

TEST_F(CheckpointTest, CheckpointingItselfNeverChangesHistory) {
  LogisticRegression model(data().input_dim, data().num_classes);
  const TrainHistory plain = Trainer(model, data(), config()).run();
  TrainerConfig c = config();
  c.checkpoint.dir = dir_;
  c.checkpoint.every = 2;
  const TrainHistory checkpointed = Trainer(model, data(), c).run();
  EXPECT_EQ(plain.final_parameters, checkpointed.final_parameters);
  ASSERT_EQ(plain.rounds.size(), checkpointed.rounds.size());
}

TEST_F(CheckpointTest, CrashAndResumeIsBitIdentical) {
  LogisticRegression model(data().input_dim, data().num_classes);
  const TrainHistory reference = Trainer(model, data(), config()).run();

  TrainerConfig c = config();
  c.checkpoint.every = 4;
  c.crash.at_round = 9;  // dies mid-aggregation; newest checkpoint: round 8
  const TrainHistory resumed = run_with_recovery(model, c, dir_);

  EXPECT_EQ(reference.final_parameters, resumed.final_parameters);
  ASSERT_EQ(reference.rounds.size(), resumed.rounds.size());
  for (std::size_t i = 0; i < reference.rounds.size(); ++i) {
    EXPECT_EQ(reference.rounds[i].round, resumed.rounds[i].round);
    EXPECT_EQ(reference.rounds[i].train_loss, resumed.rounds[i].train_loss);
    EXPECT_EQ(reference.rounds[i].mu, resumed.rounds[i].mu);
    EXPECT_EQ(reference.rounds[i].contributors,
              resumed.rounds[i].contributors);
  }
}

TEST_F(CheckpointTest, ResumeMayChangeThreadsAndShards) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig reference_config = config();
  reference_config.threads = 1;
  const TrainHistory reference =
      Trainer(model, data(), reference_config).run();

  // Crash a single-threaded, unsharded run; resume with 4 threads and 3
  // aggregator shards. Both knobs are excluded from the fingerprint and
  // bit-identity-neutral by contract.
  TrainerConfig crashed = config();
  crashed.threads = 1;
  crashed.checkpoint.dir = dir_;
  crashed.checkpoint.every = 4;
  crashed.crash.at_round = 7;
  try {
    (void)Trainer(model, data(), crashed).run();
    FAIL() << "planned crash did not fire";
  } catch (const ServerCrashed& crash) {
    EXPECT_EQ(crash.round(), 7u);
  }
  TrainerConfig resumed_config = config();
  resumed_config.threads = 4;
  resumed_config.shards = 3;
  resumed_config.checkpoint.dir = dir_;
  resumed_config.checkpoint.every = 4;
  const auto newest = latest_checkpoint(dir_);
  ASSERT_TRUE(newest.has_value());
  const TrainHistory resumed =
      Trainer(model, data(), resumed_config).resume(*newest);
  EXPECT_EQ(reference.final_parameters, resumed.final_parameters);
  EXPECT_EQ(reference.rounds.size(), resumed.rounds.size());
}

TEST_F(CheckpointTest, ResumeUnderChannelFaultsAndChurn) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = config();
  c.faults.drop = 0.2;
  c.faults.corrupt = 0.05;
  c.recovery.max_retries = 2;
  c.churn.arrive = 0.1;
  c.churn.depart = 0.1;
  const TrainHistory reference = Trainer(model, data(), c).run();

  TrainerConfig crashed = c;
  crashed.checkpoint.every = 3;
  crashed.crash.at_round = 8;
  const TrainHistory resumed = run_with_recovery(model, crashed, dir_);
  EXPECT_EQ(reference.final_parameters, resumed.final_parameters);
  ASSERT_EQ(reference.rounds.size(), resumed.rounds.size());
  for (std::size_t i = 0; i < reference.rounds.size(); ++i) {
    EXPECT_EQ(reference.rounds[i].contributors,
              resumed.rounds[i].contributors);
    EXPECT_EQ(reference.rounds[i].train_loss, resumed.rounds[i].train_loss);
  }
}

TEST_F(CheckpointTest, AdaptiveMuStateSurvivesTheCrash) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = config();
  c.eval_every = 1;  // adaptive mu moves on evaluated rounds
  c.mu = 0.5;
  c.mu_policy = MuPolicy::kAdaptive;
  const TrainHistory reference = Trainer(model, data(), c).run();

  TrainerConfig crashed = c;
  crashed.checkpoint.dir = dir_;
  crashed.checkpoint.every = 4;
  crashed.crash.at_round = 10;
  EXPECT_THROW((void)Trainer(model, data(), crashed).run(), ServerCrashed);
  // The round-8 checkpoint is mid-streak: the controller's count of
  // consecutive decreases toward its patience of 5 must carry over.
  const auto newest = latest_checkpoint(dir_);
  ASSERT_TRUE(newest.has_value());
  const CheckpointState state = load_checkpoint_state(*newest);
  EXPECT_EQ(state.next_round, 9u);
  ASSERT_TRUE(state.mu_state.has_last);
  EXPECT_GT(state.mu_state.streak, 0u);
  EXPECT_LT(state.mu_state.streak, MuController::kPatience);

  const TrainHistory resumed =
      Trainer(model, data(), c).resume(*newest);
  ASSERT_EQ(reference.rounds.size(), resumed.rounds.size());
  for (std::size_t i = 0; i < reference.rounds.size(); ++i) {
    EXPECT_EQ(reference.rounds[i].mu, resumed.rounds[i].mu)
        << "adaptive mu diverged at round " << reference.rounds[i].round;
  }
  EXPECT_EQ(reference.final_parameters, resumed.final_parameters);
}

TEST_F(CheckpointTest, FingerprintMismatchRefusesToResume) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = config();
  c.checkpoint.dir = dir_;
  c.checkpoint.every = 4;
  (void)Trainer(model, data(), c).run();
  const auto newest = latest_checkpoint(dir_);
  ASSERT_TRUE(newest.has_value());

  TrainerConfig other = config();
  other.seed = c.seed + 1;  // any trajectory-relevant knob must be caught
  Trainer mismatched(model, data(), other);
  EXPECT_THROW((void)mismatched.resume(*newest), std::runtime_error);

  TrainerConfig same = config();
  same.threads = 8;  // neutral knobs must NOT be caught
  const TrainHistory ok = Trainer(model, data(), same).resume(*newest);
  EXPECT_FALSE(ok.rounds.empty());
}

TEST_F(CheckpointTest, ResumeUnderAnotherSolverIsRefused) {
  // A history that is half SGD and half GD matches no real run.
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = config();
  c.checkpoint.dir = dir_;
  c.checkpoint.every = 4;
  (void)Trainer(model, data(), c).run();
  const auto newest = latest_checkpoint(dir_);
  ASSERT_TRUE(newest.has_value());

  TrainerConfig gd = config();
  gd.solver = std::make_shared<GdSolver>();
  Trainer mismatched(model, data(), gd);
  try {
    (void)mismatched.resume(*newest);
    ADD_FAILURE() << "resumed an SGD checkpoint under GD";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
  // Naming the default solver is the same run as leaving it unset.
  TrainerConfig sgd = config();
  sgd.solver = std::make_shared<SgdSolver>();
  EXPECT_FALSE(
      Trainer(model, data(), sgd).resume(*newest).rounds.empty());
}

TEST_F(CheckpointTest, FingerprintCoversEveryTrajectoryKnob) {
  // Walks the config field list: changing a leaf it marks
  // trajectory-relevant must change the fingerprint, and changing any
  // other leaf must not, so a run may resume with other threads, shards,
  // transport or checkpoint/crash plans.
  const auto fingerprint = [](const TrainerConfig& c) {
    return config_fingerprint(c, 12, 100);
  };
  const std::uint64_t base = fingerprint(config());
  const auto perturb = [](auto& leaf) {
    using T = std::remove_cvref_t<decltype(leaf)>;
    if constexpr (std::is_same_v<T, bool>) {
      leaf = !leaf;
    } else if constexpr (std::is_enum_v<T>) {
      leaf = static_cast<T>(static_cast<int>(leaf) == 0 ? 1 : 0);
    } else if constexpr (std::is_arithmetic_v<T>) {
      leaf = leaf + 1;
    } else if constexpr (std::is_same_v<T, std::string>) {
      leaf += "x";
    } else if constexpr (std::is_same_v<T,
                                        std::shared_ptr<const LocalSolver>>) {
      leaf = std::make_shared<GdSolver>();
    } else {
      leaf = make_transport(TransportKind::kSerialized);
    }
  };
  std::size_t relevant = 0;
  for (const testing::ConfigLeaf& leaf : testing::config_leaves()) {
    TrainerConfig c = config();
    testing::edit_config_leaf(c, leaf.path, perturb);
    if (leaf.field.trajectory) {
      ++relevant;
      EXPECT_NE(fingerprint(c), base) << leaf.path << " is not in it";
    } else {
      EXPECT_EQ(fingerprint(c), base) << leaf.path << " blocks a resume";
    }
  }
  EXPECT_EQ(relevant, 24u);  // 31 leaves less threads, shards, transport,
                             // the checkpoint plan and the crash plan
  EXPECT_NE(config_fingerprint(config(), 13, 100), base) << "population";
  EXPECT_NE(config_fingerprint(config(), 12, 101), base) << "parameter count";
}

TEST_F(CheckpointTest, ResumeRejectsAWrongLengthParameterVector) {
  // The parameter vector is read from disk: a frame whose fingerprint
  // matches but whose weights do not fit the model must be refused, not
  // trained on.
  LogisticRegression model(data().input_dim, data().num_classes);
  const TrainerConfig c = config();
  CheckpointState state = sample_state();
  state.fingerprint =
      config_fingerprint(c, data().num_clients(), model.parameter_count());
  state.seed = c.seed;
  state.next_round = 5;
  state.parameters = Vector(model.parameter_count() + 1, 0.0);
  state.population = data().num_clients();
  state.active.assign((data().num_clients() + 7) / 8, 0xff);
  const std::string path = dir_ + "/ckpt-000000000004.fpc";
  save_checkpoint_state(path, state);
  try {
    (void)Trainer(model, data(), c).resume(path);
    FAIL() << "a wrong-length parameter vector was resumed from";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("dimension"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, ResumeRejectsAHistoryOrPopulationThatDoesNotFit) {
  // A frame that decodes (its checksum is recomputed on save) can still
  // disagree with the run: a history that is not exactly rounds
  // 0..next_round-1 would resume into a short TrainHistory, and another
  // population would not fit the device registry. Both are refused
  // before any observer hook fires.
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = config();
  c.checkpoint.dir = dir_ + "/ckpt";
  c.checkpoint.every = 4;
  (void)Trainer(model, data(), c).run();
  const auto newest = latest_checkpoint(c.checkpoint.dir);
  ASSERT_TRUE(newest.has_value());
  const CheckpointState valid = load_checkpoint_state(*newest);
  ASSERT_EQ(valid.rounds.size(), valid.next_round);

  struct HookCounter : TrainingObserver {
    std::size_t calls = 0;
    void on_run_start(const RunInfo&) override { ++calls; }
    void on_round_end(const RoundMetrics&, const RoundTrace&) override {
      ++calls;
    }
  };
  CheckpointState short_history = valid;
  short_history.rounds.erase(short_history.rounds.begin() + 1);
  CheckpointState other_population = valid;
  other_population.population += 1;
  const std::pair<const char*, const CheckpointState*> cases[] = {
      {"history", &short_history}, {"population", &other_population}};
  for (const auto& [what, state] : cases) {
    SCOPED_TRACE(what);
    const std::string path = dir_ + "/" + what + ".fpc";
    save_checkpoint_state(path, *state);
    HookCounter hooks;
    Trainer trainer(model, data(), c);
    trainer.add_observer(hooks);
    try {
      (void)trainer.resume(path);
      FAIL() << "a checkpoint whose " << what << " does not fit was resumed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(hooks.calls, 0u);
  }
}

TEST_F(CheckpointTest, ResumeRejectsAMuOutsideItsRange) {
  const CheckpointState valid = valid_state();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<std::string, CheckpointState>> cases;
  for (const auto& [name, mu] :
       {std::pair<std::string, double>{"nan_mu", nan}, {"negative_mu", -1.0},
        {"infinite_mu", std::numeric_limits<double>::infinity()}}) {
    CheckpointState state = valid;
    state.mu = mu;
    cases.emplace_back(name, state);
  }
  expect_refused(cases, "mu");
}

TEST_F(CheckpointTest, ResumeRejectsNonFiniteWeights) {
  CheckpointState state = valid_state();
  state.parameters[3] = std::numeric_limits<double>::quiet_NaN();
  CheckpointState infinite = state;
  infinite.parameters[3] = -std::numeric_limits<double>::infinity();
  expect_refused({{"nan_weight", state}, {"infinite_weight", infinite}},
                 "weight");
}

TEST_F(CheckpointTest, ResumeRejectsAnEmptyActiveMask) {
  CheckpointState state = valid_state();
  std::ranges::fill(state.active, 0);
  // Padding bits past the population do not count as devices.
  CheckpointState padded = state;
  padded.active.back() = 0xF0;  // 12 devices: bits 12..15 are padding
  expect_refused({{"no_active", state}, {"padding_only", padded}}, "live");
}

TEST_F(CheckpointTest, ResumedCountersIncludeReplayedRounds) {
  // Counters mean "work performed, including replayed rounds": the
  // crashed run published its exposition past the newest checkpoint, the
  // resumed run seeds from it and replays those rounds, so the counters
  // match the round lines of both appended JSONL segments.
  LogisticRegression model(data().input_dim, data().num_classes);
  const std::string trace_path = dir_ + "/trace.jsonl";
  const std::string metrics_path = dir_ + "/metrics.prom";
  TrainerConfig c = config();  // 12 rounds
  c.checkpoint.dir = dir_ + "/ckpt";
  c.checkpoint.every = 4;
  {
    TrainerConfig crashing = c;
    crashing.crash.at_round = 11;  // newest checkpoint: round 8
    MetricsRegistry registry;
    MetricsObserver metrics(registry);
    MetricsExporter exporter(registry, metrics_path);
    JsonlTraceSink sink(trace_path);
    TraceObserver trace(sink);
    Trainer trainer(model, data(), crashing);
    trainer.add_observer(metrics);
    trainer.add_observer(exporter);
    trainer.add_observer(trace);
    EXPECT_THROW((void)trainer.run(), ServerCrashed);
    exporter.flush();  // rounds 0-10 published, 9 and 10 past the checkpoint
  }
  MetricsRegistry registry;
  EXPECT_GT(seed_counters_from_exposition(registry, metrics_path), 0u);
  {
    MetricsObserver metrics(registry);
    JsonlTraceSink sink(trace_path, /*rotate_bytes=*/0,
                        JsonlTraceSink::OpenMode::kAppend);
    TraceObserver trace(sink);
    Trainer trainer(model, data(), c);
    trainer.add_observer(metrics);
    trainer.add_observer(trace);
    const auto newest = latest_checkpoint(c.checkpoint.dir);
    ASSERT_TRUE(newest.has_value());
    (void)trainer.resume(*newest);
  }

  std::ifstream in(trace_path);
  std::string line;
  std::size_t headers = 0;
  std::size_t round_lines = 0;
  while (std::getline(in, line)) {
    if (line.rfind("{\"run\":", 0) == 0) {
      ++headers;
    } else if (!line.empty()) {
      ++round_lines;
    }
  }
  EXPECT_EQ(headers, 2u);
  EXPECT_EQ(round_lines, 11u + 4u);  // rounds 0-10, then 9-12 replayed
  EXPECT_EQ(registry.counter("fed_rounds_total").value(), round_lines);
}

TEST_F(CheckpointTest, JsonlSinkAppendKeepsEarlierSegments) {
  const std::string path = dir_ + "/trace.jsonl";
  RunInfo info;
  info.rounds = 2;
  RoundMetrics metrics;
  RoundTrace trace;
  {
    JsonlTraceSink sink(path);
    sink.begin_run(info);
    metrics.round = trace.round = 1;
    sink.write(metrics, trace);
  }
  {
    RunInfo resumed = info;
    resumed.resumed = true;
    resumed.first_round = 1;
    JsonlTraceSink sink(path, /*rotate_bytes=*/0,
                        JsonlTraceSink::OpenMode::kAppend);
    sink.begin_run(resumed);
    metrics.round = trace.round = 2;
    sink.write(metrics, trace);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // truncation would have kept only two
  EXPECT_NE(lines[0].find("\"resumed\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("\"resumed\":true"), std::string::npos);
  EXPECT_NE(lines[2].find("\"first_round\":1"), std::string::npos);
}

TEST_F(CheckpointTest, CounterSeedingCarriesTotalsAcrossACrash) {
  std::filesystem::create_directories(dir_);
  const std::string path = dir_ + "/metrics.prom";
  {
    std::ofstream out(path);
    out << "# HELP fed_comm_bytes_down_total bytes\n"
        << "# TYPE fed_comm_bytes_down_total counter\n"
        << "fed_comm_bytes_down_total 12345\n"
        << "# TYPE fed_comm_faults_total counter\n"
        << "fed_comm_faults_total{kind=\"drop\"} 17\n"
        << "# TYPE fed_rounds_total gauge\n"
        << "fed_rounds_total 99\n";  // gauges are rebuilt, never seeded
  }
  MetricsRegistry registry;
  EXPECT_EQ(seed_counters_from_exposition(registry, path), 2u);
  EXPECT_EQ(registry.counter("fed_comm_bytes_down_total").value(), 12345u);
  EXPECT_EQ(registry.counter("fed_comm_faults_total", {{"kind", "drop"}})
                .value(),
            17u);
  EXPECT_EQ(registry.gauge("fed_rounds_total").value(), 0.0);
  // Only digits make a counter value: a signed, fractional or
  // out-of-range total is skipped, not wrapped.
  {
    std::ofstream out(path);
    out << "# TYPE fed_rounds_total counter\n"
        << "fed_rounds_total -1\n"
        << "# TYPE fed_clients_total counter\n"
        << "fed_clients_total +7\n"
        << "# TYPE fed_stragglers_total counter\n"
        << "fed_stragglers_total 2.5\n"
        << "# TYPE fed_comm_retries_total counter\n"
        << "fed_comm_retries_total 18446744073709551616\n";
  }
  MetricsRegistry fresh;
  EXPECT_EQ(seed_counters_from_exposition(fresh, path), 0u);
  EXPECT_EQ(fresh.counter("fed_rounds_total").value(), 0u);
  EXPECT_EQ(fresh.counter("fed_clients_total").value(), 0u);
  EXPECT_EQ(fresh.counter("fed_stragglers_total").value(), 0u);
  EXPECT_EQ(fresh.counter("fed_comm_retries_total").value(), 0u);
  // A missing file is a fresh start, not an error.
  EXPECT_EQ(seed_counters_from_exposition(registry, dir_ + "/absent.prom"),
            0u);
}

}  // namespace
}  // namespace fed
