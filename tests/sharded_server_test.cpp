// The headline claim of sharded aggregation: TrainHistory is
// bit-identical across shard counts {1, 2, 8}, across thread counts, and
// under channel faults with quorum recovery — the aggregation tree is a
// pure implementation detail. Plus the plan_shards slicing contract and
// the per-shard trace invariants the lint tool also checks offline.

#include "sim/sharded.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "core/registry.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/trace_sink.h"
#include "support/log.h"

namespace fed {
namespace {

TEST(PlanShards, SlicesAreContiguousAndBalanced) {
  for (const std::size_t devices : {0ul, 1ul, 5ul, 8ul, 17ul, 1000ul}) {
    for (const std::size_t shards : {1ul, 2ul, 3ul, 8ul}) {
      const auto slices = plan_shards(devices, shards);
      ASSERT_EQ(slices.size(), shards);
      std::size_t covered = 0, min_size = devices, max_size = 0;
      for (const ShardSlice& s : slices) {
        EXPECT_EQ(s.begin, covered);  // contiguous, in order
        covered = s.end;
        min_size = std::min(min_size, s.size());
        max_size = std::max(max_size, s.size());
      }
      EXPECT_EQ(covered, devices);
      EXPECT_LE(max_size - min_size, 1u);  // balanced to within one
    }
  }
  // Shard count 0 degrades to a single shard.
  const auto fallback = plan_shards(7, 0);
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0].size(), 7u);
}

// A server aggregates exactly one round: the first reduce() consumes the
// staged partials, so a second call is a usage error, not a codec fault.
TEST(ShardedAggregate, ReduceTwiceThrowsLogicError) {
  const Vector u{1.0, 2.0, 3.0};
  ShardedServer server(SamplingScheme::kUniformThenWeightedAverage, 3, 2);
  server.stage(0, {0, &u, 4.0});
  server.stage(1, {1, &u, 2.0});
  Vector w(3);
  ASSERT_TRUE(server.reduce(1, w));
  EXPECT_EQ(w, u);
  try {
    server.reduce(1, w);
    ADD_FAILURE() << "second reduce() did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("reduce called twice"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardedAggregate, StageRejectsAWrongDimension) {
  const Vector u{1.0, 2.0};
  ShardedServer server(SamplingScheme::kUniformThenWeightedAverage, 3, 1);
  EXPECT_THROW(server.stage(0, {0, &u, 1.0}), std::invalid_argument);
}

class ShardedDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(1.0, 1.0, 31);
      c.num_devices = 24;
      c.min_samples = 12;
      c.mean_log = 2.5;
      c.sigma_log = 0.4;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig base_config(Algorithm algorithm) {
    TrainerConfig c;
    c.algorithm = algorithm;
    c.mu = algorithm == Algorithm::kFedAvg ? 0.0 : 1.0;
    c.rounds = 4;
    c.devices_per_round = 10;
    c.systems.epochs = 2;
    c.systems.straggler_fraction = 0.4;
    c.learning_rate = 0.05;
    c.seed = 31;
    return c;
  }

  static TrainHistory run(TrainerConfig config,
                          TraceCollector* collector = nullptr) {
    LogisticRegression model(data().input_dim, data().num_classes);
    Trainer trainer(model, data(), config);
    if (collector) trainer.add_observer(*collector);
    return trainer.run();
  }
};

TEST_F(ShardedDeterminismTest, HistoryIsBitIdenticalAcrossShardCounts) {
  for (const Algorithm algorithm :
       {Algorithm::kFedAvg, Algorithm::kFedProx, Algorithm::kFedDane}) {
    TrainerConfig c = base_config(algorithm);
    c.shards = 1;
    const TrainHistory baseline = run(c);
    for (const std::size_t shards : {2ul, 8ul}) {
      c.shards = shards;
      EXPECT_EQ(bench::history_divergence(baseline, run(c)), "");
    }
  }
}

TEST_F(ShardedDeterminismTest, HistoryIsBitIdenticalAcrossThreadCounts) {
  TrainerConfig c = base_config(Algorithm::kFedProx);
  c.shards = 8;
  c.threads = 1;
  const TrainHistory single = run(c);
  c.threads = 4;
  EXPECT_EQ(bench::history_divergence(single, run(c)), "");
}

TEST_F(ShardedDeterminismTest, LstmHistoryIsBitIdenticalAcrossThreadsAndShards) {
  // The same grid on the Shakespeare next-char LSTM, whose local solves
  // and evaluation run the batched recurrent kernels.
  const Workload w = make_workload("shakespeare", 31, 0.15);
  TrainerConfig c = fedprox_config(w.best_mu);
  c.rounds = 3;
  c.devices_per_round = 4;
  c.systems.epochs = 1;
  c.systems.straggler_fraction = 0.5;
  c.batch_size = w.batch_size;
  c.learning_rate = w.learning_rate;
  c.seed = 31;
  const auto run_with = [&](std::size_t threads, std::size_t shards) {
    c.threads = threads;
    c.shards = shards;
    return Trainer(*w.model, w.data, c).run();
  };
  const TrainHistory baseline = run_with(1, 1);
  ASSERT_EQ(baseline.rounds.size(), 4u);
  EXPECT_EQ(bench::history_divergence(baseline, run_with(1, 4)), "");
  EXPECT_EQ(bench::history_divergence(baseline, run_with(4, 1)), "");
  EXPECT_EQ(bench::history_divergence(baseline, run_with(4, 4)), "");
}

TEST_F(ShardedDeterminismTest, HistoryIsBitIdenticalAcrossThreadsShardsAndBlocks) {
  // A model wider than one fold block, and not a multiple of it, so every
  // shard's fold is split into uneven coordinate blocks that the pool
  // runs in any order.
  static const FederatedDataset wide = [] {
    SyntheticConfig c = synthetic_config(1.0, 1.0, 37);
    c.num_devices = 16;
    c.input_dim = 150;
    c.min_samples = 10;
    c.mean_log = 2.0;
    c.sigma_log = 0.4;
    return make_synthetic(c);
  }();
  LogisticRegression model(wide.input_dim, wide.num_classes);
  ASSERT_GT(model.parameter_count(), ShardedServer::kFoldBlock);
  ASSERT_NE(model.parameter_count() % ShardedServer::kFoldBlock, 0u);
  TrainerConfig c = base_config(Algorithm::kFedProx);
  c.rounds = 3;
  c.devices_per_round = 9;
  const auto run_with = [&](std::size_t threads, std::size_t shards) {
    c.threads = threads;
    c.shards = shards;
    return Trainer(model, wide, c).run();
  };
  const TrainHistory baseline = run_with(1, 1);
  for (const std::size_t threads : {1ul, 2ul, 4ul}) {
    for (const std::size_t shards : {1ul, 3ul, 4ul, 7ul}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads " << threads << ", shards " << shards);
      EXPECT_EQ(
          bench::history_divergence(baseline, run_with(threads, shards)), "");
    }
  }
}

TEST_F(ShardedDeterminismTest, HistoryIsBitIdenticalUnderFaultsAndQuorum) {
  // Shard-invariance must also hold on a lossy channel with recovery:
  // fault RNG streams are keyed per (round, device, attempt) and the
  // quorum cut stays global at the root, so shard count changes nothing.
  TrainerConfig c = base_config(Algorithm::kFedProx);
  c.faults.drop = 0.2;
  c.faults.corrupt = 0.1;
  c.faults.delay_ms = 15.0;
  c.recovery.max_retries = 2;
  c.recovery.quorum = 0.7;
  c.shards = 1;
  const TrainHistory baseline = run(c);
  for (const std::size_t shards : {2ul, 8ul}) {
    c.shards = shards;
    EXPECT_EQ(bench::history_divergence(baseline, run(c)), "");
  }
}

TEST_F(ShardedDeterminismTest, ShardStatsPartitionTheRoundTotals) {
  TrainerConfig c = base_config(Algorithm::kFedAvg);
  c.shards = 3;
  TraceCollector collector;
  run(c, &collector);
  ASSERT_GT(collector.traces().size(), 1u);
  for (std::size_t r = 1; r < collector.traces().size(); ++r) {
    const RoundTrace& t = collector.traces()[r];
    ASSERT_EQ(t.shards.size(), 3u);
    // Dense shard indices, a non-empty FPS2 partial from every shard,
    // and shard columns that sum to the round totals.
    EXPECT_EQ(check_round_trace(t), "") << "round " << r;
  }
}

TEST_F(ShardedDeterminismTest, MoreShardsThanDevicesIsHarmless) {
  TrainerConfig c = base_config(Algorithm::kFedProx);
  c.shards = 64;  // more shards than selected devices: some slices empty
  const TrainHistory sharded = run(c);
  c.shards = 1;
  EXPECT_EQ(bench::history_divergence(run(c), sharded), "");
}

}  // namespace
}  // namespace fed
