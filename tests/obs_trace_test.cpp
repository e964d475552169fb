// Trace plumbing: JSONL sink output (one parseable line per round with
// every phase key), the bytes-moved arithmetic, SolveStats (including
// the slowest solve's device and budget), and the pinned round
// accounting.

#include "obs/trace_sink.h"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "sim/client.h"
#include "support/json.h"
#include "support/log.h"
#include "support/serialize.h"
#include "test_util.h"

namespace fed {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(1.0, 1.0, 29);
      c.num_devices = 8;
      c.min_samples = 12;
      c.mean_log = 2.5;
      c.sigma_log = 0.4;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig config(std::size_t rounds) {
    TrainerConfig c = fedprox_config(1.0);
    c.rounds = rounds;
    c.devices_per_round = 4;
    c.systems.epochs = 3;
    c.systems.straggler_fraction = 0.5;
    c.learning_rate = 0.03;
    c.seed = 29;
    return c;
  }

  // Runs a traced training and returns the JSONL lines.
  static std::vector<std::string> traced_lines(std::size_t rounds) {
    LogisticRegression model(data().input_dim, data().num_classes);
    std::ostringstream out;
    JsonlTraceSink sink(out);
    TraceObserver tracer(sink);
    Trainer trainer(model, data(), config(rounds));
    trainer.add_observer(tracer);
    trainer.run();

    std::vector<std::string> lines;
    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    return lines;
  }
};

TEST_F(TraceTest, SolveStatsFromSamples) {
  const std::array<double, 4> samples = {0.4, 0.1, 0.3, 0.2};
  const SolveStats s = SolveStats::from_samples(samples);
  EXPECT_EQ(s.count, 4u);
  EXPECT_NEAR(s.total_seconds, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min_seconds, 0.1);
  EXPECT_DOUBLE_EQ(s.max_seconds, 0.4);
  EXPECT_NEAR(s.mean_seconds, 0.25, 1e-12);

  const SolveStats empty = SolveStats::from_samples({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.total_seconds, 0.0);
}

TEST_F(TraceTest, JsonlSinkWritesHeaderPlusOneLinePerRecord) {
  constexpr std::size_t kRounds = 20;
  const auto lines = traced_lines(kRounds);
  // Header + round-0 record + one line per training round.
  ASSERT_EQ(lines.size(), 1 + kRounds + 1);

  const JsonValue header = parse_json(lines.front());
  ASSERT_TRUE(header.contains("run"));
  const auto& run = header.at("run");
  EXPECT_DOUBLE_EQ(run.at("rounds").as_number(), kRounds);
  // The whole config rides along, each leaf once, in "config"; "rounds"
  // outside it is this segment's.
  for (const char* key : {"algorithm", "devices_per_round", "seed"}) {
    EXPECT_FALSE(run.contains(key)) << key << " is stated twice";
  }
  const auto& config = run.at("config");
  EXPECT_EQ(config.at("algorithm").as_string(), "FedProx");
  EXPECT_DOUBLE_EQ(config.at("devices_per_round").as_number(), 4.0);
  EXPECT_EQ(config.at("mu_policy").as_string(), "fixed");
  EXPECT_EQ(config.at("solver").as_string(), "sgd");

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const JsonValue v = parse_json(lines[i]);  // every line parses
    const RoundLine line = round_line_from_json(v);  // with every key
    EXPECT_EQ(line.trace.round, i - 1);
    EXPECT_EQ(line.metrics.round, i - 1);
    EXPECT_GE(line.trace.round_seconds, 0.0);
    EXPECT_EQ(check_round_line(line), "");
    // Counts the trace part holds are not repeated under "metrics".
    for (const char* key : {"round", "contributors", "stragglers"}) {
      EXPECT_FALSE(v.at("metrics").contains(key)) << key;
    }
  }
}

TEST_F(TraceTest, TraceCountsAndBytesFollowTheConfig) {
  constexpr std::size_t kRounds = 5;
  LogisticRegression model(data().input_dim, data().num_classes);
  TraceCollector collector;
  Trainer trainer(model, data(), config(kRounds));
  trainer.add_observer(collector);
  const auto history = trainer.run();

  const std::size_t d = model.parameter_count();
  const auto& traces = collector.traces();
  ASSERT_EQ(traces.size(), kRounds + 1);

  // Round-0 record: evaluation only, no devices, no traffic.
  EXPECT_TRUE(traces.front().evaluated);
  EXPECT_EQ(traces.front().selected, 0u);
  EXPECT_EQ(traces.front().bytes_down, 0u);
  EXPECT_EQ(traces.front().bytes_up, 0u);

  for (std::size_t i = 1; i < traces.size(); ++i) {
    const auto& t = traces[i];
    // FedProx keeps stragglers: every selected device contributes.
    EXPECT_EQ(t.selected, 4u);
    EXPECT_EQ(t.contributors, t.selected);
    EXPECT_LE(t.stragglers, t.selected);
    EXPECT_EQ(t.contributors, history.rounds[i].contributors);
    // Transport-measured: exact broadcast/update wire sizes (FedProx has
    // no correction payload), not the bare parameter-vector estimate.
    EXPECT_EQ(t.bytes_down, t.selected * broadcast_wire_size(d, 0));
    EXPECT_EQ(t.bytes_up, t.contributors * update_wire_size(d));
    // Phase wall times are measured, non-negative, and bounded by the
    // whole-round time.
    EXPECT_GT(t.solve.count, 0u);
    EXPECT_GE(t.solve.min_seconds, 0.0);
    EXPECT_LE(t.solve.min_seconds, t.solve.max_seconds);
    EXPECT_GE(t.round_seconds,
              t.sampling_seconds + t.aggregate_seconds + t.eval_seconds);
  }
}

// Records every round's accepted client results next to its trace, so a
// test can recompute which device the round waited on.
class SolveRecorder final : public TrainingObserver {
 public:
  void on_client_result(std::size_t round,
                        const ClientResult& result) override {
    if (results_.size() <= round) results_.resize(round + 1);
    results_[round].push_back(result);
  }
  void on_round_end(const RoundMetrics& metrics,
                    const RoundTrace& trace) override {
    (void)metrics;
    traces_.push_back(trace);
  }

  std::vector<std::vector<ClientResult>> results_;  // by round
  std::vector<RoundTrace> traces_;
};

TEST_F(TraceTest, SlowestSolveNamesItsDeviceAndIterationBudget) {
  // 90% stragglers over E = 20 epochs: a round's budgets differ widely.
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = config(6);
  c.systems.epochs = 20;
  c.systems.straggler_fraction = 0.9;
  SolveRecorder recorder;
  Trainer trainer(model, data(), c);
  trainer.add_observer(recorder);
  trainer.run();

  ASSERT_EQ(recorder.traces_.size(), 7u);
  bool skewed = false;
  for (std::size_t r = 1; r < recorder.traces_.size(); ++r) {
    const RoundTrace& t = recorder.traces_[r];
    const std::vector<ClientResult>& results = recorder.results_.at(r);
    ASSERT_EQ(results.size(), t.solve.count);
    // The first result (selection order) with the longest solve.
    const ClientResult* slowest = &results.front();
    for (const ClientResult& result : results) {
      if (result.solve_seconds > slowest->solve_seconds) slowest = &result;
      if (result.iterations != results.front().iterations) skewed = true;
    }
    EXPECT_EQ(t.solve.max_seconds, slowest->solve_seconds) << "round " << r;
    EXPECT_EQ(t.solve.max_device, slowest->device) << "round " << r;
    EXPECT_EQ(t.solve.max_iterations, slowest->iterations) << "round " << r;
    EXPECT_GT(t.solve.max_iterations, 0u);

    const JsonValue solve =
        round_line_to_json(RoundMetrics{}, t).at("phases").at("solve");
    EXPECT_DOUBLE_EQ(solve.at("max_device").as_number(),
                     static_cast<double>(t.solve.max_device));
    EXPECT_DOUBLE_EQ(solve.at("max_iterations").as_number(),
                     static_cast<double>(t.solve.max_iterations));
  }
  EXPECT_TRUE(skewed) << "budgets never differed within a round";

  // The evaluation-only round 0 ran no solve.
  EXPECT_EQ(recorder.traces_.front().solve.count, 0u);
  EXPECT_EQ(recorder.traces_.front().solve.max_iterations, 0u);
}

// Appends every RoundTrace column that does not depend on model values,
// and every on_fault event, to one text record. The text is pinned by
// its FNV-1a digest, so any change to round accounting (counts, bytes,
// fault columns, simulated delay, shard slices, event kind/order/text)
// shows up as a digest change.
class AccountingRecorder final : public TrainingObserver {
 public:
  void on_fault(const FaultEvent& event) override {
    text_ << "E " << to_string(event.kind) << " r" << event.round << " d"
          << event.device << " a" << event.attempt << " " << event.detail
          << "\n";
    ++kinds_[static_cast<std::size_t>(event.kind)];
  }
  void on_round_end(const RoundMetrics& metrics,
                    const RoundTrace& t) override {
    const CommFaultStats& f = t.faults;
    text_ << "R" << t.round << " eval " << t.evaluated << " sel "
          << t.selected << " con " << t.contributors << " str "
          << t.stragglers << " deg " << t.degraded << " act "
          << t.active_devices << " arr " << t.arrivals << " dep "
          << t.departures << " down " << t.bytes_down << " up " << t.bytes_up
          << " solves " << t.solve.count << " | att " << f.attempts
          << " ret " << f.retries << " drop " << f.drops << " corr "
          << f.corruptions << " tmo " << f.timeouts << " dup " << f.duplicates
          << " qd " << f.quorum_drops << " dpt " << f.departs << " fail "
          << f.failed_devices << " upd " << f.up_deliveries << " delay "
          << std::hexfloat << f.delay_ms << std::defaultfloat << " | m "
          << metrics.contributors << "/" << metrics.stragglers << "\n";
    for (const ShardStat& s : t.shards) {
      text_ << "  S" << s.shard << " " << s.devices << " " << s.contributors
            << " " << s.bytes_down << " " << s.bytes_up << "\n";
    }
  }

  std::string text() const { return text_.str(); }
  std::size_t count(FaultEvent::Kind kind) const {
    return kinds_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t digest() const {
    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : text_.str()) {
      hash ^= static_cast<std::uint8_t>(c);
      hash *= 1099511628211ull;
    }
    return hash;
  }

 private:
  std::ostringstream text_;
  std::array<std::size_t, 8> kinds_{};
};

// A hand-sized federation: 12 devices of 4..12 three-feature samples
// each, every value a small dyadic rational. Client sizes (and hence
// budgets) are fixed by hand, and the quadratic model calls no libm
// function, so nothing host-dependent decides a count below.
const FederatedDataset& accounting_data() {
  static const FederatedDataset d = [] {
    FederatedDataset data;
    data.name = "hand_sized";
    data.num_classes = 2;
    data.input_dim = 3;
    for (std::size_t k = 0; k < 12; ++k) {
      const std::size_t n = 4 + (k * 5) % 9;
      std::vector<Vector> train;
      std::vector<Vector> test;
      for (std::size_t i = 0; i < n; ++i) {
        const double base = static_cast<double>((k + 3 * i) % 8) * 0.25;
        train.push_back(Vector{base, 1.0 - base, 0.5 * static_cast<double>(k)});
      }
      for (std::size_t i = 0; i < 2; ++i) {
        test.push_back(Vector{0.5 * static_cast<double>(i), 0.25, 1.0});
      }
      data.clients.push_back({testing::make_dense_dataset(train),
                              testing::make_dense_dataset(test)});
    }
    return data;
  }();
  return d;
}

void record_accounting(const TrainerConfig& config,
                       AccountingRecorder& recorder) {
  testing::QuadraticModel model(3);
  Trainer trainer(model, accounting_data(), config);
  trainer.add_observer(recorder);
  trainer.run();
}

TEST_F(TraceTest, RoundAccountingIsPinned) {
  // Closed world, faultless: FedProx keeps its stragglers.
  TrainerConfig closed = fedprox_config(0.5);
  closed.rounds = 6;
  closed.devices_per_round = 5;
  closed.batch_size = 4;
  closed.learning_rate = 0.1;
  closed.systems.epochs = 3;
  closed.systems.straggler_fraction = 0.5;
  closed.seed = 11;
  closed.threads = 2;
  AccountingRecorder closed_rec;
  record_accounting(closed, closed_rec);
  EXPECT_EQ(closed_rec.digest(), 0x88dfb31b7d6a67bfull) << closed_rec.text();

  // Open world on a faulty channel: FedAvg drops its stragglers, and
  // drops, corruptions, duplicates, delays, a deadline, a 0.7 quorum,
  // churn departures and three shards all move the accounting.
  TrainerConfig open = fedavg_config();
  open.rounds = 12;
  open.devices_per_round = 6;
  open.batch_size = 4;
  open.learning_rate = 0.1;
  open.systems.epochs = 3;
  open.systems.straggler_fraction = 0.5;
  open.seed = 11;
  open.threads = 2;
  open.shards = 3;
  open.faults.drop = 0.15;
  open.faults.corrupt = 0.15;
  open.faults.duplicate = 0.25;
  open.faults.delay_ms = 60.0;
  open.recovery.deadline_ms = 50.0;
  open.recovery.quorum = 0.7;
  open.churn.arrive = 0.2;
  open.churn.depart = 0.2;
  AccountingRecorder open_rec;
  record_accounting(open, open_rec);
  EXPECT_EQ(open_rec.digest(), 0xbcd631b987c195b4ull) << open_rec.text();
  // The pin covers every per-device incident kind.
  for (const FaultEvent::Kind kind :
       {FaultEvent::Kind::kDrop, FaultEvent::Kind::kCorrupt,
        FaultEvent::Kind::kTimeout, FaultEvent::Kind::kDuplicate,
        FaultEvent::Kind::kDeviceFailed, FaultEvent::Kind::kQuorumDrop,
        FaultEvent::Kind::kDepart}) {
    EXPECT_GT(open_rec.count(kind), 0u) << to_string(kind);
  }
}

// Every RoundTrace field set to its own non-zero value, with two shards
// and a written checkpoint, so a swapped or dropped key changes the line.
RoundTrace distinct_trace() {
  return RoundTrace{
      .round = 1, .evaluated = true, .selected = 2, .contributors = 3,
      .stragglers = 4, .faults = {5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15.5},
      .shards = {{16, 17, 18, 19, 20, 21}, {22, 23, 24, 25, 26, 27}},
      .degraded = true, .active_devices = 28, .arrivals = 29,
      .departures = 30, .checkpoint = {true, 31, 32, 33, 34, 35.5},
      .sampling_seconds = 36.5, .correction_seconds = 37.5,
      .solve = {38, 39.5, 40.5, 41.5, 42.5, 43, 44},
      .solve_wall_seconds = 45.5, .aggregate_seconds = 46.5,
      .eval_seconds = 47.5, .round_seconds = 48.5, .bytes_down = 49,
      .bytes_up = 50};
}

// Every RoundMetrics field distinct, its counts those of distinct_trace().
RoundMetrics distinct_metrics() {
  return RoundMetrics{.round = 1, .train_loss = 51.5, .train_accuracy = 52.5,
                      .test_accuracy = 53.5, .grad_variance = 54.5,
                      .dissimilarity_b = 55.5, .mu = 56.5,
                      .mean_gamma = 57.5, .contributors = 3,
                      .stragglers = 4};
}

TEST_F(TraceTest, JsonlFormatIsPinned) {
  EXPECT_EQ(
      serialize_json(round_line_to_json(distinct_metrics(), distinct_trace())),
      R"({"active_devices":28,"arrivals":29,"bytes_down":49,"bytes_up":50,)"
      R"("checkpoint":{"bytes":32,"generations":33,"retain":34,"round":31,)"
      R"("write_s":35.5},"contributors":3,"degraded":true,"departures":30,)"
      R"("evaluated":true,"faults":{"attempts":5,"corruptions":8,)"
      R"("delay_ms":15.5,"departs":12,"drops":7,"duplicates":10,)"
      R"("failed_devices":13,"quorum_drops":11,"retries":6,"timeouts":9,)"
      R"("up_deliveries":14},"metrics":{"dissimilarity_b":55.5,)"
      R"("grad_variance":54.5,"mean_gamma":57.5,"mu":56.5,)"
      R"("test_accuracy":53.5,"train_accuracy":52.5,"train_loss":51.5},)"
      R"("phases":{"aggregate_s":46.5,)"
      R"("correction_s":37.5,"eval_s":47.5,"sampling_s":36.5,"solve":)"
      R"({"count":38,"max_device":43,"max_iterations":44,"max_s":42.5,)"
      R"("mean_s":41.5,"min_s":40.5,"total_s":39.5},"solve_wall_s":45.5},)"
      R"("round":1,"round_s":48.5,"selected":2,"shards":[{"bytes_down":19,)"
      R"("bytes_up":20,"contributors":18,"devices":17,"partial_bytes":21,)"
      R"("shard":16},{"bytes_down":25,"bytes_up":26,"contributors":24,)"
      R"("devices":23,"partial_bytes":27,"shard":22}],"stragglers":4})");
  // The reader walks the same field list back: with every value
  // distinct, a dropped or swapped field would change the line. Unset
  // optionals are null and read back unset.
  RoundTrace unwritten = distinct_trace();
  unwritten.checkpoint = CheckpointStat{};
  RoundMetrics unmeasured;
  unmeasured.round = 1;
  unmeasured.mu = 0.25;
  unmeasured.contributors = 3;
  unmeasured.stragglers = 4;
  for (const RoundTrace& t : {distinct_trace(), unwritten}) {
    for (const RoundMetrics& m : {distinct_metrics(), unmeasured}) {
      const JsonValue line = round_line_to_json(m, t);
      const RoundLine back = round_line_from_json(line);
      EXPECT_EQ(round_line_to_json(back.metrics, back.trace), line);
      EXPECT_EQ(back.metrics.train_loss, m.train_loss);
      EXPECT_EQ(back.metrics.mean_gamma, m.mean_gamma);
      EXPECT_EQ(back.metrics.contributors, m.contributors);
    }
  }
  EXPECT_TRUE(round_line_to_json(unmeasured, unwritten)
                  .at("metrics")
                  .at("train_loss")
                  .is_null());
  EXPECT_FALSE(round_line_from_json(round_line_to_json(unmeasured, unwritten))
                   .trace.checkpoint.written);
}

TEST_F(TraceTest, TraceFromJsonNamesTheDottedKeyItRejects) {
  JsonValue v = round_line_to_json(distinct_metrics(), distinct_trace());
  const auto rejection = [&v]() -> std::string {
    try {
      (void)round_line_from_json(v);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  v.as_object()["faults"].as_object().erase("drops");
  EXPECT_EQ(rejection(), "round line lacks \"faults.drops\"");
  v.as_object()["faults"].as_object()["drops"] = JsonValue(7);
  JsonValue& bytes_up =
      v.as_object()["shards"].as_array()[1].as_object()["bytes_up"];
  for (const JsonValue& bad : {JsonValue(26.5), JsonValue(-1),
                               JsonValue(9007199254740994.0), JsonValue("2"),
                               JsonValue(true)}) {
    bytes_up = bad;
    EXPECT_EQ(rejection(), "round line \"shards[1].bytes_up\": json: value "
                           "is not a count (an integer in [0, 2^53])");
  }
  bytes_up = JsonValue(9007199254740992.0);  // 2^53 is still exact
  EXPECT_EQ(round_line_from_json(v).trace.shards[1].bytes_up,
            9007199254740992u);

  // The metrics block: present, every key, and each group set together.
  JsonObject& metrics = v.as_object()["metrics"].as_object();
  metrics["train_loss"] = JsonValue(nullptr);
  EXPECT_EQ(rejection(),
            "round line \"metrics.train_accuracy\" is set but "
            "\"metrics.train_loss\" is not");
  metrics["train_loss"] = JsonValue(51.5);
  metrics["dissimilarity_b"] = JsonValue(nullptr);
  EXPECT_EQ(rejection(),
            "round line \"metrics.dissimilarity_b\" is null but "
            "\"metrics.grad_variance\" is not");
  metrics["dissimilarity_b"] = JsonValue("55.5");
  EXPECT_EQ(rejection(), "round line \"metrics.dissimilarity_b\": json: "
                         "value is not a number");
  metrics.erase("dissimilarity_b");
  EXPECT_EQ(rejection(), "round line lacks \"metrics.dissimilarity_b\"");
  metrics["dissimilarity_b"] = JsonValue(55.5);
  metrics.erase("mu");
  EXPECT_EQ(rejection(), "round line lacks \"metrics.mu\"");
  v.as_object().erase("metrics");
  EXPECT_EQ(rejection(), "round line lacks \"metrics\"");
}

TEST_F(TraceTest, RoundLineMetricsAgreeWithTheTrace) {
  RoundLine line{distinct_metrics(), RoundTrace{}};
  line.trace.round = 1;
  line.trace.evaluated = true;
  ASSERT_EQ(check_round_line(line), "");
  line.trace.evaluated = false;
  EXPECT_EQ(check_round_line(line),
            "evaluated=false but the evaluation metrics are set");
  line.trace.evaluated = true;
  line.metrics.train_loss.reset();
  EXPECT_EQ(check_round_line(line),
            "evaluated=true but the evaluation metrics are null");
  line.metrics = distinct_metrics();
  line.metrics.mu = -0.5;
  EXPECT_EQ(check_round_line(line), "metrics.mu=-0.5 is not finite and >= 0");
  line.metrics.mu = std::numeric_limits<double>::infinity();
  EXPECT_EQ(check_round_line(line), "metrics.mu=inf is not finite and >= 0");
  line.trace.contributors = 5;  // the trace's own invariants come first
  EXPECT_NE(check_round_line(line).find("contributors=5"), std::string::npos);
}

TEST_F(TraceTest, JsonlFileSinkCreatesParentDirectories) {
  const std::string dir = ::testing::TempDir() + "fedprox_obs_trace";
  const std::string path = dir + "/nested/trace.jsonl";
  {
    JsonlTraceSink sink(path);
    EXPECT_EQ(sink.path(), path);
    RunInfo info;
    sink.begin_run(info);
    RoundMetrics m;
    RoundTrace t;
    sink.write(m, t);
    sink.end_run(TrainHistory{});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_NO_THROW(parse_json(line));
    ++parsed;
  }
  EXPECT_EQ(parsed, 2u);  // header + one trace line
  std::filesystem::remove_all(dir);
}

TEST_F(TraceTest, JsonlSinkRotatesWithBoundedGenerations) {
  const std::string dir = ::testing::TempDir() + "fedprox_obs_rotate";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/trace.jsonl";
  constexpr std::size_t kRotateBytes = 4096;
  {
    JsonlTraceSink sink(path, kRotateBytes);
    RunInfo info;
    sink.begin_run(info);
    RoundMetrics m;
    RoundTrace t;
    for (std::size_t r = 0; r < 200; ++r) {
      t.round = r;
      sink.write(m, t);
    }
    sink.end_run(TrainHistory{});
    // Enough data to cycle past the kept generations.
    EXPECT_GT(sink.rotations(), JsonlTraceSink::kRotatedGenerations);
  }
  // Bounded: the active file plus at most three rotated ones.
  EXPECT_EQ(JsonlTraceSink::kRotatedGenerations, 3u);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".1"));
  EXPECT_TRUE(std::filesystem::exists(path + ".2"));
  EXPECT_TRUE(std::filesystem::exists(path + ".3"));
  EXPECT_FALSE(std::filesystem::exists(path + ".4"));
  // Every generation is a self-contained trace: the run header line
  // first (re-written at each rotation), then round lines, within the
  // byte budget.
  for (const std::string& p : {path, path + ".1", path + ".2", path + ".3"}) {
    EXPECT_LE(std::filesystem::file_size(p), kRotateBytes);
    std::ifstream in(p);
    ASSERT_TRUE(in.good()) << p;
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const JsonValue v = parse_json(line);
      if (lines == 0) {
        EXPECT_TRUE(v.contains("run")) << p << " does not start with a header";
      } else {
        EXPECT_TRUE(v.contains("round"));
      }
      ++lines;
    }
    EXPECT_GE(lines, 2u) << p;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fed
