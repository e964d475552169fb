// Prometheus text exposition: golden document (label escaping and
// ordering, cumulative le buckets, +Inf), shortest-round-trip number
// formatting, the atomic MetricsExporter and what each publish holds,
// and the guarantee that attaching the full telemetry stack does not
// perturb training results.

#include "obs/exposition.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/metrics.h"
#include "support/log.h"

namespace fed {
namespace {

class ExpositionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }
};

TEST_F(ExpositionTest, GoldenDocument) {
  MetricsRegistry registry;
  registry.set_help("requests_total", "Total \\ requests\nacross runs");
  registry.counter("requests_total").add(7);
  registry
      .counter("requests_total", {{"zone", "b"}, {"az", "a\"1\\x\n"}})
      .add(3);
  registry.gauge("temp").set(21.5);
  Histogram& lat = registry.histogram("lat", /*scale=*/1.0, /*num_buckets=*/3);
  lat.observe(1.0);    // bucket 0: <= 2
  lat.observe(3.0);    // bucket 1: (2, 4]
  lat.observe(100.0);  // overflow clamps into the +Inf bucket

  // Families print counters, then gauges, then histograms; the unlabeled
  // member sorts before labeled ones; label keys are sorted; values are
  // escaped; bucket counts are cumulative and end at le="+Inf" == count.
  const std::string want =
      "# HELP requests_total Total \\\\ requests\\nacross runs\n"
      "# TYPE requests_total counter\n"
      "requests_total 7\n"
      "requests_total{az=\"a\\\"1\\\\x\\n\",zone=\"b\"} 3\n"
      "# TYPE temp gauge\n"
      "temp 21.5\n"
      "# TYPE lat histogram\n"
      "lat_bucket{le=\"2\"} 1\n"
      "lat_bucket{le=\"4\"} 2\n"
      "lat_bucket{le=\"+Inf\"} 3\n"
      "lat_sum 104\n"
      "lat_count 3\n";
  EXPECT_EQ(text_exposition(registry), want);
}

// A value on a bucket edge is inside that edge's inclusive le bound.
TEST_F(ExpositionTest, EdgeValueCountsUnderItsLeBound) {
  MetricsRegistry registry;
  Histogram& lat = registry.histogram("lat", /*scale=*/1.0, /*num_buckets=*/3);
  lat.observe(2.0);
  lat.observe(4.0);
  const std::string text = text_exposition(registry);
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_bucket{le=\"4\"} 2\n"), std::string::npos) << text;
}

TEST_F(ExpositionTest, LabelOrderIsCanonical) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x_total", {{"b", "2"}, {"a", "1"}});
  Counter& b = registry.counter("x_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);  // same label set in any order, same instrument
  a.add(5);
  const std::string text = text_exposition(registry);
  EXPECT_NE(text.find("x_total{a=\"1\",b=\"2\"} 5"), std::string::npos);
}

TEST_F(ExpositionTest, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(format_exposition_number(0.5), "0.5");
  EXPECT_EQ(format_exposition_number(104.0), "104");
  EXPECT_EQ(format_exposition_number(1e-6), "1e-06");
  EXPECT_EQ(format_exposition_number(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(format_exposition_number(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(format_exposition_number(std::nan("")), "NaN");
  const double third = 1.0 / 3.0;
  EXPECT_EQ(std::strtod(format_exposition_number(third).c_str(), nullptr),
            third);
}

TEST_F(ExpositionTest, ExporterPublishesEachRoundAndAtRunEnd) {
  const std::string dir = ::testing::TempDir() + "fedprox_obs_exposition";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/metrics.prom";
  MetricsRegistry registry;
  registry.counter("ticks_total").add(5);
  MetricsExporter exporter(registry, path);
  EXPECT_EQ(exporter.path(), path);

  RoundMetrics metrics;
  RoundTrace trace;
  exporter.on_round_end(metrics, trace);
  exporter.flush();  // publishes run on the writer thread
  EXPECT_EQ(exporter.writes(), 1u);

  // Published atomically: the final file exists, the temp file does not.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("ticks_total 5"), std::string::npos);

  exporter.on_run_end(TrainHistory{});  // run end always re-publishes
  EXPECT_EQ(exporter.writes(), 2u);
  std::filesystem::remove_all(dir);
}

TEST_F(ExpositionTest, PublishShowsRequestTimeStateAndCoalesces) {
  const std::string dir = ::testing::TempDir() + "fedprox_obs_publish";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/metrics.prom";
  MetricsRegistry registry;
  Counter& ticks = registry.counter("ticks_total");
  // Padding makes a document larger than a pipe's 64 KiB buffer, so the
  // writer stalls mid-write until the test reads the pipe below.
  for (int i = 0; i < 4000; ++i) {
    registry.counter("padding_to_outgrow_a_pipe_buffer_total",
                     {{"i", std::to_string(i)}});
  }
  MetricsExporter exporter(registry, path);
  ASSERT_EQ(::mkfifo((path + ".tmp").c_str(), 0600), 0);

  const RoundMetrics metrics;
  const RoundTrace trace;
  ticks.add(1);
  exporter.on_round_end(metrics, trace);  // publishes ticks_total 1
  ticks.add(1);  // after the request: not part of that publish
  // Opening the read end returns once the writer has opened the staging
  // pipe, i.e. once the first publish is in flight.
  std::ifstream pipe(path + ".tmp");
  ASSERT_TRUE(pipe.good());
  exporter.on_round_end(metrics, trace);  // ticks_total 2
  ticks.add(1);
  exporter.on_round_end(metrics, trace);  // ticks_total 3, replaces 2
  std::ostringstream first;
  first << pipe.rdbuf();
  exporter.flush();

  EXPECT_NE(first.str().find("\nticks_total 1\n"), std::string::npos);
  // The two requests made during the first write coalesced into one
  // write of the latest copy.
  EXPECT_EQ(exporter.writes(), 2u);
  std::ifstream in(path);
  std::ostringstream last;
  last << in.rdbuf();
  EXPECT_NE(last.str().find("\nticks_total 3\n"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(ExpositionTest, TelemetryStackDoesNotPerturbTraining) {
  SyntheticConfig sc = synthetic_config(0.5, 0.5, 41);
  sc.num_devices = 10;
  sc.min_samples = 12;
  sc.mean_log = 2.5;
  sc.sigma_log = 0.4;
  const FederatedDataset data = make_synthetic(sc);

  TrainerConfig c = fedprox_config(0.5);
  c.rounds = 6;
  c.devices_per_round = 4;
  c.systems.epochs = 3;
  c.systems.straggler_fraction = 0.5;
  c.learning_rate = 0.03;
  c.seed = 41;

  LogisticRegression model(data.input_dim, data.num_classes);
  const auto bare = Trainer(model, data, c).run();

  // Same seed with a metrics feeder and the file exporter attached: the
  // history must be bit-identical.
  const std::string dir = ::testing::TempDir() + "fedprox_obs_identity";
  std::filesystem::create_directories(dir);
  MetricsRegistry registry;
  MetricsObserver metrics(registry);
  MetricsExporter exporter(registry, dir + "/metrics.prom");
  Trainer traced(model, data, c);
  traced.add_observer(metrics);
  traced.add_observer(exporter);
  const auto full = traced.run();

  // Coalescing may merge the per-round publishes, but the run-end flush
  // guarantees at least one completed write.
  EXPECT_GE(exporter.writes(), 1u);
  EXPECT_EQ(bare.final_parameters, full.final_parameters);
  ASSERT_EQ(bare.rounds.size(), full.rounds.size());
  for (std::size_t i = 0; i < bare.rounds.size(); ++i) {
    EXPECT_EQ(bare.rounds[i].train_loss, full.rounds[i].train_loss);
    EXPECT_EQ(bare.rounds[i].contributors, full.rounds[i].contributors);
    EXPECT_EQ(bare.rounds[i].stragglers, full.rounds[i].stragglers);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fed
