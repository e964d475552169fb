// The reproduction harness: shared flags, the variant runner, CSV and
// series output, and the bit-exact history comparator.
//
// Every driver takes the harness flags of BenchOptions plus the
// flag-bearing TrainerConfig fields of core/config.h; `--help` lists
// both, with the driver's defaults. A figure driver does not offer --mu
// or --stragglers: it sets them per variant, so there they stay unknown
// flags.
// The figure drivers print the paper-style series tables to stdout plus
// a CSV per figure.

#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/registry.h"
#include "core/trainer.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "support/cli.h"
#include "support/csv.h"

namespace fed::bench {

// The defaults a figure driver reads its flags over: seed 1, and rounds
// 0, which base_config reads as the workload's own count.
TrainerConfig figure_defaults();
// The flags a figure driver offers: every config flag but the ones it
// sets per variant (--mu, --stragglers).
bool figure_flags(std::string_view flag);

struct BenchOptions {
  // The driver's defaults with every offered config flag read over them
  // (core/config.h); the checkpoint dir defaults to <out-dir>/checkpoints
  // once checkpoint.every is set.
  TrainerConfig config = figure_defaults();
  double scale = 1.0;               // dataset scale factor in (0, 1]
  std::string out_dir = "bench_out";
  std::string trace_out;            // empty = tracing disabled
  std::size_t trace_rotate_mb = 0;  // 0 = no JSONL rotation
  std::string metrics_out;          // empty = no Prometheus exposition
  // Set by the driver, never parsed here: a resumed run appends to
  // --trace-out and carries --metrics-out counters over.
  bool resume = false;
  bool quick = false;
};

// Parses the harness flags and the offered config flags over `defaults`;
// warns about unknown ones; --help prints them all and exits 0. Drivers
// with extra flags should read them from their own CliFlags first, then
// hand it to the CliFlags& overload so those reads suppress the
// unknown-flag warning. A bad value (--faults drop=2, --rounds x) ends
// the process through exit_bad_flag.
BenchOptions parse_options(int argc, char** argv);
BenchOptions parse_options(const CliFlags& flags,
                           TrainerConfig defaults = figure_defaults(),
                           FlagFilter offered = figure_flags);

// Prints the reason a flag parser threw and exits with status 1: a bad
// command line is the caller's error, not a crash.
[[noreturn]] void exit_bad_flag(const std::invalid_argument& error);

// Loads a workload at the experiment seed and --scale (--quick caps it).
Workload load_workload(const std::string& name, const BenchOptions& options);

// Logs one line per non-default channel/server setting of `config`
// (shards, churn, checkpoints, faults).
void log_setup(const TrainerConfig& config);

// Owns the JSONL trace sink + observer created from --trace-out (with
// --trace-rotate-mb rotation) and the Prometheus registry/feeder/exporter
// stack created from --metrics-out. Keep it alive for the whole driver
// run and register every observers() entry (none when no flag is set),
// e.g. through run_variants.
class TraceCapture {
 public:
  explicit TraceCapture(const BenchOptions& options);
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  // Tracer, then the metrics feeder, then the exporter: the feeder runs
  // before the publisher so each scrape file reflects the round it just
  // finished.
  std::vector<TrainingObserver*> observers() const;

 private:
  std::unique_ptr<JsonlTraceSink> sink_;
  std::unique_ptr<TrainingObserver> tracer_;
  std::unique_ptr<MetricsRegistry> registry_;     // --metrics-out stack:
  std::unique_ptr<MetricsObserver> metrics_;      // feeder first,
  std::unique_ptr<MetricsExporter> exporter_;     // publisher second
};

// Opens `capture` for `options`. On an unusable --trace-out or
// --metrics-out path it prints the reason to stderr and returns false,
// before any training; the driver then exits 1.
bool open_capture(std::optional<TraceCapture>& capture,
                  const BenchOptions& options);

struct VariantSpec {
  std::string label;  // e.g. "FedProx (mu=0)"
  TrainerConfig config;
};

struct VariantResult {
  std::string label;
  TrainHistory history;
};

// Runs each variant on the workload, sequentially (each run parallelizes
// internally over devices), logging one summary line per variant at info
// level. `observers` (e.g. TraceCapture::observers()) are attached to
// every variant's Trainer, in order, after that logger.
std::vector<VariantResult> run_variants(
    const Workload& workload, const std::vector<VariantSpec>& specs,
    const std::vector<TrainingObserver*>& observers = {});

// One variant's config: options.config with the algorithm, mu and
// straggler fraction, the workload's K (at most 10, and at most its
// devices), batch size, step size and eval cadence, and its rounds (an
// explicit --rounds, else the workload default, shrunk 20x by --quick);
// logged through log_setup.
TrainerConfig base_config(const Workload& workload, const BenchOptions& options,
                          Algorithm algorithm, double mu,
                          double straggler_fraction);

// Appends every evaluated round of every variant to `csv` with rows
// [dataset, variant, round, train_loss, train_acc, test_acc, variance,
//  dissimilarity_b, mu, contributors, stragglers].
void append_history_csv(CsvWriter& csv, const std::string& dataset,
                        const std::vector<VariantResult>& results);
// Header matching append_history_csv.
std::vector<std::string> history_csv_header();

// Paper's Appendix C.3.2 rule for where to read off a method's accuracy:
// the first round where |f_t - f_{t-1}| < 1e-4 (converged) or
// f_t - f_{t-10} > 1 (diverging), else the last evaluated round.
// Returns the test accuracy at that round.
double settled_accuracy(const TrainHistory& history);

// Bit-exact TrainHistory comparison — every RoundMetrics field and the
// final parameters, doubles by their bits. Returns the first differing
// field ("round 7: train_loss diverged"), or "" when identical.
std::string history_divergence(const TrainHistory& a, const TrainHistory& b);

// Renders one metric (selected by `metric`) of every variant against the
// evaluated rounds, one column per variant — the paper's "series".
enum class Metric { kTrainLoss, kTestAccuracy, kGradVariance, kMu };
std::string render_series(const std::vector<VariantResult>& results,
                          Metric metric);
const char* metric_name(Metric metric);

// Prints the standard experiment banner.
void print_banner(const std::string& figure, const std::string& description);

}  // namespace fed::bench
