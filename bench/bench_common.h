// The reproduction harness: shared flags, the variant runner, CSV and
// series output, and the bit-exact history comparator.
//
// Every training driver (figures.h) and soak accept:
//   --rounds N       override the per-dataset default round count
//   --scale S        dataset scale factor in (0, 1] (device counts etc.)
//   --seed S         experiment seed (default 1)
//   --epochs E       local epochs E (default 20, the paper's Figure 1/2)
//   --out-dir DIR    where CSVs land (default bench_out/)
//   --trace-out P    stream per-round JSONL phase traces to P (obs/)
//   --trace-rotate-mb N  roll the JSONL trace when it passes N MiB,
//                    keeping a bounded set of .1/.2/... generations that
//                    each re-start with the run header (0 = off)
//   --metrics-out P  publish a Prometheus text-format scrape file to P,
//                    atomically rewritten after every round (obs/
//                    exposition.h); lint with trace_lint --metrics
//   --transport T    federation transport: inprocess (default, zero-copy)
//                    or serialized (round-trip the binary wire format)
//   --faults SPEC    inject channel faults (comm/fault.h), e.g.
//                    drop=0.1,corrupt=0.01,delay_ms=50,duplicate=0.05
//   --retries N      extra exchange attempts per device (default 2)
//   --deadline-ms D  delivery deadline in simulated ms (0 = off)
//   --quorum Q       aggregate once Q of selected devices reported (0, 1]
//   --shards N       aggregator shards per round (sim/sharded.h); any
//                    value yields a bit-identical history (default 1)
//   --churn SPEC     open-world device churn (sim/churn.h), e.g.
//                    arrive=0.05,depart=0.02,initial=100,min_active=10
//   --checkpoint-every N  write a durable FPC1 checkpoint every N rounds
//                    (core/checkpoint.h); 0 = off
//   --checkpoint-dir DIR  where checkpoints land (default
//                    <out-dir>/checkpoints)
//   --checkpoint-retain G newest checkpoint generations kept (default 3)
//   --quick          very small run for smoke-testing the harness; shrinks
//                    the default round count 20x unless --rounds is given
// Only a driver that resumes its Trainer sets BenchOptions::resume:
// quickstart reads its own --resume flag, soak sets it per segment.
// The figure drivers print the paper-style series tables to stdout plus
// a CSV per figure.

#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/fault.h"
#include "core/registry.h"
#include "core/trainer.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/churn.h"
#include "support/cli.h"
#include "support/csv.h"

namespace fed::bench {

struct BenchOptions {
  std::uint64_t seed = 1;
  double scale = 1.0;
  std::size_t epochs = 20;
  std::size_t rounds_override = 0;  // 0 = workload default
  std::string out_dir = "bench_out";
  std::string trace_out;            // empty = tracing disabled
  std::size_t trace_rotate_mb = 0;  // 0 = no JSONL rotation
  std::string metrics_out;          // empty = no Prometheus exposition
  std::string transport = "inprocess";  // parse_transport_kind values
  FaultProfile faults;                  // all-zero = clean channel
  RecoveryConfig recovery;              // retry/deadline/quorum policy
  std::size_t shards = 1;               // aggregator shards per round
  ChurnConfig churn;                    // all-zero = closed world
  std::size_t checkpoint_every = 0;     // 0 = checkpointing off
  std::string checkpoint_dir;           // empty = <out-dir>/checkpoints
  std::size_t checkpoint_retain = 3;    // newest generations kept
  // Set by the driver, never parsed here: a resumed run appends to
  // --trace-out and carries --metrics-out counters over.
  bool resume = false;
  bool quick = false;
};

// Parses the shared flags; warns about unknown ones. Drivers with extra
// flags should read them from their own CliFlags first, then hand it to
// the CliFlags& overload so those reads suppress the unknown-flag warning.
// A bad value (--faults drop=2, --rounds x) ends the process through
// exit_bad_flag.
BenchOptions parse_options(int argc, char** argv);
BenchOptions parse_options(const CliFlags& flags);

// Prints the reason a flag parser threw and exits with status 1: a bad
// command line is the caller's error, not a crash.
[[noreturn]] void exit_bad_flag(const std::invalid_argument& error);

// Loads a workload at the experiment seed and --scale (--quick caps it).
Workload load_workload(const std::string& name, const BenchOptions& options);

// Applies the round override / quick shrink to a config built from the
// workload defaults (includes apply_common_flags).
void apply_rounds(TrainerConfig& config, const Workload& workload,
                  const BenchOptions& options);

// Installs every shared channel/server flag on the config in one place —
// --transport, --shards, --churn, checkpointing and the fault/recovery
// knobs — so a new common flag lands here once instead of in every
// driver. For drivers that size rounds themselves instead of going
// through apply_rounds.
void apply_common_flags(TrainerConfig& config, const BenchOptions& options);

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

// Builds a TrainerConfig pre-filled from the workload's hyper-parameters.
TrainerConfig base_config(const Workload& workload, Algorithm algorithm,
                          double mu, double straggler_fraction,
                          std::size_t epochs, std::uint64_t seed);

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
