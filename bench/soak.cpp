// Long-horizon soak: checkpointed crash recovery under continuous churn
// and channel faults.
//
// Two runs of the same federation, same seed:
//
//   reference   every round uninterrupted, no checkpoints
//   segmented   checkpointing every K rounds; the server is killed
//               mid-aggregation at each --crash-at round (ServerCrashed,
//               core/checkpoint.h), then resumed from the newest FPC1
//               checkpoint — by default two kill/resume cycles
//
// The segmented run's combined TrainHistory (every RoundMetrics field,
// bit for bit, plus the final parameter vector) must equal the
// reference's; the process exits non-zero when it does not. Open-world
// churn (--churn) and channel faults (--faults) stay on the whole time,
// so recovery is exercised against a moving population and a lossy
// channel, not a lab-clean run. Results land in BENCH_soak.json, with
// the run's whole config as the trace header writes it and, per segment,
// the sum of every trace_counters() series keyed by series.
//
//   ./soak [--rounds 2000] [--checkpoint-every 25] [--crash-at 800,1400]
//          [--churn arrive=0.03,depart=0.03] [--faults drop=0.05,...]
//          [--trace-out soak.jsonl] [--metrics-out soak.prom]
//
// With --trace-out, segment 1 truncates and the resumed segments append,
// so the file carries one {"run":...} header per segment — lint it with
// trace_lint --jsonl --checkpoint.

#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/checkpoint.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "support/json.h"
#include "support/stopwatch.h"

namespace {

using namespace fed;
using namespace fed::bench;

// One segment's sum of every trace_counters() series (obs/metrics.h)
// over its round traces, keyed by series.
using SegmentTotals = std::map<std::string, std::uint64_t>;

SegmentTotals segment_totals(const TraceCollector& collector) {
  SegmentTotals totals;
  for (const TraceCounter& counter : trace_counters()) {
    std::uint64_t& total = totals[counter.series()];
    for (const RoundTrace& t : collector.traces()) total += counter.value(t);
  }
  return totals;
}

// The series the summary table shows, one column each.
const std::vector<std::string> kTableSeries = {
    "fed_rounds_total",
    "fed_churn_arrivals_total",
    "fed_churn_departures_total",
    "fed_comm_faults_total{kind=\"depart\"}",
    "fed_comm_retries_total",
    "fed_checkpoint_writes_total"};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  std::vector<double> crash_at_raw;
  try {
    crash_at_raw = flags.get_double_list("crash-at", {});
  } catch (const std::invalid_argument& error) {
    exit_bad_flag(error);
  }
  const std::string json_path =
      flags.get_string("bench-json", "BENCH_soak.json");

  // Soak defaults: a couple thousand rounds, periodic checkpoints,
  // continuous churn and channel faults, on a small federation so
  // thousands of rounds stay cheap. Every knob yields to an explicit flag.
  TrainerConfig defaults = fedprox_config(/*mu=*/1.0);
  defaults.rounds = 2000;
  defaults.systems.epochs = 2;
  defaults.systems.straggler_fraction = 0.5;
  defaults.eval_every = 10;  // thousands of rounds; evaluate sparsely
  defaults.seed = 1;
  defaults.checkpoint.every = 25;
  defaults.churn = parse_churn_config("arrive=0.03,depart=0.03");
  defaults.faults = parse_fault_profile("drop=0.05,corrupt=0.01");
  const BenchOptions options = parse_options(flags, defaults);
  const std::size_t rounds = options.config.rounds;
  const std::size_t checkpoint_every = options.config.checkpoint.every;

  if (crash_at_raw.empty()) {  // two kill/resume cycles
    crash_at_raw = {static_cast<double>(rounds * 2 / 5),
                    static_cast<double>(rounds * 7 / 10)};
  }
  std::vector<std::size_t> crashes;
  for (const double c : crash_at_raw) {
    // Checked before the cast: a negative, fractional or NaN value names
    // no round.
    if (!(c > static_cast<double>(checkpoint_every) &&
          c <= static_cast<double>(rounds) && c == std::floor(c))) {
      std::cerr << "soak: --crash-at " << c << " must be a round in ("
                << checkpoint_every << ", " << rounds
                << "] so a checkpoint exists to resume from\n";
      return 2;
    }
    crashes.push_back(static_cast<std::size_t>(c));
  }

  print_banner("soak",
               "long-horizon crash/recovery soak under churn + faults");

  // The soak stresses the recovery machinery, not the solver.
  SyntheticConfig synth = synthetic_config(1.0, 1.0, options.config.seed);
  const FederatedDataset data = make_synthetic(synth);
  LogisticRegression model(synth.input_dim, synth.num_classes);

  TrainerConfig config = options.config;
  config.devices_per_round = std::min<std::size_t>(10, data.num_clients());
  log_setup(config);

  // A rerun must not resume from a previous invocation's generations:
  // wipe stale checkpoints so the first segment always starts cold.
  if (config.checkpoint.enabled()) {
    std::error_code ec;
    std::filesystem::remove_all(config.checkpoint.dir, ec);
  }

  // Reference: the same run, never interrupted, no checkpoint I/O.
  TrainHistory reference;
  double reference_seconds = 0.0;
  {
    TrainerConfig ref = config;
    ref.checkpoint = {};
    Stopwatch timer;
    reference = Trainer(model, data, ref).run();
    reference_seconds = timer.seconds();
  }

  // Segmented: run, crash, resume from the newest checkpoint — repeated
  // per --crash-at round — then run to completion.
  std::vector<SegmentTotals> segments;
  std::vector<std::size_t> resumed_from;
  std::vector<double> recovery_seconds;
  TrainHistory segmented;
  double segmented_seconds = 0.0;
  {
    Stopwatch timer;
    std::size_t next_crash = 0;
    bool finished = false;
    while (!finished) {
      const bool first_segment = next_crash == 0;
      TrainerConfig seg = config;
      seg.crash.at_round =
          next_crash < crashes.size() ? crashes[next_crash] : 0;

      BenchOptions seg_options = options;
      seg_options.resume = !first_segment;
      std::optional<TraceCapture> capture;
      if (!open_capture(capture, seg_options)) return 1;
      TraceCollector collector;

      std::optional<std::string> checkpoint;
      if (!first_segment) {
        Stopwatch recovery_timer;
        checkpoint = latest_checkpoint(seg.checkpoint.dir);
        if (!checkpoint) {
          std::cerr << "soak: no checkpoint to resume from under "
                    << seg.checkpoint.dir << "\n";
          return 2;
        }
        // Charge discovery + load + validation as the recovery latency.
        const CheckpointState state = load_checkpoint_state(*checkpoint);
        recovery_seconds.push_back(recovery_timer.seconds());
        resumed_from.push_back(static_cast<std::size_t>(state.next_round) - 1);
      }

      Trainer trainer(model, data, seg);
      for (TrainingObserver* o : capture->observers()) trainer.add_observer(*o);
      trainer.add_observer(collector);
      try {
        segmented =
            first_segment ? trainer.run() : trainer.resume(*checkpoint);
        finished = true;
      } catch (const ServerCrashed& crash) {
        std::cout << "  segment " << segments.size() + 1
                  << ": server crashed mid-aggregation at round "
                  << crash.round() << " (as planned)\n";
        ++next_crash;
      }
      segments.push_back(segment_totals(collector));
    }
    segmented_seconds = timer.seconds();
  }

  const std::string divergence = history_divergence(reference, segmented);
  const bool identical = divergence.empty();

  std::vector<std::string> header = {"segment"};
  header.insert(header.end(), kTableSeries.begin(), kTableSeries.end());
  TablePrinter table(header);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    std::vector<std::string> row = {std::to_string(s + 1)};
    for (const std::string& series : kTableSeries) {
      row.push_back(std::to_string(segments[s].at(series)));
    }
    table.add_row(row);
  }
  std::cout << table.render();
  for (std::size_t i = 0; i < resumed_from.size(); ++i) {
    std::cout << "  resume " << i + 1 << ": crashed at round " << crashes[i]
              << ", recovered from checkpointed round " << resumed_from[i]
              << " in " << TablePrinter::fmt(recovery_seconds[i] * 1e3, 3)
              << " ms\n";
  }
  std::cout << (identical
                    ? "history: segmented run is bit-identical to the "
                      "uninterrupted reference\n"
                    : "history MISMATCH: " + divergence + "\n");

  JsonObject out;
  out["benchmark"] = "soak_crash_resume";
  out["config"] = config_to_json(config);
  JsonArray crash_rounds;
  for (const std::size_t c : crashes) crash_rounds.push_back(c);
  out["crash_rounds"] = std::move(crash_rounds);
  JsonArray resumes;
  for (std::size_t i = 0; i < resumed_from.size(); ++i) {
    JsonObject r;
    r["crashed_at"] = crashes[i];
    r["resumed_from"] = resumed_from[i];
    r["recovery_seconds"] = recovery_seconds[i];
    resumes.push_back(JsonValue(std::move(r)));
  }
  out["resumes"] = std::move(resumes);
  JsonArray segment_rows;
  for (const SegmentTotals& totals : segments) {
    segment_rows.push_back(JsonObject(totals.begin(), totals.end()));
  }
  out["segments"] = std::move(segment_rows);
  out["reference_wall_seconds"] = reference_seconds;
  out["segmented_wall_seconds"] = segmented_seconds;
  out["history_bit_identical"] = identical;
  if (!identical) out["divergence"] = divergence;
  save_json_file(json_path, JsonValue(std::move(out)));
  std::cout << "wrote " << json_path << "\n";

  return identical ? 0 : 1;
}
