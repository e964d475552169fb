#include "bench_common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <tuple>

#include "support/log.h"
#include "support/stopwatch.h"

namespace fed::bench {

namespace {

// The harness flags; config_flags_help lists the config ones after them.
constexpr const char* kHarnessHelp =
    "  --scale S               dataset scale factor in (0, 1] (default 1)\n"
    "  --out-dir DIR           where CSVs land (default bench_out)\n"
    "  --trace-out P           stream per-round JSONL traces to P\n"
    "  --trace-rotate-mb N     roll the trace past N MiB, keeping .1/.2/.3;"
    " 0 = off\n"
    "  --metrics-out P         Prometheus scrape file, rewritten each round\n"
    "  --quick                 smoke-test size: scale <= 0.1, default rounds"
    " / 20\n";

}  // namespace

void log_setup(const TrainerConfig& config) {
  if (config.shards > 1) {
    log_info() << "sharded aggregation: " << config.shards
               << " aggregator shards per round";
  }
  if (config.churn.any()) {
    log_info() << "open-world churn: " << to_string(config.churn);
  }
  if (config.checkpoint.enabled()) {
    log_info() << "checkpointing to " << config.checkpoint.dir << " every "
               << config.checkpoint.every << " round(s), keeping "
               << config.checkpoint.retain << " generation(s)";
  }
  if (config.faults.any()) {
    log_info() << "channel faults: " << to_string(config.faults)
               << " (retries " << config.recovery.max_retries << ", deadline "
               << config.recovery.deadline_ms << " ms, quorum "
               << config.recovery.quorum << ")";
  }
}

TrainerConfig figure_defaults() {
  TrainerConfig c;
  c.seed = 1;
  c.rounds = 0;
  return c;
}

bool figure_flags(std::string_view flag) {
  return flag != "mu" && flag != "stragglers";
}

BenchOptions parse_options(int argc, char** argv) {
  CliFlags flags(argc, argv);
  return parse_options(flags);
}

void exit_bad_flag(const std::invalid_argument& error) {
  std::cerr << "error: " << error.what() << "\n";
  std::exit(1);
}

BenchOptions parse_options(const CliFlags& flags, TrainerConfig defaults,
                           FlagFilter offered) try {
  if (flags.get_bool("help", false)) {
    std::cout << "flags:\n"
              << kHarnessHelp << config_flags_help(defaults, offered);
    std::exit(0);
  }
  BenchOptions options;
  options.config = std::move(defaults);
  read_config_flags(flags, options.config, offered);
  options.scale = flags.get_double("scale", 1.0);
  options.out_dir = flags.get_string("out-dir", "bench_out");
  options.trace_out = flags.get_string("trace-out", "");
  const std::int64_t rotate_mb = flags.get_int("trace-rotate-mb", 0);
  if (rotate_mb < 0) {
    throw std::invalid_argument("flag --trace-rotate-mb: expects a count >= 0");
  }
  options.trace_rotate_mb = static_cast<std::size_t>(rotate_mb);
  options.metrics_out = flags.get_string("metrics-out", "");
  options.quick = flags.get_bool("quick", false);
  flags.warn_unused();
  if (options.quick) {
    options.scale = std::min(options.scale, 0.1);
  }
  CheckpointConfig& checkpoint = options.config.checkpoint;
  if (checkpoint.every > 0 && checkpoint.dir.empty()) {
    checkpoint.dir = options.out_dir + "/checkpoints";
  }
  return options;
} catch (const std::invalid_argument& error) {
  exit_bad_flag(error);
}

Workload load_workload(const std::string& name, const BenchOptions& options) {
  return make_workload(name, options.config.seed, options.scale);
}

TraceCapture::TraceCapture(const BenchOptions& options) {
  if (!options.trace_out.empty()) {
    const std::size_t rotate_bytes = options.trace_rotate_mb * 1024 * 1024;
    // A resumed run appends a new segment after the crashed run's lines
    // instead of truncating them away (trace_lint understands the
    // multi-segment layout).
    const auto mode = options.resume ? JsonlTraceSink::OpenMode::kAppend
                                     : JsonlTraceSink::OpenMode::kTruncate;
    sink_ = std::make_unique<JsonlTraceSink>(options.trace_out, rotate_bytes,
                                             mode);
    tracer_ = std::make_unique<TraceObserver>(*sink_);
    log_info() << "streaming round traces to " << options.trace_out
               << (options.resume ? " (append)" : "")
               << (rotate_bytes
                       ? " (rotating past " +
                             std::to_string(options.trace_rotate_mb) + " MiB)"
                       : "");
  }
  if (!options.metrics_out.empty()) {
    registry_ = std::make_unique<MetricsRegistry>();
    if (options.resume) {
      // Counters are cumulative: carry the crashed run's totals forward
      // so the scrape series never regresses across the crash.
      const std::size_t seeded =
          seed_counters_from_exposition(*registry_, options.metrics_out);
      if (seeded > 0) {
        log_info() << "carried " << seeded << " counter sample(s) over from "
                   << options.metrics_out;
      }
    }
    metrics_ = std::make_unique<MetricsObserver>(*registry_);
    exporter_ =
        std::make_unique<MetricsExporter>(*registry_, options.metrics_out);
    log_info() << "publishing Prometheus metrics to " << options.metrics_out;
  }
}

std::vector<TrainingObserver*> TraceCapture::observers() const {
  std::vector<TrainingObserver*> out;
  if (tracer_) out.push_back(tracer_.get());
  if (metrics_) {
    out.push_back(metrics_.get());
    out.push_back(exporter_.get());
  }
  return out;
}

bool open_capture(std::optional<TraceCapture>& capture,
                  const BenchOptions& options) {
  try {
    capture.emplace(options);
    return true;
  } catch (const std::runtime_error& error) {
    std::cerr << error.what() << "\n";
    return false;
  }
}

namespace {

// The per-variant summary line, expressed as an observer so run_variants
// reports progress through the same channel as every other consumer.
class VariantLogObserver final : public TrainingObserver {
 public:
  VariantLogObserver(std::string workload, std::string label)
      : workload_(std::move(workload)), label_(std::move(label)) {}

  void on_run_end(const TrainHistory& history) override {
    const auto& fin = history.final_metrics();
    log_info() << workload_ << " | " << label_ << " | loss "
               << fin.train_loss.value_or(0.0) << " | test acc "
               << fin.test_accuracy.value_or(0.0) << " | " << timer_.seconds()
               << "s";
  }

 private:
  std::string workload_;
  std::string label_;
  Stopwatch timer_;
};

std::string opt_cell(const std::optional<double>& v) {
  if (!v) return {};
  std::ostringstream out;
  out << *v;
  return out.str();
}

// One RoundMetrics as visit_metrics walks it: per field its key,
// whether it is set, and its bits (a count by value, a double by its
// bytes).
struct MetricBits {
  std::vector<std::tuple<const char*, bool, std::uint64_t>> fields;

  void field(const char* key, std::size_t v) {
    fields.emplace_back(key, true, v);
  }
  void field(const char* key, double v) { field(key, std::optional(v)); }
  void field(const char* key, const std::optional<double>& v) {
    fields.emplace_back(key, v.has_value(),
                        std::bit_cast<std::uint64_t>(v.value_or(0.0)));
  }
  void optionals(const auto& group) { group(*this); }
};

}  // namespace

std::vector<VariantResult> run_variants(
    const Workload& workload, const std::vector<VariantSpec>& specs,
    const std::vector<TrainingObserver*>& observers) {
  std::vector<VariantResult> results;
  results.reserve(specs.size());
  for (const auto& spec : specs) {
    Trainer trainer(*workload.model, workload.data, spec.config);
    VariantLogObserver logger(workload.name, spec.label);
    trainer.add_observer(logger);
    for (TrainingObserver* observer : observers) {
      trainer.add_observer(*observer);
    }
    results.push_back(VariantResult{spec.label, trainer.run()});
  }
  return results;
}

TrainerConfig base_config(const Workload& workload, const BenchOptions& options,
                          Algorithm algorithm, double mu,
                          double straggler_fraction) {
  TrainerConfig c = options.config;
  c.algorithm = algorithm;
  c.mu = mu;
  c.systems.straggler_fraction = straggler_fraction;
  c.devices_per_round = std::min<std::size_t>(10, workload.data.num_clients());
  c.batch_size = workload.batch_size;
  c.learning_rate = workload.learning_rate;
  c.eval_every = workload.default_eval_every;
  // An explicit --rounds wins; --quick shrinks only the default.
  c.rounds = workload.default_rounds;
  if (options.config.rounds) {
    c.rounds = options.config.rounds;
  } else if (options.quick) {
    c.rounds = std::max<std::size_t>(2, workload.default_rounds / 20);
  }
  log_setup(c);
  return c;
}

std::vector<std::string> history_csv_header() {
  return {"dataset",     "variant",        "round",
          "train_loss",  "train_accuracy", "test_accuracy",
          "grad_variance", "dissimilarity_b", "mu",
          "contributors", "stragglers"};
}

void append_history_csv(CsvWriter& csv, const std::string& dataset,
                        const std::vector<VariantResult>& results) {
  for (const auto& r : results) {
    for (const auto& m : r.history.rounds) {
      if (!m.evaluated()) continue;
      csv.write_row({dataset, r.label, std::to_string(m.round),
                     std::to_string(*m.train_loss),
                     std::to_string(*m.train_accuracy),
                     std::to_string(*m.test_accuracy),
                     opt_cell(m.grad_variance), opt_cell(m.dissimilarity_b),
                     std::to_string(m.mu), std::to_string(m.contributors),
                     std::to_string(m.stragglers)});
    }
  }
}

double settled_accuracy(const TrainHistory& history) {
  std::vector<const RoundMetrics*> evaluated;
  for (const auto& m : history.rounds) {
    if (m.evaluated()) evaluated.push_back(&m);
  }
  if (evaluated.empty()) {
    throw std::logic_error("settled_accuracy: no evaluated rounds");
  }
  for (std::size_t i = 1; i < evaluated.size(); ++i) {
    const double f_t = *evaluated[i]->train_loss;
    const double f_prev = *evaluated[i - 1]->train_loss;
    if (!std::isfinite(f_t)) {
      // Diverged to NaN/inf: read accuracy just before the blow-up.
      return *evaluated[i - 1]->test_accuracy;
    }
    if (std::abs(f_t - f_prev) < 1e-4) return *evaluated[i]->test_accuracy;
    if (i >= 10 && f_t - *evaluated[i - 10]->train_loss > 1.0) {
      return *evaluated[i]->test_accuracy;
    }
  }
  return *evaluated.back()->test_accuracy;
}

std::string history_divergence(const TrainHistory& a, const TrainHistory& b) {
  if (a.rounds.size() != b.rounds.size()) {
    return "round count " + std::to_string(a.rounds.size()) + " != " +
           std::to_string(b.rounds.size());
  }
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    MetricBits x, y;
    visit_metrics(x, a.rounds[i]);
    visit_metrics(y, b.rounds[i]);
    for (std::size_t f = 0; f < x.fields.size(); ++f) {
      if (x.fields[f] != y.fields[f]) {
        return "round " + std::to_string(a.rounds[i].round) + ": " +
               std::get<0>(x.fields[f]) + " diverged";
      }
    }
  }
  if (a.final_parameters.size() != b.final_parameters.size()) {
    return "final parameter dimension diverged";
  }
  for (std::size_t i = 0; i < a.final_parameters.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.final_parameters[i]) !=
        std::bit_cast<std::uint64_t>(b.final_parameters[i])) {
      return "final parameters diverged at index " + std::to_string(i);
    }
  }
  return "";
}

const char* metric_name(Metric metric) {
  switch (metric) {
    case Metric::kTrainLoss: return "training loss";
    case Metric::kTestAccuracy: return "testing accuracy";
    case Metric::kGradVariance: return "variance of local gradients";
    case Metric::kMu: return "mu";
  }
  return "?";
}

std::string render_series(const std::vector<VariantResult>& results,
                          Metric metric) {
  // Collect the union of evaluated rounds (they normally coincide).
  std::map<std::size_t, std::vector<std::string>> rows;
  std::vector<std::string> header{"round"};
  for (std::size_t v = 0; v < results.size(); ++v) {
    header.push_back(results[v].label);
    for (const auto& m : results[v].history.rounds) {
      if (!m.evaluated()) continue;
      auto& row = rows[m.round];
      row.resize(results.size(), "-");
      double value = 0.0;
      switch (metric) {
        case Metric::kTrainLoss: value = *m.train_loss; break;
        case Metric::kTestAccuracy: value = *m.test_accuracy; break;
        case Metric::kGradVariance:
          if (!m.grad_variance) continue;
          value = *m.grad_variance;
          break;
        case Metric::kMu: value = m.mu; break;
      }
      row[v] = TablePrinter::fmt(value, 4);
    }
  }
  TablePrinter table(header);
  for (const auto& [round, cells] : rows) {
    std::vector<std::string> row{std::to_string(round)};
    row.insert(row.end(), cells.begin(), cells.end());
    table.add_row(std::move(row));
  }
  return table.render();
}

void print_banner(const std::string& figure, const std::string& description) {
  std::cout << "==============================================================="
               "=\n"
            << figure << " — " << description << "\n"
            << "(FedProx reproduction; synthetic stand-ins for real datasets, "
               "see DESIGN.md)\n"
            << "==============================================================="
               "=\n";
}

}  // namespace fed::bench
