#include "core/experiment.h"

#include <cmath>
#include <sstream>

#include "obs/observer.h"
#include "support/log.h"
#include "support/stopwatch.h"

namespace fed {

TrainerConfig base_config(const Workload& workload, Algorithm algorithm,
                          double mu, double straggler_fraction,
                          std::size_t epochs, std::uint64_t seed) {
  TrainerConfig c;
  c.algorithm = algorithm;
  c.mu = mu;
  c.rounds = workload.default_rounds;
  c.devices_per_round = std::min<std::size_t>(10, workload.data.num_clients());
  c.batch_size = workload.batch_size;
  c.learning_rate = workload.learning_rate;
  c.systems.straggler_fraction = straggler_fraction;
  c.systems.epochs = epochs;
  c.seed = seed;
  c.eval_every = workload.default_eval_every;
  return c;
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

}  // namespace

std::vector<VariantResult> run_variants(const Workload& workload,
                                        const std::vector<VariantSpec>& specs,
                                        const RunVariantsOptions& options) {
  std::vector<VariantResult> results;
  results.reserve(specs.size());
  for (const auto& spec : specs) {
    Trainer trainer(*workload.model, workload.data, spec.config);
    std::optional<VariantLogObserver> logger;
    if (options.verbose) {
      logger.emplace(workload.name, spec.label);
      trainer.add_observer(*logger);
    }
    for (TrainingObserver* observer : options.observers) {
      trainer.add_observer(*observer);
    }
    results.push_back(VariantResult{spec.label, trainer.run()});
  }
  return results;
}

std::vector<VariantResult> run_variants(const Workload& workload,
                                        const std::vector<VariantSpec>& specs,
                                        bool verbose) {
  RunVariantsOptions options;
  options.verbose = verbose;
  return run_variants(workload, specs, options);
}

std::vector<std::string> history_csv_header() {
  return {"dataset",     "variant",        "round",
          "train_loss",  "train_accuracy", "test_accuracy",
          "grad_variance", "dissimilarity_b", "mu",
          "contributors", "stragglers"};
}

namespace {

std::string opt_cell(const std::optional<double>& v) {
  if (!v) return {};
  std::ostringstream out;
  out << *v;
  return out.str();
}

}  // namespace

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

std::string trajectory_string(const TrainHistory& history,
                              std::size_t points) {
  const auto series = history.loss_series();
  if (series.empty()) return "(no evaluations)";
  std::ostringstream out;
  out.precision(4);
  const std::size_t n = series.size();
  const std::size_t count = std::min(points, n);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t idx = (count == 1) ? n - 1 : i * (n - 1) / (count - 1);
    if (i) out << " -> ";
    out << "r" << series[idx].first << ":" << series[idx].second;
  }
  return out.str();
}

}  // namespace fed
