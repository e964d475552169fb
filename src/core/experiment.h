// Experiment-harness helpers shared by the bench drivers: run a set of
// method variants on one workload, dump per-round CSV series, render the
// paper-style summary table, and apply the paper's convergence /
// divergence bookkeeping (Appendix C.3.2) for the Figure 7 accuracy
// comparison.

#pragma once

#include <string>
#include <vector>

#include "core/registry.h"
#include "core/trainer.h"
#include "support/csv.h"

namespace fed {

struct VariantSpec {
  std::string label;     // e.g. "FedProx (mu=1)"
  TrainerConfig config;
};

struct VariantResult {
  std::string label;
  TrainHistory history;
};

struct RunVariantsOptions {
  // Log a one-line summary per variant (via an internal observer).
  bool verbose = true;
  // Extra observers attached to every variant's Trainer, in order (e.g.
  // a TraceObserver feeding a JSONL sink).
  std::vector<TrainingObserver*> observers;
};

// Runs each variant on the workload, sequentially (each run parallelizes
// internally over devices). Progress reporting goes through the Trainer's
// observer API: the verbose summary line is itself an observer, and
// `options.observers` are registered after it.
std::vector<VariantResult> run_variants(const Workload& workload,
                                        const std::vector<VariantSpec>& specs,
                                        const RunVariantsOptions& options);
std::vector<VariantResult> run_variants(const Workload& workload,
                                        const std::vector<VariantSpec>& specs,
                                        bool verbose = true);

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

// Renders a compact loss trajectory (first/quartile/last evaluated
// points) for stdout summaries.
std::string trajectory_string(const TrainHistory& history,
                              std::size_t points = 5);

}  // namespace fed
