// Figure 6 (Appendix C.3.2): the complete synthetic-data results behind
// Figure 2 — training loss, testing accuracy, and the dissimilarity
// metric on all four synthetic datasets, mu = 0 vs mu = 1, no systems
// heterogeneity.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Figure 6",
               "full synthetic results: loss, accuracy, dissimilarity");

  CsvWriter csv(options.out_dir + "/fig6_synthetic_full.csv",
                history_csv_header());
  std::optional<TraceCapture> trace;  // --trace-out, --metrics-out
  if (!open_capture(trace, options)) return 1;
  RunVariantsOptions rv;
  rv.observers = trace->observers();

  for (const auto& name : synthetic_workload_names()) {
    const Workload w = load_workload(name, options);
    std::vector<VariantSpec> specs;
    for (double mu : {0.0, 1.0}) {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, mu, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      c.measure_dissimilarity = true;
      specs.push_back(
          {mu == 0.0 ? "FedAvg (FedProx, mu=0)" : "FedProx, mu>0 (mu=1)", c});
    }
    auto results = run_variants(w, specs, rv);
    std::cout << "\n--- " << w.name << ": training loss ---\n"
              << render_series(results, Metric::kTrainLoss)
              << "\n--- " << w.name << ": testing accuracy ---\n"
              << render_series(results, Metric::kTestAccuracy)
              << "\n--- " << w.name << ": variance of local gradients ---\n"
              << render_series(results, Metric::kGradVariance);
    append_history_csv(csv, w.name, results);
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
