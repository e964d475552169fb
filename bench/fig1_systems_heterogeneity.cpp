// Figure 1: training loss vs. communication rounds on five federated
// datasets under 0% / 50% / 90% stragglers, comparing
//   FedAvg              (drop stragglers, mu = 0)
//   FedProx (mu = 0)    (keep partial work)
//   FedProx (mu > 0)    (keep partial work + proximal term; best mu)
// with E = 20 local epochs. Expected shape (paper): more stragglers hurt
// FedAvg badly; FedProx mu=0 improves on FedAvg; FedProx mu>0 is the most
// stable and typically best.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Figure 1",
               "systems heterogeneity: loss under 0%/50%/90% stragglers");

  CsvWriter csv(options.out_dir + "/fig1_systems_heterogeneity.csv",
                history_csv_header());
  std::optional<TraceCapture> trace;  // --trace-out, --metrics-out
  if (!open_capture(trace, options)) return 1;
  RunVariantsOptions rv;
  rv.observers = trace->observers();

  for (const auto& name : figure1_workload_names()) {
    const Workload w = load_workload(name, options);
    for (double stragglers : {0.0, 0.5, 0.9}) {
      std::vector<VariantSpec> specs;
      {
        TrainerConfig c = base_config(w, Algorithm::kFedAvg, 0.0, stragglers,
                                      options.epochs, options.seed);
        apply_rounds(c, w, options);
        specs.push_back({"FedAvg", c});
      }
      {
        TrainerConfig c = base_config(w, Algorithm::kFedProx, 0.0, stragglers,
                                      options.epochs, options.seed);
        apply_rounds(c, w, options);
        specs.push_back({"FedProx (mu=0)", c});
      }
      {
        TrainerConfig c =
            base_config(w, Algorithm::kFedProx, w.best_mu, stragglers,
                        options.epochs, options.seed);
        apply_rounds(c, w, options);
        specs.push_back({"FedProx (mu=" + std::to_string(w.best_mu) + ")", c});
      }
      auto results = run_variants(w, specs, rv);
      std::cout << "\n--- " << w.name << ", "
                << static_cast<int>(stragglers * 100)
                << "% stragglers: training loss ---\n"
                << render_series(results, Metric::kTrainLoss);
      append_history_csv(
          csv, w.name + "@" + std::to_string(static_cast<int>(stragglers * 100)) +
                   "%stragglers",
          results);
    }
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
