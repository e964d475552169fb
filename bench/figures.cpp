#include "figures.h"

#include <iomanip>
#include <iostream>
#include <stdexcept>

#include "optim/adam.h"
#include "optim/gd.h"
#include "optim/sgd.h"

namespace fed::bench {
namespace {

using Sections = std::vector<Section>;

// A variant built from the workload defaults with every offered flag
// applied; callers adjust its config afterwards.
VariantSpec variant(std::string label, const Workload& w,
                    const BenchOptions& o, Algorithm algorithm, double mu,
                    double stragglers = 0.0) {
  return {std::move(label), base_config(w, o, algorithm, mu, stragglers)};
}

// One section per straggler rate, tagged "<workload>@<rate><suffix>":
// FedAvg (drop stragglers), FedProx mu=0 (keep partial work) and, unless
// `best` is empty, FedProx at the workload's best mu labelled `best`.
Sections straggler_sweep(const Workload& w, const BenchOptions& o,
                         std::initializer_list<double> rates,
                         const std::string& suffix, const std::string& best) {
  Sections out;
  for (double rate : rates) {
    Section s{w.name + "@" + std::to_string(static_cast<int>(rate * 100)) +
                  suffix,
              {variant("FedAvg", w, o, Algorithm::kFedAvg, 0.0, rate),
               variant("FedProx (mu=0)", w, o, Algorithm::kFedProx, 0.0,
                       rate)}};
    if (!best.empty()) {
      s.specs.push_back(
          variant(best, w, o, Algorithm::kFedProx, w.best_mu, rate));
    }
    out.push_back(std::move(s));
  }
  return out;
}

// mu = 0 against mu = `mu`, both measuring the dissimilarity metrics.
Sections dissimilarity_pair(const Workload& w, const BenchOptions& o,
                            double mu, const std::string& label) {
  Section s{w.name,
            {variant("FedAvg (FedProx, mu=0)", w, o, Algorithm::kFedProx, 0.0),
             variant(label, w, o, Algorithm::kFedProx, mu)}};
  for (auto& spec : s.specs) spec.config.measure_dissimilarity = true;
  return {s};
}

// The adversarial initial mu of Figures 3 and 11: 1 on IID data, else 0.
double adversarial_mu(const Workload& w) {
  return w.name == "synthetic_iid" ? 1.0 : 0.0;
}

// FedAvg, the +/-0.1 adaptive-mu heuristic from the adversarial start,
// and the hand-tuned mu = 1.
Sections adaptive_mu(const Workload& w, const BenchOptions& o) {
  const double mu0 = adversarial_mu(w);
  VariantSpec dynamic =
      variant("FedProx, dynamic mu (mu0=" + std::to_string(mu0) + ")", w, o,
              Algorithm::kFedProx, mu0);
  dynamic.config.mu_policy = MuPolicy::kAdaptive;
  return {{w.name,
           {variant("FedAvg (FedProx, mu=0)", w, o, Algorithm::kFedProx, 0.0),
            dynamic,
            variant("FedProx, mu>0 (mu=1)", w, o, Algorithm::kFedProx, 1.0)}}};
}

// K = 10 FedProx vs FedDane at mu in {0, 1}, then FedDane with more
// participating devices to narrow its gradient-estimation gap.
Sections feddane(const Workload& w, const BenchOptions& o) {
  Section s{w.name, {}};
  for (Algorithm algorithm : {Algorithm::kFedProx, Algorithm::kFedDane}) {
    const std::string name =
        algorithm == Algorithm::kFedProx ? "FedProx" : "FedDane";
    for (double mu : {0.0, 1.0}) {
      s.specs.push_back(variant(name + " (mu=" +
                                    std::to_string(static_cast<int>(mu)) +
                                    ", K=10)",
                                w, o, algorithm, mu));
    }
  }
  for (std::size_t k : {20u, 30u}) {
    if (k > w.data.num_clients()) continue;
    s.specs.push_back(variant("FedDane (mu=0, K=" + std::to_string(k) + ")",
                              w, o, Algorithm::kFedDane, 0.0));
    s.specs.back().config.devices_per_round = k;
  }
  return {s};
}

// Uniform sampling + n_k-weighted average (the experiments' scheme) vs
// p_k-weighted sampling + simple average (the analysis'), mu in {0, 1}.
Sections sampling_schemes(const Workload& w, const BenchOptions& o) {
  Section s{w.name, {}};
  for (auto scheme : {SamplingScheme::kUniformThenWeightedAverage,
                      SamplingScheme::kWeightedThenSimpleAverage}) {
    for (double mu : {0.0, 1.0}) {
      s.specs.push_back(variant("mu=" + std::to_string(static_cast<int>(mu)) +
                                    ", " + to_string(scheme),
                                w, o, Algorithm::kFedProx, mu));
      s.specs.back().config.sampling = scheme;
      s.specs.back().config.measure_dissimilarity = true;
    }
  }
  return {s};
}

// Fixed mu = 1, the adaptive heuristic, and the theory-guided
// mu_t = 0.05 (B_t^2 - 1) that Corollary 7 suggests.
Sections mu_policies(const Workload& w, const BenchOptions& o) {
  VariantSpec adaptive = variant("adaptive (loss heuristic)", w, o,
                                 Algorithm::kFedProx, adversarial_mu(w));
  adaptive.config.mu_policy = MuPolicy::kAdaptive;
  VariantSpec theory =
      variant("theory (mu ~ B^2-1)", w, o, Algorithm::kFedProx, 0.0);
  theory.config.mu_policy = MuPolicy::kTheory;
  return {{w.name,
           {variant("fixed (mu=1)", w, o, Algorithm::kFedProx, 1.0), adaptive,
            theory}}};
}

// SGD, GD and Adam as FedProx's local solver under one iteration budget,
// with the realized gamma-inexactness measured.
Sections local_solvers(const Workload& w, const BenchOptions& o) {
  Sections out;
  for (double mu : {0.0, 1.0}) {
    Section s{w.name + "@mu=" + std::to_string(mu), {}};
    auto push = [&](const std::string& name,
                    std::shared_ptr<const LocalSolver> solver,
                    double learning_rate) {
      s.specs.push_back(variant(
          name + " (mu=" + std::to_string(static_cast<int>(mu)) + ")", w, o,
          Algorithm::kFedProx, mu));
      s.specs.back().config.solver = std::move(solver);
      s.specs.back().config.learning_rate = learning_rate;
      s.specs.back().config.measure_gamma = true;
    };
    push("sgd", std::make_shared<SgdSolver>(), w.learning_rate);
    push("gd", std::make_shared<GdSolver>(), w.learning_rate);
    // Adam needs a smaller step; its per-coordinate scaling is ~unit.
    push("adam", std::make_shared<AdamSolver>(), 0.003);
    out.push_back(std::move(s));
  }
  return out;
}

// Figure 7's read-off: each section's settled accuracies (Appendix
// C.3.2) go to fig7_summary.csv, and the mean improvement of FedProx
// (best mu) over FedAvg at 90% stragglers is the paper's "22% absolute,
// on average".
class AccuracyReport final : public Report {
 public:
  explicit AccuracyReport(const BenchOptions& o)
      : summary_(o.out_dir + "/fig7_summary.csv",
                 {"dataset", "stragglers", "fedavg_acc", "fedprox_mu0_acc",
                  "fedprox_best_acc", "improvement_best_vs_fedavg"}) {}

  void section(const std::string& tag,
               const std::vector<VariantResult>& results) override {
    const double avg = settled_accuracy(results[0].history);
    const double mu0 = settled_accuracy(results[1].history);
    const double best = settled_accuracy(results[2].history);
    const double improvement = best - avg;
    const std::size_t at = tag.find('@');
    const std::string stragglers = tag.substr(at + 1);
    if (stragglers == "90%") {
      improvement_sum_90_ += improvement;
      ++count_90_;
    }
    std::cout << "settled accuracies: FedAvg " << TablePrinter::fmt(avg)
              << " | FedProx(mu=0) " << TablePrinter::fmt(mu0)
              << " | FedProx(best mu) " << TablePrinter::fmt(best)
              << " | improvement " << TablePrinter::fmt(improvement) << "\n";
    summary_.write_row({tag.substr(0, at), stragglers, std::to_string(avg),
                        std::to_string(mu0), std::to_string(best),
                        std::to_string(improvement)});
  }

  void finish() override {
    if (count_90_ > 0) {
      std::cout << "\n=== Average absolute testing-accuracy improvement of "
                   "FedProx (best mu) over FedAvg at 90% stragglers: "
                << std::fixed << std::setprecision(1)
                << 100.0 * improvement_sum_90_ / static_cast<double>(count_90_)
                << "% (paper reports 22%) ===\n";
    }
    std::cout << "Summary CSV written to " << summary_.path() << "\n";
  }

 private:
  CsvWriter summary_;
  double improvement_sum_90_ = 0.0;
  std::size_t count_90_ = 0;
};

// Each local solver's mean realized gamma over the evaluated rounds.
class GammaReport final : public Report {
 public:
  explicit GammaReport(const BenchOptions&) {}

  void section(const std::string&,
               const std::vector<VariantResult>& results) override {
    for (const auto& r : results) {
      double gamma = 0.0;
      std::size_t count = 0;
      for (const auto& m : r.history.rounds) {
        if (m.mean_gamma) {
          gamma += *m.mean_gamma;
          ++count;
        }
      }
      if (count) {
        std::cout << r.label << ": mean realized gamma "
                  << TablePrinter::fmt(gamma / static_cast<double>(count))
                  << "\n";
      }
    }
  }
};

template <class R>
std::unique_ptr<Report> make_report(const BenchOptions& o) {
  return std::make_unique<R>(o);
}

}  // namespace

// Expected shapes are the paper's; EXPERIMENTS.md compares them with the
// measured CSVs.
const std::vector<Figure>& figures() {
  using W = const Workload&;  // the section lambdas' parameters
  using O = const BenchOptions&;
  static const auto fig1_sets = figure1_workload_names();
  static const auto synthetic = synthetic_workload_names();
  static const std::vector<Figure> table{
      // More stragglers hurt FedAvg badly; FedProx mu=0 improves on it;
      // mu>0 is the most stable and typically best (E = 20).
      {"fig1_systems_heterogeneity", "Figure 1",
       "systems heterogeneity: loss under 0%/50%/90% stragglers", fig1_sets,
       [](W w, O o) {
         return straggler_sweep(w, o, {0.0, 0.5, 0.9}, "%stragglers",
                                "FedProx (mu=" + std::to_string(w.best_mu) +
                                    ")");
       },
       {Metric::kTrainLoss}},
      // No systems heterogeneity; convergence degrades with statistical
      // heterogeneity for mu=0, mu>0 combats it, the variance tracks it.
      {"fig2_statistical_heterogeneity", "Figure 2",
       "statistical heterogeneity: loss and gradient variance on synthetic "
       "datasets",
       synthetic,
       [](W w, O o) {
         return dissimilarity_pair(w, o, 1.0, "FedProx, mu>0 (mu=1)");
       },
       {Metric::kTrainLoss, Metric::kGradVariance}},
      // The heuristic tracks the hand-tuned mu on non-IID data and
      // recovers from the bad initial mu on IID data.
      {"fig3_adaptive_mu", "Figure 3",
       "adaptive mu heuristic (adversarial initial mu)",
       {"synthetic_iid", "synthetic_1_1"}, adaptive_mu,
       {Metric::kTrainLoss, Metric::kMu}},
      // Appendix B: FedDane tracks FedProx on IID data but degrades on
      // non-IID sets; more participation only partly helps.
      {"fig4_feddane", "Figure 4", "FedDane gradient correction vs FedProx",
       synthetic, feddane, {Metric::kTrainLoss}},
      // On IID data FedAvg is robust to dropping stragglers.
      {"fig5_iid_stragglers", "Figure 5",
       "IID data: FedAvg robustness to stragglers", {"synthetic_iid"},
       [](W w, O o) {
         return straggler_sweep(w, o, {0.0, 0.1, 0.5, 0.9}, "% stragglers", "");
       },
       {Metric::kTrainLoss, Metric::kTestAccuracy}},
      {"fig6_synthetic_full", "Figure 6",
       "full synthetic results: loss, accuracy, dissimilarity", synthetic,
       [](W w, O o) {
         return dissimilarity_pair(w, o, 1.0, "FedProx, mu>0 (mu=1)");
       },
       {Metric::kTrainLoss, Metric::kTestAccuracy, Metric::kGradVariance}},
      {"fig7_test_accuracy", "Figure 7",
       "testing accuracy under systems heterogeneity + the 22% claim",
       fig1_sets,
       [](W w, O o) {
         return straggler_sweep(w, o, {0.0, 0.5, 0.9}, "%",
                                "FedProx (best mu)");
       },
       {Metric::kTestAccuracy}, make_report<AccuracyReport>},
      // mu > 0 keeps the dissimilarity below mu = 0's.
      {"fig8_dissimilarity", "Figure 8",
       "dissimilarity measurement on five datasets", fig1_sets,
       [](W w, O o) {
         return dissimilarity_pair(w, o, w.best_mu, "FedProx (mu>0)");
       },
       {Metric::kGradVariance}},
      // E = 1: statistical heterogeneity bites less, but keeping partial
      // work still beats dropping it.
      {"fig9_partial_work_e1", "Figures 9-10", "partial work with E = 1",
       fig1_sets,
       [](W w, O o) {
         BenchOptions e1 = o;
         e1.config.systems.epochs = 1;  // the defining setting of this figure
         return straggler_sweep(w, e1, {0.0, 0.5, 0.9}, "% stragglers",
                                "FedProx (best mu)");
       },
       {Metric::kTrainLoss, Metric::kTestAccuracy}},
      {"fig11_adaptive_mu_full", "Figure 11",
       "adaptive mu on all synthetic datasets", synthetic, adaptive_mu,
       {Metric::kTrainLoss}},
      // Weighted sampling is slightly more stable; mu = 1 beats mu = 0
      // under either scheme.
      {"fig12_sampling_schemes", "Figure 12", "two device sampling schemes",
       synthetic, sampling_schemes,
       {Metric::kTrainLoss, Metric::kTestAccuracy}},
      // Beyond the paper: its future-work note on tuning mu from theory.
      {"ablation_mu_policies", "Ablation",
       "mu policies: fixed vs adaptive vs theory-guided", synthetic,
       mu_policies, {Metric::kTrainLoss, Metric::kMu}},
      // Section 3.2's "any local solver": how solver choice maps onto
      // gamma and onto convergence.
      {"ablation_local_solvers", "Ablation",
       "local solvers: SGD vs GD vs Adam under FedProx", {"synthetic_1_1"},
       local_solvers, {Metric::kTrainLoss}, make_report<GammaReport>},
  };
  return table;
}

const Figure& figure(const std::string& name) {
  for (const Figure& f : figures()) {
    if (f.name == name) return f;
  }
  throw std::out_of_range("unknown figure: " + name);
}

int run_figure(const Figure& figure, const BenchOptions& options) {
  print_banner(figure.title, figure.description);
  CsvWriter csv(options.out_dir + "/" + figure.name + ".csv",
                history_csv_header());
  std::optional<TraceCapture> trace;  // --trace-out, --metrics-out
  if (!open_capture(trace, options)) return 1;
  const auto report = figure.report ? figure.report(options) : nullptr;

  for (const auto& name : figure.workloads) {
    const Workload w = load_workload(name, options);
    for (const Section& section : figure.sections(w, options)) {
      const auto results =
          run_variants(w, section.specs, trace->observers());
      for (Metric metric : figure.metrics) {
        std::cout << "\n--- " << section.tag << ": " << metric_name(metric)
                  << " ---\n"
                  << render_series(results, metric);
      }
      if (report) report->section(section.tag, results);
      append_history_csv(csv, section.tag, results);
    }
  }
  if (report) report->finish();
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}

}  // namespace fed::bench
