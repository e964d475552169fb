// Adaptive-mu demo (paper Section 5.3.2, Figure 3): start from an
// adversarial mu and let the +0.1/-0.1 heuristic find its way.
//
//   ./adaptive_mu_demo [--dataset synthetic_1_1] [--initial-mu 0]

#include <iostream>

#include "core/registry.h"
#include "core/trainer.h"
#include "obs/observer.h"
#include "support/cli.h"
#include "support/csv.h"

namespace {

struct MuTableObserver : fed::TrainingObserver {
  explicit MuTableObserver(fed::TablePrinter& out) : table(out) {}
  void on_round_end(const fed::RoundMetrics& m,
                    const fed::RoundTrace&) override {
    if (!m.evaluated()) return;
    table.add_row({std::to_string(m.round), fed::TablePrinter::fmt(m.mu, 2),
                   fed::TablePrinter::fmt(*m.train_loss),
                   fed::TablePrinter::fmt(*m.test_accuracy)});
  }
  fed::TablePrinter& table;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fed;
  CliFlags flags(argc, argv);
  const std::string dataset = flags.get_string("dataset", "synthetic_1_1");
  const double initial_mu = flags.get_double("initial-mu", 0.0);

  const Workload w = make_workload(dataset, /*seed=*/5);

  TrainerConfig config;
  config.algorithm = Algorithm::kFedProx;
  config.adaptive_mu.enabled = true;
  config.adaptive_mu.initial_mu = initial_mu;
  config.rounds = static_cast<std::size_t>(flags.get_int("rounds", 80));
  config.devices_per_round = 10;
  config.systems.epochs = 20;
  config.learning_rate = w.learning_rate;
  config.eval_every = 4;
  config.seed = 5;

  std::cout << "dataset " << dataset << ", initial mu " << initial_mu
            << " (heuristic: +0.1 on loss increase, -0.1 after 5 "
               "consecutive decreases)\n\n";

  Trainer trainer(*w.model, w.data, config);
  TablePrinter table({"round", "mu", "train loss", "test accuracy"});
  MuTableObserver observer(table);
  trainer.add_observer(observer);
  trainer.run();
  std::cout << table.render();
  return 0;
}
