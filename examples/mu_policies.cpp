// Ablation of the three mu policies on heterogeneous synthetic data:
//   fixed mu       — the paper's main method (grid-tuned constant)
//   adaptive mu    — the paper's loss-reactive heuristic (Figure 3)
//   theory mu      — this repo's extension of the paper's future-work
//                    note: mu_t proportional to the measured B(w^t)^2 - 1
//                    (Corollary 7 suggests mu ~ 6 L B^2)
//
//   ./mu_policies [--rounds 100] [--dataset synthetic_1_1]

#include <iostream>

#include "core/registry.h"
#include "core/trainer.h"
#include "support/cli.h"
#include "support/csv.h"

int main(int argc, char** argv) {
  using namespace fed;
  CliFlags flags(argc, argv);
  const std::string dataset = flags.get_string("dataset", "synthetic_1_1");
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds", 100));

  const Workload w = make_workload(dataset, /*seed=*/6);

  auto base = [&] {
    TrainerConfig c;
    c.algorithm = Algorithm::kFedProx;
    c.rounds = rounds;
    c.devices_per_round = 10;
    c.systems.epochs = 20;
    c.learning_rate = w.learning_rate;
    c.eval_every = rounds / 10 ? rounds / 10 : 1;
    c.seed = 6;
    return c;
  };

  TrainerConfig fixed = base();
  fixed.mu = w.best_mu;

  TrainerConfig adaptive = base();
  adaptive.adaptive_mu.enabled = true;
  adaptive.adaptive_mu.initial_mu = 0.0;

  TrainerConfig theory = base();
  theory.theory_mu = true;

  TablePrinter table({"policy", "final mu", "final loss", "final test acc"});
  auto run = [&](const std::string& label, const TrainerConfig& config) {
    auto h = Trainer(*w.model, w.data, config).run();
    const auto& fin = h.final_metrics();
    table.add_row({label, TablePrinter::fmt(fin.mu, 3),
                   TablePrinter::fmt(*fin.train_loss),
                   TablePrinter::fmt(*fin.test_accuracy)});
  };
  run("fixed mu=" + std::to_string(w.best_mu), fixed);
  run("adaptive (loss heuristic)", adaptive);
  run("theory (mu ~ B^2 - 1)", theory);
  std::cout << "dataset " << dataset << ", " << rounds << " rounds, E=20\n\n"
            << table.render();
  return 0;
}
