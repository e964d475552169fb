// Solver-agnosticism demo: FedProx only requires each device to return a
// gamma-inexact minimizer of its proximal subproblem — *any* local solver
// works (paper Section 3.2). This example plugs in a user-defined
// momentum-SGD solver and compares it with the built-in plain SGD,
// measuring the realized gamma-inexactness of each.
//
//   ./custom_solver [--rounds 40]
//
// A bad --rounds value exits 1 with the reason.

#include <iostream>
#include <stdexcept>

#include "core/config.h"
#include "core/registry.h"
#include "core/trainer.h"
#include "optim/prox_sgd.h"
#include "support/cli.h"
#include "support/csv.h"
#include "tensor/ops.h"

namespace {

using namespace fed;

// Mini-batch SGD with heavy-ball momentum on the proximal objective.
// Only `solve` is required; the framework supplies the subproblem
// (model, data, anchor w^t, mu), a deterministic rng and `Minibatches`,
// which draws batch order from it as the built-in solvers do.
class MomentumSgdSolver final : public LocalSolver {
 public:
  explicit MomentumSgdSolver(double beta) : beta_(beta) {}
  std::string name() const override { return "momentum_sgd"; }

  void solve(const LocalProblem& problem, const SolveBudget& budget, Rng& rng,
             std::span<double> w) const override {
    const LocalObjective objective(problem);
    const std::size_t n = objective.num_samples();
    if (n == 0 || budget.iterations == 0) return;
    Vector grad(objective.dimension()), velocity(objective.dimension(), 0.0);
    Minibatches batches(n, budget.batch_size, rng);
    for (std::size_t it = 0; it < budget.iterations; ++it) {
      objective.loss_and_grad(w, batches.next(), grad);
      for (std::size_t i = 0; i < w.size(); ++i) {
        velocity[i] = beta_ * velocity[i] - budget.learning_rate * grad[i];
        w[i] += velocity[i];
      }
    }
  }

 private:
  double beta_;
};

}  // namespace

int main(int argc, char** argv) try {
  using namespace fed;
  TrainerConfig base = fedprox_config(/*mu=*/1.0);
  base.rounds = 40;
  const CliFlags flags(argc, argv);
  read_config_flags(flags, base,
                    [](std::string_view flag) { return flag == "rounds"; });
  flags.warn_unused();

  const Workload w = make_workload("synthetic_0.5_0.5", /*seed=*/3);

  auto run = [&](std::shared_ptr<const LocalSolver> solver) {
    TrainerConfig config = base;
    config.devices_per_round = 10;
    config.systems.epochs = 20;
    config.learning_rate = w.learning_rate;
    config.eval_every = config.rounds;
    config.measure_gamma = true;  // log realized inexactness (Definition 2)
    config.seed = 3;
    config.solver = std::move(solver);
    return Trainer(*w.model, w.data, config).run();
  };

  const auto plain = run(nullptr);  // default: built-in SGD
  const auto momentum = run(std::make_shared<MomentumSgdSolver>(0.9));

  auto mean_gamma = [](const TrainHistory& h) {
    double total = 0.0;
    std::size_t count = 0;
    for (const auto& m : h.rounds) {
      if (m.mean_gamma) {
        total += *m.mean_gamma;
        ++count;
      }
    }
    return count ? total / static_cast<double>(count) : 0.0;
  };

  TablePrinter table({"local solver", "final loss", "final test accuracy",
                      "mean realized gamma"});
  table.add_row({"sgd (built-in)",
                 TablePrinter::fmt(*plain.final_metrics().train_loss),
                 TablePrinter::fmt(*plain.final_metrics().test_accuracy),
                 TablePrinter::fmt(mean_gamma(plain))});
  table.add_row({"momentum_sgd (user-defined)",
                 TablePrinter::fmt(*momentum.final_metrics().train_loss),
                 TablePrinter::fmt(*momentum.final_metrics().test_accuracy),
                 TablePrinter::fmt(mean_gamma(momentum))});
  std::cout << table.render()
            << "\nSmaller gamma = more exact local solves (Definition 2).\n"
               "Both solvers trained through the identical federated\n"
               "pipeline — swapping the local solver is the only change, and\n"
               "its realized inexactness is measured rather than assumed.\n";
  return 0;
} catch (const std::invalid_argument& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
