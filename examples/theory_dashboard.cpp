// Theory dashboard: measure, on a real federated problem, every quantity
// the FedProx analysis is stated in — B(w) (Definition 3), realized gamma
// (Definition 2), empirical smoothness constants — then evaluate
// Theorem 4's rho over a mu grid and report the smallest certified mu and
// Corollary 7's prescription.
//
//   ./theory_dashboard [--dataset synthetic_1_1] [--epochs 20]
//
// A bad --epochs value or an unknown dataset exits 1 with the reason.

#include <iostream>
#include <stdexcept>

#include "core/config.h"
#include "core/convergence.h"
#include "core/dissimilarity.h"
#include "core/registry.h"
#include "optim/inexactness.h"
#include "optim/sgd.h"
#include "support/cli.h"
#include "support/csv.h"

int main(int argc, char** argv) try {
  using namespace fed;
  CliFlags flags(argc, argv);
  const std::string dataset = flags.get_string("dataset", "synthetic_1_1");
  TrainerConfig config;  // only its E is read, through the --epochs flag
  read_config_flags(flags, config,
                    [](std::string_view flag) { return flag == "epochs"; });
  flags.warn_unused();
  const std::size_t epochs = config.systems.epochs;

  const Workload w = make_workload(dataset, /*seed=*/11);
  const Model& model = *w.model;

  Vector params(model.parameter_count());
  Rng init = make_stream(11, StreamKind::kModelInit);
  model.init_parameters(params, init);

  // 1. Dissimilarity B(w) over the federation (Definition 3).
  const auto dis = measure_dissimilarity(model, w.data, params, nullptr);

  // 2. Realized gamma for a typical local solve at this model (Def. 2):
  //    run the paper's local solver on a handful of devices and take the
  //    worst gamma (Corollary 9 uses gamma^t = max over the round).
  const double mu_probe = w.best_mu;
  SgdSolver solver;
  double worst_gamma = 0.0;
  const std::size_t probe_devices = std::min<std::size_t>(5, w.data.num_clients());
  for (std::size_t k = 0; k < probe_devices; ++k) {
    const Dataset& train = w.data.clients[k].train;
    if (train.empty()) continue;
    LocalProblem problem{&model, &train, params, mu_probe, {}};
    SolveBudget budget{
        .iterations = iterations_for_epochs(epochs, train.size(), w.batch_size),
        .batch_size = w.batch_size,
        .learning_rate = w.learning_rate};
    Rng rng = make_stream(11, StreamKind::kMinibatch, 0, k + 1);
    Vector local(params);
    solver.solve(problem, budget, rng, local);
    worst_gamma = std::max(worst_gamma, measure_gamma(problem, local));
  }

  // 3. Smoothness constants, estimated on a subset of devices.
  FederatedDataset subset;
  subset.clients.assign(w.data.clients.begin(),
                        w.data.clients.begin() + probe_devices);
  const auto smooth = estimate_federated_smoothness(model, subset, params,
                                                    /*probes=*/8,
                                                    /*step=*/1e-3, 11);

  std::cout << "dataset " << dataset << " (" << w.data.num_clients()
            << " devices)\n\n"
            << "measured at the initial model w0:\n"
            << "  B(w0)                 = " << TablePrinter::fmt(dis.b) << "\n"
            << "  grad variance         = " << TablePrinter::fmt(dis.variance)
            << "\n"
            << "  worst gamma (E=" << epochs << ", mu=" << mu_probe
            << ")   = " << TablePrinter::fmt(worst_gamma) << "\n"
            << "  L (estimated)         = " << TablePrinter::fmt(smooth.l)
            << "\n"
            << "  L_minus (estimated)   = " << TablePrinter::fmt(smooth.l_minus)
            << "\n\n";

  ConvergenceInputs in;
  in.gamma = worst_gamma;
  in.b = dis.b;
  in.k = 10.0;
  in.l = smooth.l;
  in.l_minus = smooth.l_minus;

  std::cout << "Remark 5 conditions (gamma*B < 1, B < sqrt(K)): "
            << (remark5_conditions(in.gamma, in.b, in.k) ? "satisfied"
                                                         : "NOT satisfied")
            << "\n\n";

  TablePrinter table({"mu", "Theorem 4 rho", "certifies decrease?"});
  for (double mu : {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0}) {
    if (mu <= in.l_minus) {
      table.add_row({TablePrinter::fmt(mu, 2), "-", "mu <= L_minus"});
      continue;
    }
    in.mu = mu;
    const double rho = theorem4_rho(in);
    table.add_row({TablePrinter::fmt(mu, 2), TablePrinter::fmt(rho, 6),
                   rho > 0 ? "yes" : "no"});
  }
  std::cout << table.render() << "\n";

  const double smallest = smallest_certified_mu(in);
  if (smallest > 0) {
    std::cout << "smallest certified mu  ~= " << TablePrinter::fmt(smallest, 3)
              << "\n";
  } else {
    std::cout << "no mu in range is certified by Theorem 4 for these "
                 "constants\n(the theorem is sufficient, not necessary — "
                 "practice converges far earlier)\n";
  }
  std::cout << "Corollary 7 mu (6 L B^2) = "
            << TablePrinter::fmt(corollary7_mu(in.l, in.b), 3) << "\n";
  return 0;
} catch (const std::invalid_argument& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
