#include "sim/client.h"

#include "optim/inexactness.h"
#include "support/stopwatch.h"
#include "tensor/ops.h"

namespace fed {

ClientResult run_client(const Model& model, const ClientData& data,
                        std::span<const double> w_global,
                        const LocalSolver& solver, const DeviceBudget& budget,
                        const RoundConfig& config,
                        std::span<const double> correction,
                        Rng& minibatch_rng) {
  ClientResult result;
  result.device = budget.device;
  result.num_samples = data.train.size();
  result.straggler = budget.straggler;
  result.iterations = budget.iterations;

  LocalProblem problem{.model = &model,
                       .data = &data.train,
                       .anchor = w_global,
                       .mu = config.mu,
                       .correction = correction};
  SolveBudget solve_budget{.iterations = budget.iterations,
                           .batch_size = config.batch_size,
                           .learning_rate = config.learning_rate};

  result.update.assign(w_global.begin(), w_global.end());
  Stopwatch solve_timer;
  solver.solve(problem, solve_budget, minibatch_rng, result.update);
  result.solve_seconds = solve_timer.seconds();

  if (config.measure_gamma && !data.train.empty()) {
    result.gamma = measure_gamma(problem, result.update);
    result.gamma_measured = true;
  }
  return result;
}

}  // namespace fed
