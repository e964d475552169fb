#include "optim/sgd.h"

#include "optim/prox_sgd.h"
#include "tensor/ops.h"

namespace fed {

void SgdSolver::solve(const LocalProblem& problem, const SolveBudget& budget,
                      Rng& rng, std::span<double> w) const {
  const LocalObjective objective(problem);
  const std::size_t n = objective.num_samples();
  if (n == 0 || budget.iterations == 0) return;

  Vector grad(objective.dimension());
  Minibatches batches(n, budget.batch_size, rng);
  for (std::size_t it = 0; it < budget.iterations; ++it) {
    objective.loss_and_grad(w, batches.next(), grad);
    axpy(-budget.learning_rate, grad, w);
  }
}

}  // namespace fed
