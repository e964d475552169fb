#include "optim/gd.h"

#include "optim/prox_sgd.h"
#include "tensor/ops.h"

namespace fed {

void GdSolver::solve(const LocalProblem& problem, const SolveBudget& budget,
                     Rng& /*rng*/, std::span<double> w) const {
  const LocalObjective objective(problem);
  if (objective.num_samples() == 0) return;
  Vector grad(objective.dimension());
  for (std::size_t it = 0; it < budget.iterations; ++it) {
    objective.full_loss_and_grad(w, grad);
    axpy(-budget.learning_rate, grad, w);
  }
}

}  // namespace fed
