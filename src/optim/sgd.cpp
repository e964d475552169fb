#include "optim/sgd.h"

#include <numeric>

#include "optim/prox_sgd.h"
#include "tensor/ops.h"

namespace fed {

void SgdSolver::solve(const LocalProblem& problem, const SolveBudget& budget,
                      Rng& rng, std::span<double> w) const {
  const LocalObjective objective(problem);
  const std::size_t n = objective.num_samples();
  if (n == 0 || budget.iterations == 0) return;

  Vector grad(objective.dimension());
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  std::size_t cursor = n;  // forces a shuffle on the first iteration
  for (std::size_t it = 0; it < budget.iterations; ++it) {
    if (cursor >= n) {
      rng.shuffle(order);
      cursor = 0;
    }
    const std::size_t take = std::min(budget.batch_size, n - cursor);
    std::span<const std::size_t> batch(order.data() + cursor, take);
    cursor += take;
    objective.loss_and_grad(w, batch, grad);
    axpy(-budget.learning_rate, grad, w);
  }
}

}  // namespace fed
