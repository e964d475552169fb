#include "optim/adam.h"

#include <cmath>

#include "optim/prox_sgd.h"
#include "tensor/ops.h"

namespace fed {

void AdamSolver::solve(const LocalProblem& problem, const SolveBudget& budget,
                       Rng& rng, std::span<double> w) const {
  const LocalObjective objective(problem);
  const std::size_t n = objective.num_samples();
  if (n == 0 || budget.iterations == 0) return;

  const std::size_t d = objective.dimension();
  Vector grad(d), m(d, 0.0), v(d, 0.0);
  Minibatches batches(n, budget.batch_size, rng);
  double beta1_t = 1.0, beta2_t = 1.0;
  for (std::size_t it = 0; it < budget.iterations; ++it) {
    objective.loss_and_grad(w, batches.next(), grad);
    beta1_t *= kBeta1;
    beta2_t *= kBeta2;
    for (std::size_t i = 0; i < d; ++i) {
      m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * grad[i];
      v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * grad[i] * grad[i];
      const double m_hat = m[i] / (1.0 - beta1_t);
      const double v_hat = v[i] / (1.0 - beta2_t);
      w[i] -= budget.learning_rate * m_hat / (std::sqrt(v_hat) + kEpsilon);
    }
  }
}

}  // namespace fed
