#include "optim/adam.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "optim/prox_sgd.h"
#include "tensor/ops.h"

namespace fed {

AdamSolver::AdamSolver(double beta1, double beta2, double epsilon)
    : beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {
  if (beta1 < 0.0 || beta1 >= 1.0 || beta2 < 0.0 || beta2 >= 1.0 ||
      epsilon <= 0.0) {
    throw std::invalid_argument("AdamSolver: bad hyper-parameters");
  }
}

void AdamSolver::solve(const LocalProblem& problem, const SolveBudget& budget,
                       Rng& rng, std::span<double> w) const {
  const LocalObjective objective(problem);
  const std::size_t n = objective.num_samples();
  if (n == 0 || budget.iterations == 0) return;

  const std::size_t d = objective.dimension();
  Vector grad(d), m(d, 0.0), v(d, 0.0);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  std::size_t cursor = n;
  double beta1_t = 1.0, beta2_t = 1.0;
  for (std::size_t it = 0; it < budget.iterations; ++it) {
    if (cursor >= n) {
      rng.shuffle(order);
      cursor = 0;
    }
    const std::size_t take = std::min(budget.batch_size, n - cursor);
    std::span<const std::size_t> batch(order.data() + cursor, take);
    cursor += take;

    objective.loss_and_grad(w, batch, grad);
    clip_gradient(grad, budget.clip_norm);
    beta1_t *= beta1_;
    beta2_t *= beta2_;
    for (std::size_t i = 0; i < d; ++i) {
      m[i] = beta1_ * m[i] + (1.0 - beta1_) * grad[i];
      v[i] = beta2_ * v[i] + (1.0 - beta2_) * grad[i] * grad[i];
      const double m_hat = m[i] / (1.0 - beta1_t);
      const double v_hat = v[i] / (1.0 - beta2_t);
      w[i] -= budget.learning_rate * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
  }
}

}  // namespace fed
