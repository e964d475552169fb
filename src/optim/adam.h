// Adam on the proximal local objective — a third drop-in LocalSolver
// demonstrating (and stress-testing) the framework's solver-agnosticism.
// In deployed federated systems adaptive local optimizers are common; the
// FedProx analysis only cares about the gamma-inexactness of the returned
// solution, which optim/inexactness.h measures for any solver.

#pragma once

#include "optim/solver.h"

namespace fed {

// Kingma & Ba's default hyper-parameters.
class AdamSolver final : public LocalSolver {
 public:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEpsilon = 1e-8;

  std::string name() const override { return "adam"; }

  void solve(const LocalProblem& problem, const SolveBudget& budget, Rng& rng,
             std::span<double> w) const override;
};

}  // namespace fed
