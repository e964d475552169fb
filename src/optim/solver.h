// Solver-agnostic local subproblem interface (paper Section 3.2).
//
// Each selected device k approximately minimizes
//   h_k(w; w^t) = F_k(w) + <correction, w> + (mu/2) ||w - w^t||^2
// where F_k is the empirical risk on the device's training data, `mu` is
// the FedProx proximal coefficient (0 recovers the FedAvg subproblem),
// and `correction` is the optional FedDane gradient-correction vector
// (empty for FedAvg/FedProx). Any LocalSolver can be plugged in; the
// framework only requires that it improves h_k starting from w^t — the
// quality of the solve is captured by gamma-inexactness (optim/inexactness.h).

#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/module.h"
#include "support/rng.h"

namespace fed {

struct LocalProblem {
  const Model* model = nullptr;
  const Dataset* data = nullptr;        // the device's training set
  std::span<const double> anchor;       // w^t (prox centre & start point)
  double mu = 0.0;                      // proximal coefficient
  std::span<const double> correction;   // FedDane linear term; may be empty
};

struct SolveBudget {
  // Total mini-batch iterations the device completes before the global
  // clock cycle ends. Systems heterogeneity shows up here: a straggler
  // gets fewer iterations than epochs * ceil(n_k / batch_size).
  std::size_t iterations = 0;
  std::size_t batch_size = 10;
  double learning_rate = 0.01;
};

// Iterations corresponding to `epochs` full passes over n samples.
std::size_t iterations_for_epochs(std::size_t epochs, std::size_t n,
                                  std::size_t batch_size);

// The mini-batch stream every solver draws: each pass over the n samples
// starts with one rng.shuffle of the sample order (the first on the first
// next()), then hands out consecutive batches of batch_size; a pass's
// last batch may be shorter. Drawing through this one type keeps solvers
// paired: the same rng calls in the same order, whatever the solver.
class Minibatches {
 public:
  Minibatches(std::size_t n, std::size_t batch_size, Rng& rng);

  std::span<const std::size_t> next();

 private:
  std::vector<std::size_t> order_;
  std::size_t batch_size_;
  Rng& rng_;
  std::size_t cursor_;  // == n: the next call starts a pass
};

class LocalSolver {
 public:
  virtual ~LocalSolver() = default;
  virtual std::string name() const = 0;

  // Improves w in place (w enters as a copy of problem.anchor). `rng` is
  // the device's (seed, round, device)-keyed mini-batch stream; solvers
  // must draw batch order exclusively from it so runs stay paired across
  // methods.
  virtual void solve(const LocalProblem& problem, const SolveBudget& budget,
                     Rng& rng, std::span<double> w) const = 0;
};

}  // namespace fed
