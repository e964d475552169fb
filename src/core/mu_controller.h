// The proximal coefficient's policy (TrainerConfig::mu_policy), one
// controller for all three. Every policy starts from TrainerConfig::mu:
//
//   fixed     mu never moves (Algorithm 2).
//   adaptive  the paper's heuristic (Section 5.3.2, Figures 3 and 11):
//             +0.1 whenever the evaluated training loss rises, -0.1
//             after 5 consecutive decreases; mu never goes below zero.
//   theory    the paper's stated future work, mu "based, e.g., on the
//             theoretical groundwork provided here": Corollary 7 shows
//             convergence with mu ~ 6 L B^2, so the penalty follows the
//             measured dissimilarity B(w^t) (Definition 3),
//               mu_t = clamp(kCoefficient (B_ema^2 - 1), 0, kMaxMu),
//             where B_ema^2 is an exponential moving average (weight
//             kSmoothing on the previous estimate) of B^2. B = 1 (IID)
//             maps to mu = 0. The absolute scale (the paper's 6L) is
//             unknown without estimating L; kCoefficient is the one the
//             benches use.

#pragma once

#include <cstdint>

#include "core/trainer.h"

namespace fed {

class MuController {
 public:
  static constexpr double kStep = 0.1;
  static constexpr std::uint64_t kPatience = 5;
  static constexpr double kCoefficient = 0.05;
  static constexpr double kMaxMu = 10.0;
  static constexpr double kSmoothing = 0.5;

  // Throws std::invalid_argument unless mu is finite and >= 0.
  MuController(MuPolicy policy, double mu);

  // Feeds a finished round; returns the mu for the next one. adaptive
  // reads the loss of an evaluated round, theory a measured B (throwing
  // std::invalid_argument on a negative or non-finite one); any other
  // round, and every round under fixed, leaves mu as it is.
  double update(const RoundMetrics& round);

  double mu() const { return mu_; }

  // What update() remembers besides mu, for checkpointing (FPC1 holds mu
  // once, as CheckpointState::mu): restoring it into a controller built
  // from the same policy and mu makes later updates bit-identical to a
  // controller that never stopped.
  struct State {
    double last = 0.0;     // adaptive: the last loss; theory: B_ema^2
    bool has_last = false;
    std::uint64_t streak = 0;  // adaptive: consecutive loss decreases
  };
  const State& state() const { return state_; }
  void restore(const State& state) { state_ = state; }

 private:
  MuPolicy policy_;
  double mu_;
  State state_;
};

}  // namespace fed
