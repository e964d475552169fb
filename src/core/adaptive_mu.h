// The paper's adaptive-mu heuristic (Section 5.3.2, Figures 3 and 11):
// increase mu by 0.1 whenever the global training loss increases, and
// decrease it by 0.1 after 5 consecutive decreases. mu never goes below
// zero.

#pragma once

#include <cstddef>

namespace fed {

class AdaptiveMu {
 public:
  static constexpr double kStep = 0.1;
  static constexpr std::size_t kPatience = 5;

  explicit AdaptiveMu(double initial_mu);

  // Feeds the loss observed after a round; returns the mu to use for the
  // next round.
  double update(double loss);

  double mu() const { return mu_; }

  // The mutable controller state, for checkpointing (core/checkpoint.h):
  // restoring a snapshot makes future update() calls bit-identical to a
  // controller that never stopped.
  struct State {
    double mu = 0.0;
    double last_loss = 0.0;
    bool has_last = false;
    std::size_t consecutive_decreases = 0;
  };
  State state() const {
    return {mu_, last_loss_, has_last_, consecutive_decreases_};
  }
  void restore(const State& s) {
    mu_ = s.mu;
    last_loss_ = s.last_loss;
    has_last_ = s.has_last;
    consecutive_decreases_ = s.consecutive_decreases;
  }

 private:
  double mu_;
  double last_loss_ = 0.0;
  bool has_last_ = false;
  std::size_t consecutive_decreases_ = 0;
};

// Theory-guided mu (the paper's stated future work, "based, e.g., on the
// theoretical groundwork provided here"): Corollary 7 shows convergence
// with mu ~ 6 L B^2, i.e. the penalty should scale with the measured
// dissimilarity. This controller sets
//   mu_t = clamp(kCoefficient * (B_ema^2 - 1), 0, kMaxMu)
// where B_ema^2 is an exponential moving average (weight kSmoothing on
// the previous estimate) of the measured B(w^t)^2 (Definition 3). B = 1
// (IID) maps to mu = 0; larger dissimilarity maps to a proportionally
// stronger proximal term. The absolute scale (the paper's 6L) is unknown
// without estimating L; kCoefficient is the one the benches use.
class DissimilarityMu {
 public:
  static constexpr double kCoefficient = 0.05;
  static constexpr double kMaxMu = 10.0;
  static constexpr double kSmoothing = 0.5;

  // Feeds a new measurement of B(w^t); returns the mu for the next round.
  double update(double measured_b);

  double mu() const { return mu_; }

  // Checkpoint snapshot of the mutable EMA state (see AdaptiveMu::State).
  struct State {
    double mu = 0.0;
    double b_sq_ema = 1.0;
    bool has_estimate = false;
  };
  State state() const { return {mu_, b_sq_ema_, has_estimate_}; }
  void restore(const State& s) {
    mu_ = s.mu;
    b_sq_ema_ = s.b_sq_ema;
    has_estimate_ = s.has_estimate;
  }

 private:
  double b_sq_ema_ = 1.0;
  bool has_estimate_ = false;
  double mu_ = 0.0;
};

}  // namespace fed
