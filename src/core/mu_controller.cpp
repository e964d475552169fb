#include "core/mu_controller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fed {

MuController::MuController(MuPolicy policy, double mu)
    : policy_(policy), mu_(mu) {
  if (!(mu >= 0.0 && std::isfinite(mu))) {
    throw std::invalid_argument("MuController: mu must be finite and >= 0");
  }
}

double MuController::update(const RoundMetrics& round) {
  if (policy_ == MuPolicy::kAdaptive && round.evaluated()) {
    const double loss = *round.train_loss;
    if (state_.has_last) {
      if (loss > state_.last) {
        mu_ += kStep;
        state_.streak = 0;
      } else if (loss < state_.last) {
        if (++state_.streak >= kPatience) {
          mu_ = std::max(0.0, mu_ - kStep);
          state_.streak = 0;
        }
      } else {
        state_.streak = 0;
      }
    }
    state_.last = loss;
    state_.has_last = true;
  } else if (policy_ == MuPolicy::kTheory && round.dissimilarity_b) {
    const double b = *round.dissimilarity_b;
    if (b < 0.0 || !std::isfinite(b)) {
      throw std::invalid_argument("MuController: bad B measurement");
    }
    const double b_sq = b * b;
    state_.last = state_.has_last
                      ? kSmoothing * state_.last + (1.0 - kSmoothing) * b_sq
                      : b_sq;
    state_.has_last = true;
    mu_ = std::clamp(kCoefficient * (state_.last - 1.0), 0.0, kMaxMu);
  }
  return mu_;
}

}  // namespace fed
