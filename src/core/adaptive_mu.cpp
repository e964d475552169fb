#include "core/adaptive_mu.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fed {

AdaptiveMu::AdaptiveMu(double initial_mu) : mu_(initial_mu) {
  if (!(initial_mu >= 0.0 && std::isfinite(initial_mu))) {
    throw std::invalid_argument(
        "AdaptiveMu: initial mu must be finite and >= 0");
  }
}

double AdaptiveMu::update(double loss) {
  if (has_last_) {
    if (loss > last_loss_) {
      mu_ += kStep;
      consecutive_decreases_ = 0;
    } else if (loss < last_loss_) {
      if (++consecutive_decreases_ >= kPatience) {
        mu_ = std::max(0.0, mu_ - kStep);
        consecutive_decreases_ = 0;
      }
    } else {
      consecutive_decreases_ = 0;
    }
  }
  last_loss_ = loss;
  has_last_ = true;
  return mu_;
}

double DissimilarityMu::update(double measured_b) {
  if (measured_b < 0.0 || !std::isfinite(measured_b)) {
    throw std::invalid_argument("DissimilarityMu: bad B measurement");
  }
  const double b_sq = measured_b * measured_b;
  if (has_estimate_) {
    b_sq_ema_ = kSmoothing * b_sq_ema_ + (1.0 - kSmoothing) * b_sq;
  } else {
    b_sq_ema_ = b_sq;
    has_estimate_ = true;
  }
  mu_ = std::clamp(kCoefficient * (b_sq_ema_ - 1.0), 0.0, kMaxMu);
  return mu_;
}

}  // namespace fed
