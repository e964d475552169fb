// Finite-difference gradient verification: the test suite's check of
// every model's analytic backward pass.

#pragma once

#include "nn/module.h"

namespace fed {

struct GradCheckResult {
  // max_i |analytic_i - numeric_i| / max(1, |analytic_i|, |numeric_i|)
  double max_relative_error = 0.0;
  std::size_t worst_index = 0;
  double analytic_at_worst = 0.0;
  double numeric_at_worst = 0.0;
  bool passed(double tolerance) const { return max_relative_error < tolerance; }
};

// Compares the model's analytic gradient against central finite
// differences at `w` over `batch`. `probes` limits how many coordinates
// are checked (spread evenly plus the largest-gradient ones); 0 = all.
GradCheckResult check_gradients(const Model& model, std::span<const double> w,
                                const Dataset& data,
                                std::span<const std::size_t> batch,
                                double step = 1e-5, std::size_t probes = 0);

}  // namespace fed
