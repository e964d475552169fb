#include "grad_check.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "tensor/ops.h"

namespace fed {

GradCheckResult check_gradients(const Model& model, std::span<const double> w,
                                const Dataset& data,
                                std::span<const std::size_t> batch,
                                double step, std::size_t probes) {
  const std::size_t d = model.parameter_count();
  Vector analytic(d);
  model.loss_and_grad(w, data, batch, analytic);

  // Choose coordinates to probe.
  std::set<std::size_t> coords;
  if (probes == 0 || probes >= d) {
    for (std::size_t i = 0; i < d; ++i) coords.insert(i);
  } else {
    // Half spread evenly, half at the largest analytic-gradient entries
    // (where errors are most visible).
    for (std::size_t i = 0; i < probes / 2; ++i) {
      coords.insert(i * d / std::max<std::size_t>(1, probes / 2));
    }
    std::vector<std::size_t> order(d);
    for (std::size_t i = 0; i < d; ++i) order[i] = i;
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<long>(
                                          std::min<std::size_t>(probes, d)),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        return std::abs(analytic[a]) > std::abs(analytic[b]);
                      });
    for (std::size_t i = 0; i < std::min<std::size_t>(probes - probes / 2, d);
         ++i) {
      coords.insert(order[i]);
    }
  }

  Vector w_mut(w.begin(), w.end());
  GradCheckResult result;
  for (std::size_t i : coords) {
    const double orig = w_mut[i];
    w_mut[i] = orig + step;
    const double up = model.loss(w_mut, data, batch);
    w_mut[i] = orig - step;
    const double down = model.loss(w_mut, data, batch);
    w_mut[i] = orig;
    const double numeric = (up - down) / (2.0 * step);
    const double denom =
        std::max({1.0, std::abs(analytic[i]), std::abs(numeric)});
    const double rel = std::abs(analytic[i] - numeric) / denom;
    if (rel > result.max_relative_error) {
      result.max_relative_error = rel;
      result.worst_index = i;
      result.analytic_at_worst = analytic[i];
      result.numeric_at_worst = numeric;
    }
  }
  return result;
}

}  // namespace fed
