#include "nn/loss.h"

#include <algorithm>
#include <cassert>

#include "tensor/ops.h"
#include "tensor/vmath.h"

namespace fed {

double softmax_cross_entropy_grad(std::span<double> logits,
                                  std::int32_t label) {
  assert(label >= 0 && static_cast<std::size_t>(label) < logits.size());
  const auto y = static_cast<std::size_t>(label);
  const double m = *std::max_element(logits.begin(), logits.end());
  for (double& v : logits) v -= m;
  const double shifted_y = logits[y];
  vmath::exp(logits, logits);
  const double total = sum(logits);
  // logits <- softmax(logits) - onehot(label)
  for (double& v : logits) v /= total;
  logits[y] -= 1.0;
  return vmath::log(total) - shifted_y;
}

double softmax_cross_entropy(std::span<const double> logits,
                             std::int32_t label) {
  assert(label >= 0 && static_cast<std::size_t>(label) < logits.size());
  const double m = *std::max_element(logits.begin(), logits.end());
  return vmath::log(sum_exp(logits, m)) -
         (logits[static_cast<std::size_t>(label)] - m);
}

}  // namespace fed
