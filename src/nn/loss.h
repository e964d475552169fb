// Softmax cross-entropy, the loss every model classifies with, returning
// the loss and, for training, the gradient w.r.t. the logits.
//
// With m = max(v) and e_c = vmath::exp(v_c - m), one exp per class:
//   loss = vmath::log(sum(e)) - (v_y - m)
//   grad = e / sum(e) - onehot(y)
// sum(e) runs in class order from 0.0 (tensor/ops.h sum_exp), so the
// loss-only and gradient calls return the same loss bits.

#pragma once

#include <cstdint>
#include <span>

namespace fed {

// Computes softmax cross-entropy of `logits` against class `label`.
// On return, `logits` is overwritten with dLoss/dLogits = softmax - onehot.
// Returns the loss value.
double softmax_cross_entropy_grad(std::span<double> logits,
                                  std::int32_t label);

// Loss only (logits preserved).
double softmax_cross_entropy(std::span<const double> logits,
                             std::int32_t label);

}  // namespace fed
