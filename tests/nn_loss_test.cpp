#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/sequence.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace fed {
namespace {

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  Vector logits(4, 0.0);
  EXPECT_NEAR(softmax_cross_entropy(logits, 2), std::log(4.0), 1e-12);
}

TEST(SoftmaxCrossEntropy, GradIsSoftmaxMinusOnehot) {
  Vector logits{1.0, 2.0, 0.5};
  Vector probs = logits;
  softmax_inplace(probs);
  Vector grad = logits;
  const double loss = softmax_cross_entropy_grad(grad, 1);
  EXPECT_NEAR(loss, softmax_cross_entropy(logits, 1), 1e-12);
  EXPECT_NEAR(grad[0], probs[0], 1e-12);
  EXPECT_NEAR(grad[1], probs[1] - 1.0, 1e-12);
  EXPECT_NEAR(grad[2], probs[2], 1e-12);
}

TEST(SoftmaxCrossEntropy, GradSumsToZero) {
  Vector grad{3.0, -1.0, 0.2, 7.0};
  softmax_cross_entropy_grad(grad, 3);
  EXPECT_NEAR(sum(grad), 0.0, 1e-12);
}

TEST(SoftmaxCrossEntropy, StableAtHugeLogits) {
  Vector logits{1000.0, -1000.0};
  const double loss_correct = softmax_cross_entropy(logits, 0);
  EXPECT_NEAR(loss_correct, 0.0, 1e-9);
  const double loss_wrong = softmax_cross_entropy(logits, 1);
  EXPECT_NEAR(loss_wrong, 2000.0, 1e-6);
  EXPECT_TRUE(std::isfinite(loss_wrong));
}

// Central-difference sanity of the loss gradient.
TEST(LossGradients, FiniteDifferenceAgreement) {
  const double eps = 1e-6;
  Vector base{0.4, -0.3, 1.1};
  for (std::size_t i = 0; i < base.size(); ++i) {
    Vector up = base, down = base;
    up[i] += eps;
    down[i] -= eps;
    const double numeric =
        (softmax_cross_entropy(up, 2) - softmax_cross_entropy(down, 2)) /
        (2 * eps);
    Vector grad = base;
    softmax_cross_entropy_grad(grad, 2);
    EXPECT_NEAR(grad[i], numeric, 1e-7);
  }
}

}  // namespace
}  // namespace fed
