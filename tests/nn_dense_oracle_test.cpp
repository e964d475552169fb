// The dense model's chunked, batched passes against the sample-by-sample
// code they replaced, kept here as the oracle: one gemv and one ger per
// sample. Loss, gradient and predictions must match bit for bit,
// including NaN and Inf features, which must propagate identically.

#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "nn/batch.h"
#include "nn/logistic.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace fed {
namespace {

// Per-sample logistic regression: logits = W x + b, one sample at a time.
class ReferenceLogistic {
 public:
  ReferenceLogistic(std::size_t dim, std::size_t classes)
      : dim_(dim), classes_(classes) {}

  double loss_and_grad(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const {
    zero(grad);
    MatrixView grad_w(grad.subspan(0, classes_ * dim_), classes_, dim_);
    auto grad_b = grad.subspan(classes_ * dim_, classes_);
    Vector logits(classes_);
    double total = 0.0;
    for (std::size_t idx : batch) {
      auto x = data.features.row(idx);
      logits_for(w, x, logits);
      total += softmax_cross_entropy_grad(logits, data.labels[idx]);
      ger(1.0, logits, x, grad_w);
      add(grad_b, logits, grad_b);
    }
    const double inv = 1.0 / static_cast<double>(batch.size());
    scale(grad, inv);
    return total * inv;
  }

  double evaluate(std::span<const double> w, const Dataset& data,
                  std::span<const std::size_t> batch,
                  std::vector<std::int32_t>& out) const {
    out.resize(batch.size());
    Vector logits(classes_);
    double total = 0.0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      logits_for(w, data.features.row(batch[i]), logits);
      total += softmax_cross_entropy(logits, data.labels[batch[i]]);
      out[i] = static_cast<std::int32_t>(argmax(logits));
    }
    return total / static_cast<double>(batch.size());
  }

 private:
  void logits_for(std::span<const double> w, std::span<const double> x,
                  std::span<double> logits) const {
    ConstMatrixView weight(w.subspan(0, classes_ * dim_), classes_, dim_);
    auto bias = w.subspan(classes_ * dim_, classes_);
    gemv(weight, x, logits);
    for (std::size_t c = 0; c < classes_; ++c) logits[c] += bias[c];
  }

  std::size_t dim_, classes_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

enum class Batch { kAscending, kShuffledWithRepeats, kNonFinite };

// Batch size, batch kind.
using OracleParam = std::tuple<std::size_t, Batch>;

class DenseOracleTest : public ::testing::TestWithParam<OracleParam> {};

void expect_bitwise(const LogisticRegression& model,
                    const ReferenceLogistic& oracle, Rng& gen,
                    const Dataset& data, std::span<const std::size_t> batch) {
  Vector w(model.parameter_count());
  model.init_parameters(w, gen);
  for (double& v : w) v += gen.normal(0.0, 0.3);  // off the zero init

  Vector grad(w.size(), 7.0), want_grad(w.size());
  const double loss = model.loss_and_grad(w, data, batch, grad);
  const double want_loss = oracle.loss_and_grad(w, data, batch, want_grad);
  EXPECT_EQ(bits(loss), bits(want_loss)) << loss << " vs " << want_loss;
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(bits(grad[i]), bits(want_grad[i]))
        << "gradient " << i << ": " << grad[i] << " vs " << want_grad[i];
  }

  std::vector<std::int32_t> want_pred;
  const double eval_loss = oracle.evaluate(w, data, batch, want_pred);
  EXPECT_EQ(bits(model.loss(w, data, batch)), bits(eval_loss));
  std::vector<std::int32_t> pred;
  model.predict(w, data, batch, pred);
  EXPECT_EQ(pred, want_pred);
  // The evaluation entry sees the batch as a client's whole splits.
  const ClientEval e =
      model.evaluation(w)->client(testing::client_of(data, batch));
  EXPECT_EQ(bits(e.train_loss_sum),
            bits(eval_loss * static_cast<double>(batch.size())));
  const std::size_t want_correct =
      testing::count_correct(data, batch, want_pred);
  EXPECT_EQ(e.train_correct, want_correct);
  EXPECT_EQ(e.test_correct, want_correct);
}

TEST_P(DenseOracleTest, BatchedPassIsBitwiseTheSampleBySampleOracle) {
  const auto [batch_size, kind] = GetParam();
  // Odd widths, so no gemm or ger_batch tile divides them evenly.
  constexpr std::size_t kDim = 7, kClasses = 5;
  Rng gen = make_stream(41, StreamKind::kTest, 0,
                        batch_size * 3 + static_cast<std::size_t>(kind));
  const std::size_t n = batch_size + 7;
  Dataset data = testing::make_random_dataset(n, kDim, kClasses, gen);

  std::vector<std::size_t> batch(batch_size);
  if (kind == Batch::kAscending) {
    batch = full_batch(batch_size);
  } else {
    // Unordered, with gaps and a repeated sample.
    for (auto& idx : batch) idx = gen.uniform_int(n);
    batch.front() = batch.back();
  }
  if (kind == Batch::kNonFinite) {
    const double inf = std::numeric_limits<double>::infinity();
    data.features(batch.front(), 2) = std::numeric_limits<double>::quiet_NaN();
    data.features(batch[batch_size / 2], 0) = inf;
    data.features(batch[batch_size - 1 - batch_size / 3], 6) = -inf;
  }

  expect_bitwise(LogisticRegression(kDim, kClasses),
                 ReferenceLogistic(kDim, kClasses), gen, data, batch);
}

// Batch sizes below, at, just above and several times the chunk size.
INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseOracleTest,
    ::testing::Combine(::testing::Values(1u, 10u, kChunkRows - 1, kChunkRows,
                                         kChunkRows + 1, 3 * kChunkRows + 5),
                       ::testing::Values(Batch::kAscending,
                                         Batch::kShuffledWithRepeats,
                                         Batch::kNonFinite)));

}  // namespace
}  // namespace fed
