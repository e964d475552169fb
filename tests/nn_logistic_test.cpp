#include "nn/logistic.h"

#include <gtest/gtest.h>

#include "grad_check.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace fed {
namespace {

TEST(LogisticRegressionModel, ParameterCount) {
  LogisticRegression model(60, 10);
  EXPECT_EQ(model.parameter_count(), 60u * 10u + 10u);
}

TEST(LogisticRegressionModel, ZeroInitGivesUniformPredictions) {
  LogisticRegression model(4, 3);
  Vector w(model.parameter_count());
  Rng rng = make_stream(1, StreamKind::kTest);
  model.init_parameters(w, rng);
  Rng gen = make_stream(2, StreamKind::kTest);
  Dataset data = testing::make_random_dataset(5, 4, 3, gen);
  EXPECT_NEAR(model.dataset_loss(w, data), std::log(3.0), 1e-12);
}

class LogisticGradCheck
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>> {};

TEST_P(LogisticGradCheck, AnalyticMatchesNumeric) {
  const auto [dim, classes, batch_n] = GetParam();
  LogisticRegression model(dim, classes);
  Rng gen = make_stream(3, StreamKind::kTest, dim, classes);
  Dataset data = testing::make_random_dataset(batch_n, dim, classes, gen);
  Vector w(model.parameter_count());
  for (auto& v : w) v = gen.normal(0.0, 0.5);
  const auto batch = full_batch(batch_n);
  const auto result = check_gradients(model, w, data, batch);
  EXPECT_TRUE(result.passed(1e-6))
      << "worst index " << result.worst_index << ": analytic "
      << result.analytic_at_worst << " vs numeric "
      << result.numeric_at_worst;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LogisticGradCheck,
    ::testing::Values(std::make_tuple(3, 2, 1), std::make_tuple(5, 4, 7),
                      std::make_tuple(10, 3, 16), std::make_tuple(1, 2, 4)));

TEST(LogisticRegressionModel, GradientDescentReducesLoss) {
  LogisticRegression model(6, 3);
  Rng gen = make_stream(4, StreamKind::kTest);
  Dataset data = testing::make_random_dataset(40, 6, 3, gen);
  Vector w(model.parameter_count(), 0.0), grad(w.size());
  const double initial = model.dataset_loss(w, data);
  for (int step = 0; step < 50; ++step) {
    model.dataset_loss_and_grad(w, data, grad);
    axpy(-0.5, grad, w);
  }
  EXPECT_LT(model.dataset_loss(w, data), initial - 0.05);
}

TEST(LogisticRegressionModel, PredictArgmaxOfLogits) {
  LogisticRegression model(2, 2);
  // W = [[1,0],[0,1]], b = 0: predicts argmax(x).
  Vector w{1.0, 0.0, 0.0, 1.0, 0.0, 0.0};
  Dataset data = testing::make_dense_dataset({{2.0, 1.0}, {0.0, 3.0}});
  data.labels = {0, 1};
  std::vector<std::int32_t> pred;
  const auto batch = full_batch(2);
  model.predict(w, data, batch, pred);
  EXPECT_EQ(pred[0], 0);
  EXPECT_EQ(pred[1], 1);
  EXPECT_DOUBLE_EQ(model.accuracy(w, data), 1.0);
}

TEST(LogisticRegressionModel, LossAndLossGradAgree) {
  LogisticRegression model(5, 4);
  Rng gen = make_stream(5, StreamKind::kTest);
  Dataset data = testing::make_random_dataset(9, 5, 4, gen);
  Vector w(model.parameter_count());
  for (auto& v : w) v = gen.normal();
  Vector grad(w.size());
  const auto batch = full_batch(9);
  EXPECT_NEAR(model.loss(w, data, batch),
              model.loss_and_grad(w, data, batch, grad), 1e-12);
}

TEST(LogisticRegressionModel, RejectsBadShapes) {
  EXPECT_THROW(LogisticRegression(0, 3), std::invalid_argument);
  EXPECT_THROW(LogisticRegression(5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace fed
