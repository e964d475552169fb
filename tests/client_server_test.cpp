#include <gtest/gtest.h>

#include <bit>

#include "core/registry.h"
#include "optim/sgd.h"
#include "sim/client.h"
#include "sim/server.h"
#include "test_util.h"

namespace fed {
namespace {

using testing::QuadraticModel;
using testing::make_dense_dataset;

ClientData quad_client() {
  ClientData c;
  c.train = make_dense_dataset({{2.0, 2.0}, {4.0, 6.0}});
  c.test = make_dense_dataset({{3.0, 4.0}});
  return c;
}

TEST(RunClient, UpdatesMoveTowardLocalMinimizer) {
  QuadraticModel model(2);
  const ClientData data = quad_client();
  Vector w_global{0.0, 0.0};
  SgdSolver solver;
  DeviceBudget budget{.device = 3, .straggler = false, .epochs = 10,
                      .iterations = 40};
  RoundConfig config{.mu = 0.0, .batch_size = 2, .learning_rate = 0.2,
                           .measure_gamma = false};
  Rng rng = make_stream(1, StreamKind::kMinibatch, 0, 3);
  const ClientResult result =
      run_client(model, data, w_global, solver, budget, config, {}, rng);
  EXPECT_EQ(result.device, 3u);
  EXPECT_EQ(result.num_samples, 2u);
  // Local minimizer is the feature mean (3, 4).
  EXPECT_NEAR(result.update[0], 3.0, 1e-3);
  EXPECT_NEAR(result.update[1], 4.0, 1e-3);
}

TEST(RunClient, ZeroBudgetReturnsAnchor) {
  QuadraticModel model(2);
  const ClientData data = quad_client();
  Vector w_global{5.0, -5.0};
  SgdSolver solver;
  DeviceBudget budget{.device = 0, .straggler = true, .epochs = 0,
                      .iterations = 0};
  RoundConfig config;
  Rng rng = make_stream(2, StreamKind::kMinibatch, 0, 0);
  const ClientResult result =
      run_client(model, data, w_global, solver, budget, config, {}, rng);
  EXPECT_EQ(result.update, (Vector{5.0, -5.0}));
  EXPECT_TRUE(result.straggler);
}

TEST(RunClient, GammaMeasuredWhenRequested) {
  QuadraticModel model(2);
  const ClientData data = quad_client();
  Vector w_global{0.0, 0.0};
  SgdSolver solver;
  DeviceBudget budget{.device = 0, .straggler = false, .epochs = 5,
                      .iterations = 30};
  RoundConfig config{.mu = 1.0, .batch_size = 2, .learning_rate = 0.2,
                           .measure_gamma = true};
  Rng rng = make_stream(3, StreamKind::kMinibatch, 0, 0);
  const ClientResult result =
      run_client(model, data, w_global, solver, budget, config, {}, rng);
  EXPECT_TRUE(result.gamma_measured);
  EXPECT_GE(result.gamma, 0.0);
  EXPECT_LT(result.gamma, 1.0);  // real progress was made
}

TEST(EvaluateGlobal, WeightsLossBySampleCount) {
  QuadraticModel model(1);
  FederatedDataset fed;
  fed.clients.resize(2);
  // Client 0: 1 sample at 0 -> F_0(w) = 0.5 w^2.
  fed.clients[0].train = make_dense_dataset({{0.0}});
  // Client 1: 3 samples at 2 -> F_1(w) = 0.5 (w-2)^2.
  fed.clients[1].train = make_dense_dataset({{2.0}, {2.0}, {2.0}});
  Vector w{1.0};
  const GlobalEval eval = evaluate_global(model, fed, w, nullptr);
  // f(1) = (1/4)(0.5) + (3/4)(0.5) = 0.5.
  EXPECT_NEAR(eval.train_loss, 0.5, 1e-12);
}

TEST(EvaluateGlobal, PoolsTestAccuracyOverDevices) {
  QuadraticModel model(1);  // its predict() always matches labels
  FederatedDataset fed;
  fed.clients.resize(2);
  fed.clients[0].train = make_dense_dataset({{0.0}});
  fed.clients[0].test = make_dense_dataset({{0.0}, {0.0}});
  fed.clients[1].train = make_dense_dataset({{1.0}});
  fed.clients[1].test = make_dense_dataset({{1.0}});
  Vector w{0.0};
  const GlobalEval eval = evaluate_global(model, fed, w, nullptr);
  EXPECT_DOUBLE_EQ(eval.test_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(eval.train_accuracy, 1.0);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(EvaluateGlobal, ParallelMatchesSerial) {
  QuadraticModel model(2);
  FederatedDataset fed;
  Rng gen = make_stream(9, StreamKind::kTest);
  fed.clients.resize(8);
  for (auto& c : fed.clients) {
    c.train = testing::make_random_dataset(20, 2, 2, gen);
    c.test = testing::make_random_dataset(5, 2, 2, gen);
  }
  Vector w{0.3, -0.7};
  ThreadPool pool(4);
  const GlobalEval serial = evaluate_global(model, fed, w, nullptr);
  const GlobalEval parallel = evaluate_global(model, fed, w, &pool);
  EXPECT_EQ(bits(serial.train_loss), bits(parallel.train_loss));
  EXPECT_EQ(bits(serial.train_accuracy), bits(parallel.train_accuracy));
  EXPECT_EQ(bits(serial.test_accuracy), bits(parallel.test_accuracy));
}

// Sample `i` of `data` alone.
Dataset one_sample(const Dataset& data, std::size_t i) {
  Dataset d;
  d.append_from(data, i);
  return d;
}

// A model's own evaluation() against the default one, reached through a
// forwarding wrapper that overrides loss() and predict() only (as a
// timing wrapper does): every client's terms, and every field of
// GlobalEval serial and on a 4-thread pool, must agree bit for bit. The
// per-client check is the sharp one: a client's loss sum absorbs a
// last-bit change of one logit less often than the federation's does.
void expect_default_evaluation_bitwise(const Model& model,
                                       const FederatedDataset& fed,
                                       std::uint64_t seed) {
  Vector w(model.parameter_count());
  Rng gen = make_stream(seed, StreamKind::kTest);
  model.init_parameters(w, gen);
  for (double& v : w) v += gen.normal(0.0, 0.3);  // off the init
  const testing::ConstantInitModel forwarding(model, 0.0);
  const auto own = model.evaluation(w);
  const auto fallback = forwarding.evaluation(w);
  for (std::size_t k = 0; k < fed.num_clients(); ++k) {
    const ClientEval got = own->client(fed.clients[k]);
    const ClientEval want = fallback->client(fed.clients[k]);
    EXPECT_EQ(bits(got.train_loss_sum), bits(want.train_loss_sum))
        << "client " << k;
    EXPECT_EQ(got.train_correct, want.train_correct) << "client " << k;
    EXPECT_EQ(got.test_correct, want.test_correct) << "client " << k;
  }
  ThreadPool pool(4);
  const GlobalEval want = evaluate_global(forwarding, fed, w, nullptr);
  EXPECT_GT(want.train_loss, 0.0);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const Model* m : {&model, static_cast<const Model*>(&forwarding)}) {
      const GlobalEval got = evaluate_global(*m, fed, w, p);
      EXPECT_EQ(bits(got.train_loss), bits(want.train_loss));
      EXPECT_EQ(bits(got.train_accuracy), bits(want.train_accuracy));
      EXPECT_EQ(bits(got.test_accuracy), bits(want.test_accuracy));
    }
  }
}

TEST(EvaluateGlobal, LogisticEvaluationIsBitwiseTheDefault) {
  Workload work = make_workload("synthetic_1_1", 3, 0.2);
  auto& clients = work.data.clients;
  ASSERT_GE(clients.size(), 4u);
  clients[0].train = Dataset{};  // no train split
  clients[1].test = Dataset{};   // no test split
  clients[2].train = one_sample(clients[2].train, 0);
  clients[2].test = one_sample(clients[2].test, 0);
  clients[3].train = one_sample(clients[3].train, 1);
  expect_default_evaluation_bitwise(*work.model, work.data, 5);
}

TEST(EvaluateGlobal, LstmEvaluationIsBitwiseTheDefault) {
  const Workload work = make_workload("shakespeare", 3, 0.1);
  expect_default_evaluation_bitwise(*work.model, work.data, 6);
}

}  // namespace
}  // namespace fed
