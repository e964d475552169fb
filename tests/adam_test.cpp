// Tests for the Adam local solver.

#include <gtest/gtest.h>

#include "optim/adam.h"
#include "test_util.h"

namespace fed {
namespace {

using testing::QuadraticModel;
using testing::make_dense_dataset;

struct QuadSetup {
  QuadraticModel model{2};
  Dataset data = make_dense_dataset({{2.0, 2.0}, {4.0, 6.0}});
  Vector anchor{0.0, 0.0};
};

TEST(AdamSolverTest, ConvergesToLocalMinimizer) {
  QuadSetup q;
  LocalProblem problem{&q.model, &q.data, q.anchor, 0.0, {}};
  AdamSolver solver;
  SolveBudget budget{.iterations = 2000, .batch_size = 2,
                     .learning_rate = 0.05};
  Rng rng = make_stream(1, StreamKind::kTest);
  Vector w = q.anchor;
  solver.solve(problem, budget, rng, w);
  EXPECT_NEAR(w[0], 3.0, 1e-2);
  EXPECT_NEAR(w[1], 4.0, 1e-2);
}

TEST(AdamSolverTest, RespectsProximalTerm) {
  QuadSetup q;
  LocalProblem problem{&q.model, &q.data, q.anchor, /*mu=*/1.0, {}};
  AdamSolver solver;
  SolveBudget budget{.iterations = 3000, .batch_size = 2,
                     .learning_rate = 0.05};
  Rng rng = make_stream(2, StreamKind::kTest);
  Vector w = q.anchor;
  solver.solve(problem, budget, rng, w);
  // Prox minimizer: mean / (1 + mu) = (1.5, 2).
  EXPECT_NEAR(w[0], 1.5, 2e-2);
  EXPECT_NEAR(w[1], 2.0, 2e-2);
}

TEST(AdamSolverTest, ZeroBudgetIsNoOp) {
  QuadSetup q;
  LocalProblem problem{&q.model, &q.data, q.anchor, 0.0, {}};
  SolveBudget budget{.iterations = 0, .batch_size = 1, .learning_rate = 0.1};
  Rng rng = make_stream(3, StreamKind::kTest);
  Vector w{7.0, 7.0};
  AdamSolver().solve(problem, budget, rng, w);
  EXPECT_DOUBLE_EQ(w[0], 7.0);
}

TEST(AdamSolverTest, DeterministicGivenSameStream) {
  QuadSetup q;
  LocalProblem problem{&q.model, &q.data, q.anchor, 0.5, {}};
  SolveBudget budget{.iterations = 25, .batch_size = 1, .learning_rate = 0.05};
  Vector w1 = q.anchor, w2 = q.anchor;
  Rng rng1 = make_stream(4, StreamKind::kTest, 1);
  Rng rng2 = make_stream(4, StreamKind::kTest, 1);
  AdamSolver().solve(problem, budget, rng1, w1);
  AdamSolver().solve(problem, budget, rng2, w2);
  EXPECT_EQ(w1, w2);
}

}  // namespace
}  // namespace fed
