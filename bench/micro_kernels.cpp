// Kernel microbenchmarks (google-benchmark): the hot paths of the
// simulator — GEMV/GEMM, logistic and LSTM loss+gradient, one local SGD
// epoch, and one round's exact sharded reduction — so regressions in the
// substrate are visible in isolation.

#include <benchmark/benchmark.h>

#include "data/synthetic.h"
#include "nn/logistic.h"
#include "nn/lstm.h"
#include "optim/sgd.h"
#include "sim/sharded.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "tensor/ops.h"

namespace fed {
namespace {

void BM_Gemv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a(n, n);
  for (double& v : a.storage()) v = rng.normal();
  Vector x(n), y(n);
  for (double& v : x) v = rng.normal();
  for (auto _ : state) {
    gemv(ConstMatrixView(a.storage(), n, n), x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Gemv)->Arg(64)->Arg(256)->Arg(784);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Matrix a(n, n), b(n, n), c(n, n);
  for (double& v : a.storage()) v = rng.normal();
  for (double& v : b.storage()) v = rng.normal();
  for (auto _ : state) {
    gemm(ConstMatrixView(a.storage(), n, n), ConstMatrixView(b.storage(), n, n),
         MatrixView(c.storage(), n, n));
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(128);

void BM_LogisticLossGrad(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  LogisticRegression model(784, 10);
  Rng rng(3);
  Dataset data;
  data.features = Matrix(batch_size, 784);
  for (double& v : data.features.storage()) v = rng.normal();
  data.labels.resize(batch_size);
  for (auto& y : data.labels) {
    y = static_cast<std::int32_t>(rng.uniform_int(std::uint64_t{10}));
  }
  Vector w(model.parameter_count(), 0.01), grad(w.size());
  const auto batch = full_batch(batch_size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.loss_and_grad(w, data, batch, grad));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_LogisticLossGrad)->Arg(10)->Arg(64);

void BM_LstmLossGrad(benchmark::State& state) {
  const auto seq_len = static_cast<std::size_t>(state.range(0));
  LstmConfig config;
  config.vocab_size = 40;
  config.embed_dim = 8;
  config.hidden_dim = 24;
  config.num_layers = 2;
  config.num_classes = 40;
  LstmClassifier model(config);
  Rng rng(4);
  Dataset data;
  data.tokens.resize(10);
  data.labels.resize(10);
  for (std::size_t i = 0; i < 10; ++i) {
    data.tokens[i].resize(seq_len);
    for (auto& t : data.tokens[i]) {
      t = static_cast<std::int32_t>(rng.uniform_int(std::uint64_t{40}));
    }
    data.labels[i] = static_cast<std::int32_t>(rng.uniform_int(std::uint64_t{40}));
  }
  Vector w(model.parameter_count()), grad(w.size());
  model.init_parameters(w, rng);
  const auto batch = full_batch(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.loss_and_grad(w, data, batch, grad));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_LstmLossGrad)->Arg(12)->Arg(25);

void BM_LocalSgdEpoch(benchmark::State& state) {
  SyntheticConfig config = synthetic_config(1.0, 1.0, 5);
  config.num_devices = 1;
  config.min_samples = 200;
  config.sigma_log = 0.01;
  const FederatedDataset fed = make_synthetic(config);
  LogisticRegression model(fed.input_dim, fed.num_classes);
  Vector anchor(model.parameter_count(), 0.0);
  LocalProblem problem{&model, &fed.clients[0].train, anchor, 1.0, {}};
  const std::size_t iters =
      iterations_for_epochs(1, fed.clients[0].train.size(), 10);
  SolveBudget budget{.iterations = iters, .batch_size = 10,
                     .learning_rate = 0.01};
  SgdSolver solver;
  Vector w;
  for (auto _ : state) {
    Rng rng(6);
    w.assign(anchor.begin(), anchor.end());
    solver.solve(problem, budget, rng, w);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_LocalSgdEpoch);

// One round of exact sharded aggregation (sim/sharded.h): stage
// `updates` local models over `shards` shards, then reduce() — the
// column-wise folds (on a pool of `threads` workers; 0 folds on the
// calling thread), the FPS2 shard -> root round trip, the root merge and
// the single rounding into w.
//
// The last argument picks the updates. kNearBroadcast draws what local
// solutions look like: one shared model w ~ N(0, 1) plus 0.01 N(0, 1)
// per device, so each column is narrow. kIndependent draws every
// coordinate of every update as 0.1 N(0, 1): zero-centered columns whose
// terms span many binades, the case that leaves rests after the fold's
// two extraction levels.
enum ReduceData : std::int64_t { kIndependent = 0, kNearBroadcast = 1 };

void BM_ShardedReduce(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto updates = static_cast<std::size_t>(state.range(1));
  const auto shards = static_cast<std::size_t>(state.range(2));
  const auto threads = static_cast<std::size_t>(state.range(3));
  const bool near_broadcast = state.range(4) == kNearBroadcast;
  Rng rng(7);
  Vector shared(dim);
  if (near_broadcast) {
    for (double& v : shared) v = rng.normal();
  }
  std::vector<Vector> models(updates, Vector(dim));
  std::vector<double> samples(updates);
  for (std::size_t k = 0; k < updates; ++k) {
    for (std::size_t i = 0; i < dim; ++i) {
      models[k][i] = near_broadcast ? shared[i] + 0.01 * rng.normal()
                                    : 0.1 * rng.normal();
    }
    samples[k] = static_cast<double>(10 + rng.uniform_int(std::uint64_t{90}));
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  const std::vector<ShardSlice> slices = plan_shards(updates, shards);
  Vector w(dim);
  for (auto _ : state) {
    ShardedServer server(SamplingScheme::kUniformThenWeightedAverage, dim,
                         shards, pool.get());
    for (std::size_t s = 0; s < slices.size(); ++s) {
      for (std::size_t k = slices[s].begin; k < slices[s].end; ++k) {
        server.stage(s, {k, &models[k], samples[k]});
      }
    }
    benchmark::DoNotOptimize(server.reduce(1, w));
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * updates));
}
// wide_faulty's round (4020 parameters, 99 updates, 4 shards) and
// lstm_kernels' (4712 parameters, 10 updates, 1 shard), inline and on
// the 2-worker pool fedbench trains with, for both kinds of update.
BENCHMARK(BM_ShardedReduce)
    ->ArgsProduct({{4020}, {99}, {4}, {0, 2}, {kIndependent, kNearBroadcast}})
    ->ArgsProduct({{4712}, {10}, {1}, {0, 2}, {kIndependent, kNearBroadcast}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fed

BENCHMARK_MAIN();
