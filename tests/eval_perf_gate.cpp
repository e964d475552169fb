// Speed gate for global evaluation's sample-major dense pass
// (sim/server.h, nn/logistic.h).
//
// Builds one wide_faulty-sized federation: 2000 clients, each 10 plus a
// lognormal(2, 1) draw of samples (a fifth of them held out as the test
// split), under a 200 -> 20 logistic model. It times single-thread
// evaluate_global in ns per multiply-add, and divides that by the ns per
// multiply-add of a full-tile gemm(64 x 200, 200 x 20) timed alternately
// in this one process (min of kReps runs each). Host speed cancels out
// of the ratio. Evaluating each split as gemm(X, W^T) reads about 1.7
// (GCC 12.2 Release, AVX2 variant); the per-split gemm(W, X^T) layout,
// whose few samples per client fall into gemm's column tails, reads
// about 2.7.
//
//   eval_perf_gate        # exit 0 when the gate holds

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>

#include "nn/logistic.h"
#include "sim/server.h"
#include "tensor/ops.h"

namespace {

constexpr std::size_t kClients = 2000;
constexpr std::size_t kDim = 200;
constexpr std::size_t kClasses = 20;
constexpr std::size_t kTileRows = 64;
constexpr int kReps = 12;
constexpr int kTilesPerRep = 2000;
constexpr double kMaxRatio = 2.2;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

fed::Dataset random_split(std::size_t n, std::mt19937_64& rng) {
  std::normal_distribution<double> normal;
  fed::Dataset d;
  d.features = fed::Matrix(n, kDim);
  for (double& v : d.features.storage()) v = normal(rng);
  d.labels.resize(n);
  for (auto& y : d.labels) y = static_cast<std::int32_t>(rng() % kClasses);
  return d;
}

}  // namespace

int main() {
  std::mt19937_64 rng(34);
  std::normal_distribution<double> normal;
  std::lognormal_distribution<double> lognormal(2.0, 1.0);
  fed::FederatedDataset data;
  data.clients.resize(kClients);
  std::size_t samples = 0;
  for (fed::ClientData& c : data.clients) {
    const auto n = 10 + static_cast<std::size_t>(lognormal(rng));
    c.train = random_split(n - n / 5, rng);
    c.test = random_split(n / 5, rng);
    samples += n;
  }
  const fed::LogisticRegression model(kDim, kClasses);
  fed::Vector w(model.parameter_count());
  for (double& v : w) v = 0.1 * normal(rng);

  fed::Matrix x(kTileRows, kDim), w_t(kDim, kClasses), z(kTileRows, kClasses);
  for (double& v : x.storage()) v = normal(rng);
  for (double& v : w_t.storage()) v = normal(rng);

  double best_eval = 1e300, best_tile = 1e300;
  double checksum = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    const fed::GlobalEval eval = fed::evaluate_global(model, data, w, nullptr);
    best_eval = std::min(best_eval, seconds_since(start));
    checksum += eval.train_loss;

    start = std::chrono::steady_clock::now();
    for (int t = 0; t < kTilesPerRep; ++t) fed::gemm(x, w_t, z);
    best_tile = std::min(best_tile, seconds_since(start));
    checksum += z(0, 0);
  }

  const double eval_macs = static_cast<double>(samples * kDim * kClasses);
  const double tile_macs =
      static_cast<double>(kTilesPerRep * kTileRows * kDim * kClasses);
  const double eval_ns = best_eval / eval_macs * 1e9;
  const double tile_ns = best_tile / tile_macs * 1e9;
  const double ratio = eval_ns / tile_ns;
  std::printf(
      "global evaluation: %zu clients, %zu samples, %.1f ms (%.3f ns/MAC); "
      "gemm 64x200.200x20 %.3f ns/MAC (min of %d): ratio %.2f, gate %.2f\n",
      kClients, samples, best_eval * 1e3, eval_ns, tile_ns, kReps, ratio,
      kMaxRatio);
  if (!std::isfinite(checksum)) {
    std::printf("FAIL: non-finite evaluation\n");
    return 1;
  }
  if (ratio > kMaxRatio) {
    std::printf("FAIL: ratio %.2f is above %.2f\n", ratio, kMaxRatio);
    return 1;
  }
  return 0;
}
