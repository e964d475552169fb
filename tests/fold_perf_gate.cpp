// Speed gate for ColumnFold's extraction fold (sim/aggregate.h).
//
// Folds one wide_faulty-sized shard batch — 25 updates of 4020
// coordinates, each a shared model plus 0.01 N(0,1) deltas, weighted by
// sample counts 10..99 — through ColumnFold, and the same values through
// a per-addend ExactSum::add loop, alternately in this one process. The
// fold must take at most kMaxRatio of the loop's time (min of kReps runs
// each), and write the same bytes. Host speed cancels out of the ratio;
// a reverted fast path reads about 1.0.
//
//   fold_perf_gate        # exit 0 when the gate holds

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "sim/aggregate.h"

namespace {

constexpr std::size_t kDim = 4020;
constexpr std::size_t kUpdates = 25;
constexpr int kReps = 40;
constexpr double kMaxRatio = 0.6;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  using fed::Contribution;
  using fed::ExactSum;
  std::mt19937_64 rng(24);
  std::normal_distribution<double> normal;
  fed::Vector w(kDim);
  for (double& v : w) v = normal(rng);
  std::vector<fed::Vector> updates(kUpdates, fed::Vector(kDim));
  std::vector<Contribution> batch;
  for (std::size_t k = 0; k < kUpdates; ++k) {
    for (std::size_t i = 0; i < kDim; ++i) {
      updates[k][i] = w[i] + 0.01 * normal(rng);
    }
    batch.push_back({k, &updates[k], static_cast<double>(10 + rng() % 90)});
  }

  std::vector<std::uint8_t> folded;
  std::vector<std::uint8_t> looped(kDim * ExactSum::kMaxRegisterBytes);
  std::size_t looped_bytes = 0;
  double best_fold = 1e300;
  double best_loop = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    fed::PartialAggregate partial(
        fed::SamplingScheme::kUniformThenWeightedAverage, kDim);
    fed::ColumnFold fold(partial, batch, 0);
    fold.run(0);
    fold.commit();
    best_fold = std::min(best_fold, seconds_since(start));
    const auto registers = partial.coordinate_registers();
    folded.assign(registers.begin(), registers.end());

    start = std::chrono::steady_clock::now();
    ExactSum sum;
    looped_bytes = 0;
    for (std::size_t i = 0; i < kDim; ++i) {
      sum.clear();
      for (const Contribution& c : batch) {
        sum.add(c.num_samples * (*c.update)[i]);
      }
      looped_bytes += sum.write_register(looped.data() + looped_bytes);
    }
    best_loop = std::min(best_loop, seconds_since(start));
  }

  const double ratio = best_fold / best_loop;
  std::printf(
      "ColumnFold %.3f ms, per-addend ExactSum::add %.3f ms (min of %d, "
      "%zu x %zu): ratio %.2f, gate %.2f\n",
      best_fold * 1e3, best_loop * 1e3, kReps, kDim, kUpdates, ratio,
      kMaxRatio);
  if (folded.size() != looped_bytes ||
      std::memcmp(folded.data(), looped.data(), looped_bytes) != 0) {
    std::printf("FAIL: the registers differ from the per-addend fold\n");
    return 1;
  }
  if (ratio > kMaxRatio) {
    std::printf("FAIL: ratio %.2f is above %.2f\n", ratio, kMaxRatio);
    return 1;
  }
  return 0;
}
