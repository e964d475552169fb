#include "sim/systems.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "optim/solver.h"

namespace fed {

std::vector<std::size_t> longest_first(std::span<const DeviceBudget> budgets) {
  std::vector<std::size_t> order(budgets.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return budgets[a].iterations > budgets[b].iterations;
                   });
  return order;
}

std::size_t straggler_count(double fraction, std::size_t k) {
  if (!(fraction >= 0.0 && fraction <= 1.0)) {  // NaN fails too
    throw std::invalid_argument("straggler fraction must be in [0,1]");
  }
  return static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(k)));
}

std::vector<DeviceBudget> assign_budgets(
    const SystemsConfig& config, std::uint64_t seed, std::uint64_t round,
    std::span<const std::size_t> selected,
    std::span<const std::size_t> train_sizes, std::size_t batch_size) {
  if (selected.size() != train_sizes.size()) {
    throw std::invalid_argument("assign_budgets: size mismatch");
  }
  if (config.epochs == 0) {
    throw std::invalid_argument("assign_budgets: epochs must be > 0");
  }
  const std::size_t k = selected.size();
  std::vector<DeviceBudget> budgets(k);

  // Which positions straggle this round: depends only on (seed, round).
  Rng pick = make_stream(seed, StreamKind::kStraggler, round);
  const std::size_t n_strag = straggler_count(config.straggler_fraction, k);
  std::vector<bool> is_straggler(k, false);
  for (std::size_t pos : pick.sample_without_replacement(k, n_strag)) {
    is_straggler[pos] = true;
  }

  for (std::size_t i = 0; i < k; ++i) {
    DeviceBudget& b = budgets[i];
    b.device = selected[i];
    b.straggler = is_straggler[i];
    const std::size_t per_epoch =
        iterations_for_epochs(1, train_sizes[i], batch_size);
    if (!b.straggler) {
      b.epochs = config.epochs;
      b.iterations = config.epochs * per_epoch;
      continue;
    }
    // Straggler workload depends only on (seed, round, device).
    Rng work = make_stream(seed, StreamKind::kStraggler, round,
                           selected[i] + 1);
    if (config.epochs > 1) {
      b.epochs = static_cast<std::size_t>(
          work.uniform_int(1, static_cast<std::int64_t>(config.epochs)));
      b.iterations = b.epochs * per_epoch;
    } else {
      // E = 1: a uniformly drawn partial epoch (Figure 9 setting).
      b.epochs = 1;
      b.iterations = static_cast<std::size_t>(
          work.uniform_int(1, static_cast<std::int64_t>(per_epoch)));
    }
  }
  return budgets;
}

}  // namespace fed
