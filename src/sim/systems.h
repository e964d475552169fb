// Systems-heterogeneity model (paper Section 5.2).
//
// Each round has a fixed global clock cycle. A configured fraction of the
// selected devices are "stragglers": they only complete x epochs of local
// work, x drawn uniformly from {1, .., E} (for E = 1, a uniformly drawn
// partial epoch measured in mini-batch iterations — the Figure 9 setting).
// Non-stragglers complete the full E epochs. FedAvg drops stragglers at
// aggregation; FedProx incorporates their partial solutions.
//
// Straggler identity and workloads depend only on (seed, round, device),
// never on the algorithm, so compared methods face identical conditions —
// the paper's paired-run protocol.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.h"

namespace fed {

struct SystemsConfig {
  double straggler_fraction = 0.0;  // 0.0, 0.5, 0.9 in the paper
  std::size_t epochs = 20;          // E, the full workload per round
};

struct DeviceBudget {
  std::size_t device = 0;
  bool straggler = false;
  // Epochs completed (== config.epochs for non-stragglers; for E == 1
  // stragglers this stays 1 and `iterations` carries the partial epoch).
  std::size_t epochs = 0;
  // Mini-batch iterations completed within the clock cycle.
  std::size_t iterations = 0;
};

// Computes per-device budgets for one round. `train_sizes[i]` is the
// number of training samples on selected device `selected[i]`.
std::vector<DeviceBudget> assign_budgets(const SystemsConfig& config,
                                         std::uint64_t seed,
                                         std::uint64_t round,
                                         std::span<const std::size_t> selected,
                                         std::span<const std::size_t> train_sizes,
                                         std::size_t batch_size);

// The order to run a round's devices in: indices into `budgets`, most
// iterations first, ties in index order. A round waits on its longest
// solve, so starting the long ones first keeps the pool's tail short.
// Each device's result does not depend on when it runs.
std::vector<std::size_t> longest_first(std::span<const DeviceBudget> budgets);

// Number of stragglers for a selection of size k (paper assigns the exact
// fraction, rounded to nearest).
std::size_t straggler_count(double fraction, std::size_t k);

}  // namespace fed
