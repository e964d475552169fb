// Dataset containers for federated simulation.
//
// A Dataset holds either dense feature rows (tabular / image-like tasks)
// or integer token sequences (text tasks), plus integer labels. A
// FederatedDataset is the unit the simulator consumes: one ClientData per
// device, each with a local train/test split (the paper splits 80/20 on
// each device, Appendix C.2).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/rng.h"
#include "tensor/tensor.h"

namespace fed {

struct Dataset {
  // Dense tasks: one sample per row. Empty for sequence tasks.
  Matrix features;
  // Sequence tasks: one token sequence per sample. Empty for dense tasks.
  std::vector<std::vector<std::int32_t>> tokens;
  // Class label per sample (for next-char tasks, the character following
  // the sequence).
  std::vector<std::int32_t> labels;

  std::size_t size() const { return labels.size(); }
  bool empty() const { return labels.empty(); }
  bool is_sequence() const { return !tokens.empty(); }

  // Appends sample i of `src` to this dataset. Shapes must agree.
  void append_from(const Dataset& src, std::size_t i);
  // Pre-sizes the dense feature matrix (dense tasks only).
  void reserve_dense(std::size_t n, std::size_t dim);

  // Validates internal consistency (sizes agree, labels in range when
  // num_classes > 0). Throws std::runtime_error on violation.
  void validate(std::size_t num_classes = 0) const;
};

struct ClientData {
  Dataset train;
  Dataset test;
};

struct FederatedDataset {
  std::string name;
  std::size_t num_classes = 0;
  // Dense input dimension (0 for sequence tasks).
  std::size_t input_dim = 0;
  // Vocabulary size (0 for dense tasks).
  std::size_t vocab_size = 0;
  std::vector<ClientData> clients;

  std::size_t num_clients() const { return clients.size(); }
  std::size_t total_train_samples() const;

  // pk weights from Equation (1): n_k / n over training samples.
  std::vector<double> client_weights() const;
};

// Splits `all` into train/test with the given train fraction, shuffling
// sample order with `rng`. Every sample lands in exactly one side; with
// 0 < fraction < 1 and >= 2 samples, both sides are non-empty.
ClientData train_test_split(const Dataset& all, double train_fraction,
                            Rng& rng);

// Draws `n` sample counts following the power-law-style scheme used by
// the paper's synthetic data: lognormal sizes with a minimum floor.
// Produces heavy-tailed counts summing to >= n * min_samples.
std::vector<std::size_t> power_law_sample_counts(std::size_t n,
                                                 std::size_t min_samples,
                                                 double mean_log,
                                                 double sigma_log, Rng& rng);

}  // namespace fed
