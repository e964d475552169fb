#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "tensor/ops.h"

namespace fed {

void Dataset::reserve_dense(std::size_t n, std::size_t dim) {
  features = Matrix(0, dim);
  features.storage().reserve(n * dim);
  labels.reserve(n);
}

void Dataset::append_from(const Dataset& src, std::size_t i) {
  if (i >= src.size()) throw std::out_of_range("append_from: bad index");
  if (src.is_sequence()) {
    tokens.push_back(src.tokens[i]);
  } else {
    if (features.cols() != 0 && features.cols() != src.features.cols()) {
      throw std::invalid_argument("append_from: feature width mismatch");
    }
    const std::size_t dim = src.features.cols();
    Vector& buf = features.storage();
    auto row = src.features.row(i);
    buf.insert(buf.end(), row.begin(), row.end());
    features = Matrix(features.rows() + 1, dim, std::move(buf));
  }
  labels.push_back(src.labels[i]);
}

void Dataset::validate(std::size_t num_classes) const {
  if (is_sequence()) {
    if (tokens.size() != labels.size()) {
      throw std::runtime_error("dataset: tokens/labels size mismatch");
    }
    if (features.rows() != 0) {
      throw std::runtime_error("dataset: both dense and sequence data set");
    }
  } else {
    if (features.rows() != labels.size()) {
      throw std::runtime_error("dataset: features/labels size mismatch");
    }
    if (!all_finite(features.storage())) {
      throw std::runtime_error("dataset: non-finite feature values");
    }
  }
  if (num_classes > 0) {
    for (auto y : labels) {
      if (y < 0 || static_cast<std::size_t>(y) >= num_classes) {
        throw std::runtime_error("dataset: label out of range");
      }
    }
  }
}

std::size_t FederatedDataset::total_train_samples() const {
  std::size_t total = 0;
  for (const auto& c : clients) total += c.train.size();
  return total;
}

std::vector<double> FederatedDataset::client_weights() const {
  const double n = static_cast<double>(total_train_samples());
  std::vector<double> p(clients.size());
  for (std::size_t k = 0; k < clients.size(); ++k) {
    p[k] = static_cast<double>(clients[k].train.size()) / n;
  }
  return p;
}

ClientData train_test_split(const Dataset& all, double train_fraction,
                            Rng& rng) {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("train_test_split: fraction must be in (0,1)");
  }
  const std::size_t n = all.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  std::size_t n_train =
      static_cast<std::size_t>(std::llround(train_fraction * n));
  if (n >= 2) {
    n_train = std::clamp<std::size_t>(n_train, 1, n - 1);
  } else {
    n_train = n;  // a single sample goes to train; test stays empty
  }

  ClientData out;
  if (!all.is_sequence()) {
    out.train.reserve_dense(n_train, all.features.cols());
    out.test.reserve_dense(n - n_train, all.features.cols());
    // Ensure empty sides still know the feature width.
    out.train.features = Matrix(0, all.features.cols());
    out.test.features = Matrix(0, all.features.cols());
  }
  for (std::size_t i = 0; i < n; ++i) {
    (i < n_train ? out.train : out.test).append_from(all, order[i]);
  }
  return out;
}

std::vector<std::size_t> power_law_sample_counts(std::size_t n,
                                                 std::size_t min_samples,
                                                 double mean_log,
                                                 double sigma_log, Rng& rng) {
  std::vector<std::size_t> counts(n);
  for (auto& c : counts) {
    const double draw = std::exp(rng.normal(mean_log, sigma_log));
    c = min_samples + static_cast<std::size_t>(draw);
  }
  return counts;
}

}  // namespace fed
