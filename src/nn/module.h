// Solver-agnostic model interface.
//
// Models are stateless function objects over flat parameter vectors
// w ∈ R^d: the federated server, aggregators, and local solvers treat w
// opaquely, which is what makes the FedProx framework solver- and
// model-agnostic (paper Section 3.2). All methods are const and
// thread-safe so many simulated devices can share one Model instance.

#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "support/rng.h"
#include "tensor/tensor.h"

namespace fed {

class Model {
 public:
  virtual ~Model() = default;

  virtual std::string name() const = 0;

  // Dimension d of the flat parameter vector.
  virtual std::size_t parameter_count() const = 0;

  // Writes an initial parameter vector (w.size() == parameter_count()).
  virtual void init_parameters(std::span<double> w, Rng& rng) const = 0;

  // Mean loss over the batch; writes the mean gradient into `grad`
  // (overwriting it). `batch` holds sample indices into `data`.
  virtual double loss_and_grad(std::span<const double> w, const Dataset& data,
                               std::span<const std::size_t> batch,
                               std::span<double> grad) const = 0;

  // Mean loss only (no gradient); default falls back to loss_and_grad.
  virtual double loss(std::span<const double> w, const Dataset& data,
                      std::span<const std::size_t> batch) const;

  // Predicted class label for each sample in the batch.
  virtual void predict(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::vector<std::int32_t>& out) const = 0;

  // Mean loss and predicted labels of the batch, bitwise what loss() and
  // predict() return. The default calls both; a model overrides it to
  // share one forward pass (global evaluation calls it on every train
  // split).
  virtual double loss_and_predict(std::span<const double> w,
                                  const Dataset& data,
                                  std::span<const std::size_t> batch,
                                  std::vector<std::int32_t>& out) const;

  // ---- convenience over whole datasets ----

  // Mean loss over all samples of `data` (0.0 when empty).
  double dataset_loss(std::span<const double> w, const Dataset& data) const;
  // Mean gradient over all samples; returns the loss. grad zeroed first.
  double dataset_loss_and_grad(std::span<const double> w, const Dataset& data,
                               std::span<double> grad) const;
  // Fraction of correct predictions (0.0 when empty).
  double accuracy(std::span<const double> w, const Dataset& data) const;
  // Number of correct predictions over the whole dataset.
  std::size_t correct_count(std::span<const double> w,
                            const Dataset& data) const;
};

// Returns 0..size-1 as a batch covering a whole dataset.
std::vector<std::size_t> full_batch(std::size_t size);

// Number of predictions equal to their sample's label (pred[i] is the
// prediction for sample batch[i]).
std::size_t count_correct(const Dataset& data,
                          std::span<const std::size_t> batch,
                          std::span<const std::int32_t> pred);

}  // namespace fed
