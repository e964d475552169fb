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

// One client's global-evaluation terms (sim/server.h sums them).
struct ClientEval {
  // loss(train) * n_train, bit for bit; 0.0 on an empty split.
  double train_loss_sum = 0.0;
  std::size_t train_correct = 0;
  std::size_t test_correct = 0;
};

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

  // The model at fixed weights `w`, as global evaluation sees it. The
  // weights are prepared once, when the evaluation is made; the model
  // and `w` must outlive it. client() is const and thread-safe
  // (per-thread scratch), so one evaluation serves every client of a
  // pool-wide sweep.
  class Evaluation {
   public:
    virtual ~Evaluation() = default;
    // One client's terms over both of its splits, bitwise what loss()
    // and predict() give on each whole split.
    virtual ClientEval client(const ClientData& client) const = 0;
  };
  // The default runs loss() and predict() per split; a model overrides
  // it to prepare its weights once and share one pass per split.
  virtual std::unique_ptr<const Evaluation> evaluation(
      std::span<const double> w) const;

  // ---- convenience over whole datasets ----

  // Mean loss over all samples of `data` (0.0 when empty).
  double dataset_loss(std::span<const double> w, const Dataset& data) const;
  // Mean gradient over all samples; returns the loss. grad zeroed first.
  double dataset_loss_and_grad(std::span<const double> w, const Dataset& data,
                               std::span<double> grad) const;
  // Fraction of correct predictions (0.0 when empty).
  double accuracy(std::span<const double> w, const Dataset& data) const;
};

// Returns 0..size-1 as a batch covering a whole dataset.
std::vector<std::size_t> full_batch(std::size_t size);

}  // namespace fed
