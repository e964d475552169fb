#include "optim/prox_sgd.h"

#include <cassert>
#include <stdexcept>

#include "tensor/ops.h"

namespace fed {

LocalObjective::LocalObjective(const LocalProblem& problem)
    : problem_(problem) {
  if (!problem_.model || !problem_.data) {
    throw std::invalid_argument("LocalObjective: null model or data");
  }
  if (problem_.anchor.size() != problem_.model->parameter_count()) {
    throw std::invalid_argument("LocalObjective: anchor dimension mismatch");
  }
  if (!problem_.correction.empty() &&
      problem_.correction.size() != problem_.anchor.size()) {
    throw std::invalid_argument("LocalObjective: correction dim mismatch");
  }
}

double LocalObjective::add_regularizers(std::span<const double> w,
                                        double f_loss,
                                        std::span<double> grad) const {
  double loss = f_loss;
  if (problem_.mu != 0.0) {
    double sq = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double diff = w[i] - problem_.anchor[i];
      grad[i] += problem_.mu * diff;
      sq += diff * diff;
    }
    loss += 0.5 * problem_.mu * sq;
  }
  if (!problem_.correction.empty()) {
    loss += dot(problem_.correction, w);
    add(grad, problem_.correction, grad);
  }
  return loss;
}

double LocalObjective::loss_and_grad(std::span<const double> w,
                                     std::span<const std::size_t> batch,
                                     std::span<double> grad) const {
  const double f =
      problem_.model->loss_and_grad(w, *problem_.data, batch, grad);
  return add_regularizers(w, f, grad);
}

double LocalObjective::full_loss_and_grad(std::span<const double> w,
                                          std::span<double> grad) const {
  const double f = problem_.model->dataset_loss_and_grad(w, *problem_.data, grad);
  return add_regularizers(w, f, grad);
}

double LocalObjective::full_loss(std::span<const double> w) const {
  double f = problem_.model->dataset_loss(w, *problem_.data);
  if (problem_.mu != 0.0) {
    const double d = distance2(w, problem_.anchor);
    f += 0.5 * problem_.mu * d * d;
  }
  if (!problem_.correction.empty()) f += dot(problem_.correction, w);
  return f;
}

double LocalObjective::full_grad_norm(std::span<const double> w) const {
  Vector grad(dimension());
  full_loss_and_grad(w, grad);
  return norm2(grad);
}

}  // namespace fed
