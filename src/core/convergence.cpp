#include "core/convergence.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace fed {

double theorem4_rho(const ConvergenceInputs& in) {
  if (in.k < 1.0) throw std::invalid_argument("theorem4_rho: K < 1");
  if (in.gamma < 0.0 || in.b < 1.0 || in.l <= 0.0 || in.l_minus < 0.0) {
    throw std::invalid_argument("theorem4_rho: bad inputs");
  }
  const double mu_bar = in.mu - in.l_minus;
  if (mu_bar <= 0.0) {
    throw std::invalid_argument("theorem4_rho: requires mu > L_minus");
  }
  const double one_plus_gamma = 1.0 + in.gamma;
  const double sqrt_k = std::sqrt(in.k);
  // rho = 1/mu - gamma B / mu
  //       - B(1+gamma) sqrt(2) / (mu_bar sqrt(K))
  //       - L B (1+gamma) / (mu_bar mu)
  //       - L (1+gamma)^2 B^2 / (2 mu_bar^2)
  //       - L B^2 (1+gamma)^2 (2 sqrt(2K) + 2) / (mu_bar^2 K)
  return 1.0 / in.mu - in.gamma * in.b / in.mu -
         in.b * one_plus_gamma * std::sqrt(2.0) / (mu_bar * sqrt_k) -
         in.l * in.b * one_plus_gamma / (mu_bar * in.mu) -
         in.l * one_plus_gamma * one_plus_gamma * in.b * in.b /
             (2.0 * mu_bar * mu_bar) -
         in.l * in.b * in.b * one_plus_gamma * one_plus_gamma *
             (2.0 * std::sqrt(2.0 * in.k) + 2.0) /
             (mu_bar * mu_bar * in.k);
}

bool remark5_conditions(double gamma, double b, double k) {
  return gamma * b < 1.0 && b / std::sqrt(k) < 1.0;
}

double corollary7_mu(double l, double b) { return 6.0 * l * b * b; }

double corollary10_b(double sigma_sq, double epsilon) {
  if (epsilon <= 0.0) throw std::invalid_argument("corollary10_b: eps <= 0");
  return std::sqrt(1.0 + sigma_sq / epsilon);
}

double smallest_certified_mu(ConvergenceInputs in, double mu_max) {
  auto rho_at = [&](double mu) {
    in.mu = mu;
    return theorem4_rho(in);
  };
  // rho(mu) -> 0+ from the 1/mu term as mu -> inf only if the negative
  // terms shrink faster; in practice rho is negative for tiny mu (the
  // penalty terms blow up via mu_bar) and may become positive beyond some
  // threshold. Scan for a bracket, then bisect to the boundary.
  const double lo_start = in.l_minus + 1e-9;
  double hi = std::max(lo_start * 2.0, 1e-6);
  double certified = -1.0;
  while (hi <= mu_max) {
    if (rho_at(hi) > 0.0) {
      certified = hi;
      break;
    }
    hi *= 2.0;
  }
  if (certified < 0.0) return -1.0;
  // Bisect between the last negative point and `certified`.
  double lo = std::max(lo_start, certified / 2.0);
  if (rho_at(lo) > 0.0) return lo;  // already positive at the low end
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + certified);
    if (rho_at(mid) > 0.0) {
      certified = mid;
    } else {
      lo = mid;
    }
  }
  return certified;
}

SmoothnessEstimate estimate_smoothness(const Model& model, const Dataset& data,
                                       std::span<const double> w,
                                       std::size_t probes, double step,
                                       Rng& rng) {
  if (probes == 0 || step <= 0.0) {
    throw std::invalid_argument("estimate_smoothness: bad probes/step");
  }
  const std::size_t d = model.parameter_count();
  Vector grad0(d), grad1(d), direction(d), w_probe(w.begin(), w.end());
  model.dataset_loss_and_grad(w, data, grad0);

  SmoothnessEstimate estimate;
  for (std::size_t p = 0; p < probes; ++p) {
    for (double& v : direction) v = rng.normal();
    const double norm = norm2(direction);
    if (norm < 1e-12) continue;
    scale(direction, 1.0 / norm);
    for (std::size_t i = 0; i < d; ++i) w_probe[i] = w[i] + step * direction[i];
    model.dataset_loss_and_grad(w_probe, data, grad1);
    subtract(grad1, grad0, grad1);  // grad difference
    estimate.l = std::max(estimate.l, norm2(grad1) / step);
    const double curvature = dot(direction, grad1) / step;
    estimate.l_minus = std::max(estimate.l_minus, -curvature);
  }
  return estimate;
}

SmoothnessEstimate estimate_federated_smoothness(
    const Model& model, const FederatedDataset& data,
    std::span<const double> w, std::size_t probes, double step,
    std::uint64_t seed, ThreadPool* pool) {
  const std::size_t n = data.num_clients();
  std::vector<SmoothnessEstimate> per_client(n);
  parallel_for(pool, n, [&](std::size_t k) {
    if (data.clients[k].train.empty()) return;
    Rng rng = make_stream(seed, StreamKind::kTest, k);
    per_client[k] =
        estimate_smoothness(model, data.clients[k].train, w, probes, step, rng);
  });
  SmoothnessEstimate pooled;
  for (const auto& e : per_client) {
    pooled.l = std::max(pooled.l, e.l);
    pooled.l_minus = std::max(pooled.l_minus, e.l_minus);
  }
  return pooled;
}

}  // namespace fed
