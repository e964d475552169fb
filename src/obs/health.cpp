#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.h"
#include "tensor/ops.h"

namespace fed {

namespace {

constexpr std::size_t kMedianWindow = 9;  // evaluated losses kept
constexpr double kStallTolerance = 1e-6;  // relative improvement needed

}  // namespace

const char* to_string(HealthIncident::Kind kind) {
  switch (kind) {
    case HealthIncident::Kind::kNonFiniteWeights: return "nonfinite_weights";
    case HealthIncident::Kind::kNonFiniteLoss: return "nonfinite_loss";
    case HealthIncident::Kind::kLossBlowup: return "loss_blowup";
    case HealthIncident::Kind::kStalledConvergence:
      return "stalled_convergence";
    case HealthIncident::Kind::kDegradedRound: return "degraded_round";
  }
  return "?";
}

HealthMonitor::HealthMonitor(HealthConfig config, MetricsRegistry* registry)
    : config_(config), registry_(registry) {}

void HealthMonitor::on_run_start(const RunInfo&) {
  incidents_.clear();
  dropped_ = 0;
  recent_losses_.clear();
  has_best_loss_ = false;
  evals_since_improvement_ = 0;
  stall_reported_ = false;
}

void HealthMonitor::on_aggregate(std::size_t round,
                                 std::span<const double> weights) {
  if (all_finite(weights)) return;
  record({.kind = HealthIncident::Kind::kNonFiniteWeights,
          .round = round,
          .message = "round " + std::to_string(round) +
                     ": aggregated weights contain NaN/Inf"},
         /*fatal=*/true);
}

void HealthMonitor::check_loss(std::size_t round, double loss) {
  if (!std::isfinite(loss)) {
    HealthIncident incident;
    incident.kind = HealthIncident::Kind::kNonFiniteLoss;
    incident.round = round;
    incident.value = loss;
    std::ostringstream msg;
    msg << "round " << round << ": evaluated train loss is non-finite";
    incident.message = msg.str();
    record(std::move(incident), /*fatal=*/true);
    return;
  }

  if (!recent_losses_.empty() && config_.blowup_factor > 0.0) {
    std::vector<double> sorted = recent_losses_;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const double median = sorted[sorted.size() / 2];
    if (median > 0.0 && loss > config_.blowup_factor * median) {
      HealthIncident incident;
      incident.kind = HealthIncident::Kind::kLossBlowup;
      incident.round = round;
      incident.value = loss / median;
      std::ostringstream msg;
      msg << "round " << round << ": train loss " << loss << " is "
          << loss / median << "x the running median " << median;
      incident.message = msg.str();
      record(std::move(incident), config_.abort_on_blowup);
    }
  }
  recent_losses_.push_back(loss);
  if (recent_losses_.size() > kMedianWindow) {
    recent_losses_.erase(recent_losses_.begin());
  }

  if (config_.stall_patience == 0) return;
  if (!has_best_loss_ ||
      loss < best_loss_ * (1.0 - kStallTolerance)) {
    best_loss_ = loss;
    has_best_loss_ = true;
    evals_since_improvement_ = 0;
    stall_reported_ = false;
    return;
  }
  ++evals_since_improvement_;
  if (evals_since_improvement_ >= config_.stall_patience && !stall_reported_) {
    stall_reported_ = true;
    HealthIncident incident;
    incident.kind = HealthIncident::Kind::kStalledConvergence;
    incident.round = round;
    incident.value = best_loss_;
    std::ostringstream msg;
    msg << "round " << round << ": no loss improvement in "
        << evals_since_improvement_ << " evaluated rounds (best " << best_loss_
        << ")";
    incident.message = msg.str();
    record(std::move(incident), /*fatal=*/false);
  }
}

void HealthMonitor::on_round_end(const RoundMetrics& metrics,
                                 const RoundTrace& trace) {
  if (trace.degraded) {
    record({.kind = HealthIncident::Kind::kDegradedRound,
            .round = trace.round,
            .message = "round " + std::to_string(trace.round) + ": 0 of " +
                       std::to_string(trace.selected) +
                       " selected devices contributed an update; keeping w"},
           /*fatal=*/false);
  }
  if (metrics.evaluated()) check_loss(metrics.round, *metrics.train_loss);
}

void HealthMonitor::record(HealthIncident incident, bool fatal) {
  if (incidents_.size() < kMaxIncidents || fatal) {
    incidents_.push_back(incident);
  } else {
    ++dropped_;
  }
  if (registry_) {
    registry_->counter("health_incidents_total").add();
    registry_->counter(std::string("health_") + to_string(incident.kind) +
                       "_total")
        .add();
  }
  if (fatal) throw HealthError(std::move(incident), report());
}

std::string HealthMonitor::report() const {
  if (incidents_.empty()) return "";
  const std::size_t total = incidents_.size() + dropped_;
  std::ostringstream out;
  out << "health: " << total << " incident" << (total == 1 ? "" : "s")
      << " detected";
  if (dropped_ > 0) out << ", " << dropped_ << " not listed";
  out << "\n";
  for (const auto& incident : incidents_) {
    out << "  [" << to_string(incident.kind) << "] " << incident.message
        << "\n";
  }
  return out.str();
}

}  // namespace fed
