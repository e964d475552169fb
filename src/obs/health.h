// Numeric health watchdog: turn silent divergence into a loud report.
//
// The paper's figures are loss curves; a NaN in the global model poisons
// every later round while the run keeps "succeeding". (A device update
// never gets that far: core/round_driver.cpp rejects a non-finite one as
// a corrupt arrival.) HealthMonitor is a TrainingObserver that checks,
// every round, the aggregated parameters for NaN/Inf, the evaluated train
// loss for NaN/Inf, blow-up past k x the running median, and stalled
// convergence, and records a degraded round. The log keeps the first
// kMaxIncidents incidents and counts the rest, so a long run on a dead
// channel (one degraded round each) stays bounded. Incidents are counted
// in a MetricsRegistry when one is attached (health_incidents_total plus
// one counter per kind, every incident); fatal kinds abort the run by
// throwing HealthError from the observer hook, with a report naming the
// round.
//
//   MetricsRegistry registry;
//   HealthMonitor health(HealthConfig{}, &registry);
//   trainer.add_observer(health);
//   try {
//     trainer.run();
//   } catch (const HealthError& e) {
//     std::cerr << e.what();   // full incident report
//     return 1;
//   }

#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/observer.h"

namespace fed {

class MetricsRegistry;  // obs/metrics.h

// Fixed in obs/health.cpp: the running median covers the last 9
// evaluated losses, a loss improves on the best one only when it is
// lower by a relative 1e-6, and non-finite weights or losses always
// throw HealthError.
struct HealthConfig {
  // Evaluated loss > blowup_factor x running median -> kLossBlowup.
  double blowup_factor = 25.0;
  // Consecutive evaluated rounds without improvement before a
  // kStalledConvergence incident; 0 disables.
  std::size_t stall_patience = 50;
  // A blow-up throws HealthError instead of only being recorded.
  bool abort_on_blowup = false;
};

struct HealthIncident {
  enum class Kind {
    kNonFiniteWeights,       // the aggregated parameters have NaN/Inf
    kNonFiniteLoss,          // an evaluated loss is NaN/Inf
    kLossBlowup,             // loss > blowup_factor x running median
    kStalledConvergence,     // no improvement for stall_patience evals
    kDegradedRound,          // a round aggregated zero updates; w was kept
  };

  Kind kind{};
  std::size_t round = 0;
  double value = 0.0;   // offending loss / blow-up ratio
  std::string message;  // one-line human description
};

// Stable snake_case slug ("nonfinite_weights", ...); also names the
// per-kind registry counter health_<slug>_total.
const char* to_string(HealthIncident::Kind kind);

// Thrown from an observer hook to abort Trainer::run. what() carries the
// full multi-line report of every incident seen so far.
class HealthError : public std::runtime_error {
 public:
  HealthError(HealthIncident incident, const std::string& report)
      : std::runtime_error(report), incident_(std::move(incident)) {}

  const HealthIncident& incident() const { return incident_; }

 private:
  HealthIncident incident_;
};

class HealthMonitor final : public TrainingObserver {
 public:
  // Incidents the log keeps; a fatal one is kept past it too.
  static constexpr std::size_t kMaxIncidents = 64;

  explicit HealthMonitor(HealthConfig config = {},
                         MetricsRegistry* registry = nullptr);

  void on_run_start(const RunInfo& info) override;
  void on_aggregate(std::size_t round,
                    std::span<const double> weights) override;
  // Individual channel faults (drop/corrupt/timeout/...) are the fault
  // layer's normal operation and stay out of the incident log; a round
  // the trace marks degraded (zero contributions) is recorded, never
  // fatal — training legitimately continues with w unchanged.
  void on_round_end(const RoundMetrics& metrics,
                    const RoundTrace& trace) override;

  bool healthy() const { return incidents_.empty(); }
  // The first kMaxIncidents incidents, and a fatal one.
  const std::vector<HealthIncident>& incidents() const { return incidents_; }
  // "health: N incident(s)" header, with the number not listed, plus one
  // line per kept incident; empty string when healthy.
  std::string report() const;

 private:
  void record(HealthIncident incident, bool fatal);
  void check_loss(std::size_t round, double loss);

  HealthConfig config_;
  MetricsRegistry* registry_;
  std::vector<HealthIncident> incidents_;
  std::size_t dropped_ = 0;  // incidents left out of incidents_
  std::vector<double> recent_losses_;  // median window, oldest first
  double best_loss_ = 0.0;
  bool has_best_loss_ = false;
  std::size_t evals_since_improvement_ = 0;
  bool stall_reported_ = false;
};

}  // namespace fed
