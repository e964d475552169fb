// Structured training observation: the Trainer's public telemetry API.
//
// A TrainingObserver provides typed hooks for every stage of a run. The
// Trainer invokes observers from the round thread only — never from
// ThreadPool workers — in registration order, so attaching observers
// cannot perturb the (seed, round, device) determinism contract.
// Observers must be registered before Trainer::run starts and must not
// mutate training state (a health observer may abort the run by
// throwing; see obs/health.h).
//
//   struct Printer : TrainingObserver {
//     void on_round_end(const RoundMetrics& m, const RoundTrace&) override {
//       if (m.evaluated()) std::cout << m.round << ": " << *m.train_loss;
//     }
//   };
//   Printer printer;
//   trainer.add_observer(printer);
//
// Register one observer per concern (metrics, tracing, live printing);
// the Trainer fans every hook out to them in registration order.

#pragma once

#include <span>
#include <string>

#include "comm/fault.h"
#include "core/trainer.h"
#include "obs/trace.h"
#include "sim/client.h"

namespace fed {

// Immutable run-level facts, delivered once at on_run_start.
struct RunInfo {
  std::size_t rounds = 0;          // training rounds this run executes
  std::size_t first_round = 0;     // 0, or the resumed checkpoint round
  std::size_t num_clients = 0;
  std::size_t parameter_count = 0;
  std::size_t threads = 0;         // pool size actually used
  // True when this run continues from an FPC1 checkpoint; first_round is
  // then the checkpointed round (the first executed round is + 1).
  bool resumed = false;
  // The run's whole config as the Trainer validated it (solver set);
  // config.rounds is the whole run's T.
  TrainerConfig config;
};

class TrainingObserver {
 public:
  virtual ~TrainingObserver() = default;

  // Once, before the round-0 evaluation.
  virtual void on_run_start(const RunInfo& info) { (void)info; }

  // Before each *training* round's local solves (not for the round-0
  // evaluation record). `selected` lists the sampled device ids.
  virtual void on_round_start(std::size_t round,
                              std::span<const std::size_t> selected) {
    (void)round;
    (void)selected;
  }

  // Once per channel incident (comm/fault.h) per training round, after
  // the parallel exchanges complete, in (selection order, attempt)
  // order — then any quorum drops and at most one round-degraded event.
  // Only emitted when a fault-injecting transport or degraded round
  // produced incidents; a healthy round emits none.
  virtual void on_fault(const FaultEvent& event) { (void)event; }

  // Once per accepted device update per training round, after the
  // parallel solves complete, in selection order (deterministic). A
  // device whose exchanges all failed, or whose update arrived past the
  // quorum cutoff, does not report here.
  virtual void on_client_result(std::size_t round, const ClientResult& result) {
    (void)round;
    (void)result;
  }

  // After aggregation updates the global parameters, before evaluation.
  // `weights` views the live parameter vector; observers must copy what
  // they keep and must not hold the span past the hook.
  virtual void on_aggregate(std::size_t round,
                            std::span<const double> weights) {
    (void)round;
    (void)weights;
  }

  // After each round's metrics are recorded — including the round-0
  // evaluation record.
  virtual void on_round_end(const RoundMetrics& metrics,
                            const RoundTrace& trace) {
    (void)metrics;
    (void)trace;
  }

  // Once, after the final round, before Trainer::run returns.
  virtual void on_run_end(const TrainHistory& history) { (void)history; }
};

// Collects every trace of a run; handy for tests and benchmarks.
class TraceCollector final : public TrainingObserver {
 public:
  void on_round_end(const RoundMetrics& metrics,
                    const RoundTrace& trace) override {
    (void)metrics;
    traces_.push_back(trace);
  }

  const std::vector<RoundTrace>& traces() const { return traces_; }
  void clear() { traces_.clear(); }

 private:
  std::vector<RoundTrace> traces_;
};

}  // namespace fed
