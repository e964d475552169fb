// The server side of a federated round, speaking only in messages.
//
// run_round executes one training round of Algorithm 1/2: sample devices,
// assign systems budgets, broadcast the global model through the
// Transport, collect the returned updates, and aggregate them into `w` —
// recording transport-measured bytes and per-phase wall times in the
// RoundTrace. evaluate() runs the global evaluation (plus dissimilarity
// when configured). The Trainer owns everything *across* rounds — the
// mu policies, evaluation cadence, history, and observer lifecycle — and
// drives this class once per round.

#pragma once

#include <span>
#include <vector>

#include "comm/client_runtime.h"
#include "comm/transport.h"
#include "core/trainer.h"
#include "obs/trace.h"
#include "support/threadpool.h"

namespace fed {

class RoundDriver {
 public:
  // All references must outlive the driver; `pool` must be non-null.
  // `registry` may be null (or inert) for the closed-world fast path;
  // when it carries a live churn schedule, run_round drives it:
  // begin_round before selection, end_round after the trace is filled,
  // selection/sharding/quorum over the live population only.
  RoundDriver(const Model& model, const FederatedDataset& data,
              const TrainerConfig& config, const Transport& transport,
              const ClientRuntime& runtime, ThreadPool* pool,
              DeviceRegistry* registry,
              std::span<TrainingObserver* const> observers);

  struct RoundOutput {
    RoundMetrics metrics;
    RoundTrace trace;
  };

  // Executes training round `t` (0-based) under proximal coefficient
  // `mu`, updating `w` in place. Fills every metric/trace field except
  // the evaluation ones and round_seconds, which the caller charges
  // (evaluation cadence is its call).
  RoundOutput run_round(std::size_t t, double mu, Vector& w);

  // Global evaluation + optional dissimilarity, charged to
  // trace.eval_seconds.
  void evaluate(const Vector& w, RoundMetrics& metrics, RoundTrace& trace);

 private:
  // One device's journey through the recovery policy: the accepted
  // exchange (when any attempt succeeded), per-attempt failure counts,
  // byte charges, the simulated clock, and the typed incidents to fan
  // out. Filled by exactly one pool worker, read after the barrier.
  struct DeviceOutcome {
    ExchangeRecord record;   // the accepted exchange; meaningful iff accepted
    bool accepted = false;
    bool quorum_dropped = false;        // revoked by the quorum cut
    std::size_t attempts = 0;
    std::size_t drops = 0;
    std::size_t corruptions = 0;
    std::size_t timeouts = 0;
    std::uint64_t bytes_down = 0;       // broadcast bytes, charged per attempt
    std::uint64_t failed_bytes_up = 0;  // corrupt arrivals, charged per attempt
    bool departed = false;              // device left the federation mid-round
    double arrival_ms = 0.0;  // simulated delays + backoffs through last attempt
    std::vector<FaultEvent> events;     // in attempt order
  };

  // Runs the exchange for one device under config_.recovery: retry failed
  // attempts (drop / corrupt / past-deadline) with simulated exponential
  // backoff, up to max_retries extra attempts. Mutates broadcast.attempt
  // only. Called concurrently from pool workers; everything it touches is
  // worker-local.
  DeviceOutcome exchange_with_recovery(ModelBroadcast& broadcast,
                                       std::size_t round,
                                       std::size_t device) const;

  // The churn analogue of total exchange failure: a departing device
  // never touches the transport — every attempt's broadcast bytes are
  // charged and lost (a crashed phone mid-exchange), so the outcome
  // folds into the existing failed-device/straggler accounting and all
  // byte/retry invariants hold unchanged.
  DeviceOutcome departed_outcome(const ModelBroadcast& broadcast,
                                 std::size_t round, std::size_t device) const;

  const Model& model_;
  const FederatedDataset& data_;
  const TrainerConfig& config_;
  const Transport& transport_;
  const ClientRuntime& runtime_;
  ThreadPool* pool_;
  DeviceRegistry* registry_;  // may be null: closed-world
  std::span<TrainingObserver* const> observers_;
  std::vector<double> pk_;  // client weights p_k, fixed for the run
};

}  // namespace fed
