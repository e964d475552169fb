// The server side of a federated round, speaking only in messages.
//
// run_round executes one training round of Algorithm 1/2 over the live
// population (sim/churn.h; without churn the registry is inert) in five
// stages: select (churn, sampling, budgets) → exchange (broadcast wᵗ and
// take back each device's update under the recovery policy, in parallel)
// → quorum (revoke late successes) → aggregate (fold the contributing
// updates into `w` across the shards) → account (one pass fills every
// byte, shard, fault, straggler, solve and γ column, counting faults from
// the devices' typed events). Each RoundTrace field has one owning stage.
// evaluate() runs the global evaluation (plus dissimilarity when
// configured). The Trainer owns everything *across* rounds — mu
// policies, evaluation cadence, history, checkpoints, observer lifecycle.

#pragma once

#include <span>
#include <vector>

#include "comm/client_runtime.h"
#include "comm/transport.h"
#include "core/trainer.h"
#include "obs/trace.h"
#include "sim/churn.h"
#include "sim/sharded.h"
#include "support/threadpool.h"

namespace fed {

class RoundDriver {
 public:
  // All references must outlive the driver; `pool` must be non-null.
  // run_round calls registry.begin_round before selection and
  // registry.end_round once the round is accounted.
  RoundDriver(const Model& model, const FederatedDataset& data,
              const TrainerConfig& config, const Transport& transport,
              const ClientRuntime& runtime, ThreadPool* pool,
              DeviceRegistry& registry,
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
  struct Selection;       // the round's devices and their budgets
  struct DeviceOutcome;   // one device's exchange under the recovery policy

  Selection select(std::size_t t, RoundTrace& trace);
  std::vector<DeviceOutcome> exchange(std::size_t t, double mu,
                                      const Vector& w, const Selection& sel,
                                      RoundTrace& trace) const;
  DeviceOutcome exchange_with_recovery(ModelBroadcast& broadcast,
                                       std::size_t round,
                                       std::size_t device) const;
  void apply_quorum(std::size_t round, const Selection& sel,
                    std::vector<DeviceOutcome>& outcomes) const;
  ShardedServer aggregate(std::size_t round, Vector& w,
                          std::span<const ShardSlice> slices,
                          const std::vector<DeviceOutcome>& outcomes,
                          RoundTrace& trace);
  void account(std::size_t round, double mu, const Selection& sel,
               std::span<const ShardSlice> slices,
               const std::vector<DeviceOutcome>& outcomes,
               const ShardedServer& server, RoundOutput& out) const;
  bool contributes(const DeviceOutcome& oc) const;

  const Model& model_;
  const FederatedDataset& data_;
  const TrainerConfig& config_;
  const Transport& transport_;
  const ClientRuntime& runtime_;
  ThreadPool* pool_;
  DeviceRegistry& registry_;
  std::span<TrainingObserver* const> observers_;
  std::vector<double> pk_;  // client weights p_k, fixed for the run
};

}  // namespace fed
