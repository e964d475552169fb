// The federated training loop — the public entry point of the library.
//
// One Trainer runs Algorithm 1 (FedAvg) or Algorithm 2 (FedProx), or the
// FedDane baseline, against a FederatedDataset and a Model:
//
//   FederatedDataset data = make_synthetic(synthetic_config(1, 1));
//   LogisticRegression model(data.input_dim, data.num_classes);
//   TrainerConfig cfg = fedprox_config(/*mu=*/1.0);
//   TrainHistory history = Trainer(model, data, cfg).run();
//
// FedAvg is the special case: mu = 0, SGD local solver, and stragglers
// dropped at aggregation (Section 3.2). FedProx keeps partial solutions
// and adds the proximal term. All randomness (device selection,
// stragglers, mini-batches) is keyed by (seed, round, device) so compared
// configurations face identical conditions.
//
// Observability: attach TrainingObserver instances (obs/observer.h) with
// add_observer — before run() starts — to receive run/round/client hooks
// plus a RoundTrace of per-phase wall times. Observers run on the round
// thread only and never affect results — TrainHistory is bit-identical
// with and without them.
//
// Communication: each round is an explicit message exchange — the server
// (core/round_driver) broadcasts the model through a Transport
// (comm/transport.h) and the devices (comm/client_runtime) return their
// updates, with exact bytes up/down measured into the RoundTrace. The
// default InProcessTransport is zero-copy; set TrainerConfig::transport
// to a SerializedTransport to round-trip every payload through the
// binary wire format (TrainHistory stays bit-identical either way).

#pragma once

#include <memory>
#include <optional>

#include "comm/fault.h"
#include "core/dissimilarity.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "optim/solver.h"
#include "sim/churn.h"
#include "sim/client.h"
#include "sim/sampling.h"
#include "sim/systems.h"

namespace fed {

class TrainingObserver;  // obs/observer.h
class Transport;         // comm/transport.h

enum class Algorithm {
  kFedAvg,   // drop stragglers; canonical config also sets mu = 0
  kFedProx,  // aggregate partial work; proximal term mu
  kFedDane,  // FedProx aggregation + DANE gradient correction
};

std::string to_string(Algorithm algorithm);

// How mu moves between rounds, from TrainerConfig::mu
// (core/mu_controller.h).
enum class MuPolicy {
  kFixed,     // mu stays (Algorithm 2)
  kAdaptive,  // the paper's +/-0.1 loss heuristic (Section 5.3.2)
  kTheory,    // mu ~ B^2 - 1 from the measured dissimilarity (Corollary 7)
};

std::string to_string(MuPolicy policy);

// Periodic durable checkpoints (core/checkpoint.h): every `every`
// completed rounds the trainer atomically writes an FPC1 snapshot under
// `dir` and keeps the newest `retain` generations. Checkpointing draws
// no randomness and runs after the round's observers' inputs are fixed,
// so enabling it never changes TrainHistory.
struct CheckpointConfig {
  std::string dir;        // empty = checkpointing disabled
  std::size_t every = 0;  // rounds between checkpoints (0 = disabled)
  std::size_t retain = 3; // newest generations kept on disk

  bool enabled() const { return !dir.empty() && every > 0; }
};

// Deterministic server-crash injection (core/checkpoint.h): the round
// driver throws ServerCrashed mid-aggregation of round `at_round`
// (1-based, matching the trace's round ids), losing that round's work
// exactly like a real server death. 0 disarms the plan.
struct CrashPlan {
  std::size_t at_round = 0;

  bool armed() const { return at_round > 0; }
};

// Every leaf's range, flag, fingerprint bit and doc is one entry of the
// field list in core/config.h; the Trainer constructor checks them all.
struct TrainerConfig {
  Algorithm algorithm = Algorithm::kFedProx;
  double mu = 0.0;  // the proximal coefficient, or its policy's start
  // kTheory forces per-evaluation dissimilarity measurement.
  MuPolicy mu_policy = MuPolicy::kFixed;

  std::size_t rounds = 200;             // T
  std::size_t devices_per_round = 10;   // K
  std::size_t batch_size = 10;
  double learning_rate = 0.01;

  SystemsConfig systems;                // E and straggler fraction
  SamplingScheme sampling = SamplingScheme::kUniformThenWeightedAverage;

  std::uint64_t seed = 7;

  // Evaluation cadence: round metrics are computed every `eval_every`
  // rounds (and always on the final round).
  std::size_t eval_every = 1;
  bool measure_gamma = false;
  bool measure_dissimilarity = false;

  std::size_t threads = 0;  // 0 = hardware concurrency
  // Aggregator shards per round (sim/sharded.h): the selected devices
  // are split into `shards` contiguous slices, each aggregated into an
  // exact partial sum and merged at the root. Any value >= 1 produces a
  // bit-identical TrainHistory; the knob trades
  // server-side parallelism/topology against per-round FPS2 uplink
  // bytes, never results.
  std::size_t shards = 1;
  // Local solver; nullptr means SGD (the paper's choice).
  std::shared_ptr<const LocalSolver> solver;
  // Federation transport; nullptr means InProcessTransport (zero-copy).
  std::shared_ptr<const Transport> transport;
  // Channel fault injection (comm/fault.h). When any knob is non-zero the
  // trainer wraps `transport` in a FaultInjectingTransport keyed by
  // `seed`; an all-zero profile changes nothing, bit-for-bit.
  FaultProfile faults;
  // Recovery policy the round driver applies per exchange: bounded
  // retries with simulated exponential backoff, a delivery deadline, and
  // quorum aggregation. Defaults are inert on a faultless channel.
  RecoveryConfig recovery;
  // Open-world device churn (sim/churn.h): devices arrive and depart on
  // a deterministic (seed, round, device)-keyed schedule; sampling and
  // quorum recompute over the live population each round. An all-zero
  // config keeps the closed world, bit-for-bit. The trainer raises the
  // departure floor to devices_per_round so selection stays well-defined.
  ChurnConfig churn;
  // Periodic durable checkpoints + deterministic server-crash injection
  // (core/checkpoint.h). Both are inert by default.
  CheckpointConfig checkpoint;
  CrashPlan crash;

  // The per-round config a ModelBroadcast carries to every selected
  // device — the trainer-level hyper-parameters plus the round's
  // effective mu (adaptive/theory policies move it between rounds).
  RoundConfig round_config(double effective_mu) const {
    return RoundConfig{.mu = effective_mu,
                       .batch_size = batch_size,
                       .learning_rate = learning_rate,
                       .measure_gamma = measure_gamma};
  }
};

// Canonical configurations used throughout the benches.
TrainerConfig fedavg_config();
TrainerConfig fedprox_config(double mu);

// Per-round record. Optional fields are engaged only when the quantity
// was actually measured that round: the three evaluation metrics are set
// together when the round was evaluated, the dissimilarity pair when
// measure_dissimilarity ran, mean_gamma when gamma was measured.
struct RoundMetrics {
  std::size_t round = 0;
  std::optional<double> train_loss;
  std::optional<double> train_accuracy;
  std::optional<double> test_accuracy;
  std::optional<double> grad_variance;
  std::optional<double> dissimilarity_b;
  double mu = 0.0;              // mu in effect this round
  std::optional<double> mean_gamma;
  // Both counts are over the round's accepted updates: delivered within
  // the deadline and the quorum cut. `contributors` are the ones folded
  // into w (FedAvg leaves out its stragglers); `stragglers` counts the
  // straggler budgets among all accepted updates, FedAvg's included.
  // RoundTrace carries the same two counts.
  std::size_t contributors = 0;
  std::size_t stragglers = 0;

  bool evaluated() const { return train_loss.has_value(); }
};

// The field list of a RoundMetrics, in FPC1 order. `v` is a walker over
// a const or a mutable RoundMetrics: field(key, member) per member, and
// optionals(group) per group of optionals measured together, which
// calls group(walker) on the walker it picks for the group's members
// (FPC1 stores one presence flag per group). FPC1's round record
// (support/serialize.cpp), the JSONL round line (obs/trace.cpp),
// bench::history_divergence and GoldenTest's digest all walk it.
template <typename V, typename Metrics>
void visit_metrics(V& v, Metrics& m) {
  v.field("round", m.round);
  v.optionals([&](auto& g) {
    g.field("train_loss", m.train_loss);
    g.field("train_accuracy", m.train_accuracy);
    g.field("test_accuracy", m.test_accuracy);
  });
  v.optionals([&](auto& g) {
    g.field("grad_variance", m.grad_variance);
    g.field("dissimilarity_b", m.dissimilarity_b);
  });
  v.field("mu", m.mu);
  v.optionals([&](auto& g) { g.field("mean_gamma", m.mean_gamma); });
  v.field("contributors", m.contributors);
  v.field("stragglers", m.stragglers);
}

struct TrainHistory {
  std::vector<RoundMetrics> rounds;
  Vector final_parameters;

  // Metrics of the last evaluated round. Throws if nothing was evaluated.
  const RoundMetrics& final_metrics() const;
  // True if any evaluated round saw a non-finite or clearly diverging
  // loss (> threshold).
  bool diverged(double threshold = 1e4) const;
};

struct CheckpointState;  // support/serialize.h (the FPC1 payload)

class Trainer {
 public:
  // `model` and `data` must outlive the trainer. Each run creates its
  // own ThreadPool of `config.threads` workers. Throws
  // std::invalid_argument for a config outside the ranges of core/
  // config.h or with more devices_per_round than the dataset has.
  Trainer(const Model& model, const FederatedDataset& data,
          TrainerConfig config);

  TrainHistory run();

  // Crash recovery: loads an FPC1 checkpoint (core/checkpoint.h),
  // validates its config fingerprint against this trainer's config, and
  // continues the run from the checkpointed round boundary. The combined
  // history (checkpointed rounds + resumed rounds) is bit-identical to a
  // run that never stopped — regardless of the thread or shard count of
  // either segment. Throws std::runtime_error, before any observer hook
  // fires, on a missing, corrupt, or config-mismatched checkpoint, or one
  // whose weights, population or round history do not fit this run: a
  // mu that is not finite and >= 0, a non-finite weight and an active
  // mask with no device set are refused too.
  TrainHistory resume(const std::string& checkpoint_path);

  // Registers an observer for run/round/client telemetry (obs/observer.h).
  // Observers are invoked from the round thread only, in registration
  // order, and must outlive run(). They cannot affect training results.
  // Throws std::logic_error once run() has started: late registration
  // would skip on_run_start and break the ordering contract.
  void add_observer(TrainingObserver& observer);

 private:
  // The round loop, from `start`: run() hands it the state a checkpoint
  // taken before round 0 would hold (next_round 0, no history), resume()
  // the checkpoint it loaded.
  TrainHistory run_impl(const CheckpointState& start);
  DeviceRegistry make_registry() const;

  const Model& model_;
  const FederatedDataset& data_;
  TrainerConfig config_;
  std::vector<TrainingObserver*> observers_;
  bool run_started_ = false;
};

}  // namespace fed
