#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "comm/client_runtime.h"
#include "comm/transport.h"
#include "core/checkpoint.h"
#include "core/config.h"
#include "core/mu_controller.h"
#include "core/round_driver.h"
#include "obs/observer.h"
#include "optim/sgd.h"
#include "support/serialize.h"
#include "support/stopwatch.h"
#include "support/threadpool.h"

namespace fed {

std::string to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kFedAvg: return "FedAvg";
    case Algorithm::kFedProx: return "FedProx";
    case Algorithm::kFedDane: return "FedDane";
  }
  return "?";
}

std::string to_string(MuPolicy policy) {
  switch (policy) {
    case MuPolicy::kFixed: return "fixed";
    case MuPolicy::kAdaptive: return "adaptive";
    case MuPolicy::kTheory: return "theory";
  }
  return "?";
}

TrainerConfig fedavg_config() {
  TrainerConfig c;
  c.algorithm = Algorithm::kFedAvg;
  c.mu = 0.0;
  return c;
}

TrainerConfig fedprox_config(double mu) {
  TrainerConfig c;
  c.algorithm = Algorithm::kFedProx;
  c.mu = mu;
  return c;
}

const RoundMetrics& TrainHistory::final_metrics() const {
  for (auto it = rounds.rbegin(); it != rounds.rend(); ++it) {
    if (it->evaluated()) return *it;
  }
  throw std::logic_error("TrainHistory: no evaluated round");
}

bool TrainHistory::diverged(double threshold) const {
  for (const auto& r : rounds) {
    if (r.evaluated() &&
        (!std::isfinite(*r.train_loss) || *r.train_loss > threshold)) {
      return true;
    }
  }
  return false;
}

Trainer::Trainer(const Model& model, const FederatedDataset& data,
                 TrainerConfig config)
    : model_(model), data_(data), config_(std::move(config)) {
  validate(config_);
  if (config_.devices_per_round > data_.num_clients()) {
    throw std::invalid_argument(
        "Trainer: devices_per_round exceeds the dataset's devices");
  }
  if (config_.mu_policy == MuPolicy::kTheory) {
    config_.measure_dissimilarity = true;
  }
  if (!config_.solver) config_.solver = std::make_shared<SgdSolver>();
}

void Trainer::add_observer(TrainingObserver& observer) {
  if (run_started_) {
    throw std::logic_error(
        "Trainer: add_observer after run() started; register every "
        "observer before running");
  }
  observers_.push_back(&observer);
}

// The live population (sim/churn.h); without churn it is inert and
// everyone is live. The departure floor is devices_per_round so
// selection always has a full candidate set.
DeviceRegistry Trainer::make_registry() const {
  return DeviceRegistry(data_.num_clients(), config_.churn,
                        config_.devices_per_round, config_.seed);
}

TrainHistory Trainer::run() {
  CheckpointState start;
  start.fingerprint = config_fingerprint(config_, data_.num_clients(),
                                         model_.parameter_count());
  start.seed = config_.seed;
  start.mu = config_.mu;
  start.parameters = Vector(model_.parameter_count());
  Rng init_rng = make_stream(config_.seed, StreamKind::kModelInit);
  model_.init_parameters(start.parameters, init_rng);
  start.population = data_.num_clients();
  start.active = make_registry().pack_active();
  return run_impl(start);
}

TrainHistory Trainer::resume(const std::string& checkpoint_path) {
  const CheckpointState state = load_checkpoint_state(checkpoint_path);
  const std::uint64_t expected = config_fingerprint(
      config_, data_.num_clients(), model_.parameter_count());
  if (state.fingerprint != expected) {
    throw std::runtime_error(
        "Trainer::resume: checkpoint config fingerprint mismatch — the "
        "checkpoint was produced under different determinism-relevant "
        "settings (threads/shards/transport may differ; everything else "
        "must match)");
  }
  if (state.next_round == 0 || state.next_round > config_.rounds + 1) {
    throw std::runtime_error(
        "Trainer::resume: checkpoint round lies outside this run");
  }
  if (state.parameters.size() != model_.parameter_count()) {
    throw std::runtime_error(
        "Trainer::resume: checkpoint parameter dimension mismatch");
  }
  if (state.population != data_.num_clients()) {
    throw std::runtime_error("Trainer::resume: checkpoint population mismatch");
  }
  // Exactly rounds 0 .. next_round - 1, or the resumed history would
  // silently miss or repeat rounds.
  bool contiguous = state.rounds.size() == state.next_round;
  for (std::size_t i = 0; contiguous && i < state.rounds.size(); ++i) {
    contiguous = state.rounds[i].round == i;
  }
  if (!contiguous) {
    throw std::runtime_error(
        "Trainer::resume: checkpoint history is not rounds 0..next_round-1");
  }
  // The restored values themselves: a frame that decodes can still hold
  // a mu or weights no run could train from, or no live device.
  if (!(state.mu >= 0.0 && std::isfinite(state.mu))) {
    throw std::runtime_error("Trainer::resume: checkpoint mu is out of range");
  }
  if (!std::ranges::all_of(state.parameters,
                           [](double v) { return std::isfinite(v); })) {
    throw std::runtime_error("Trainer::resume: checkpoint weight not finite");
  }
  std::size_t live = 0;
  for (std::size_t k = 0; k < state.population; ++k) {
    live += (state.active[k / 8] >> (k % 8)) & 1u;
  }
  if (live == 0) {
    throw std::runtime_error("Trainer::resume: checkpoint has no live device");
  }
  return run_impl(state);
}

TrainHistory Trainer::run_impl(const CheckpointState& start) {
  run_started_ = true;
  ThreadPool pool(config_.threads);

  Vector w = start.parameters;
  MuController controller(config_.mu_policy, start.mu);
  controller.restore(start.mu_state);
  DeviceRegistry registry = make_registry();
  registry.restore(start.active, start.churn_arrivals, start.churn_departures);

  TrainHistory history;
  history.rounds.reserve(config_.rounds + 1);
  history.rounds = start.rounds;

  if (!observers_.empty()) {
    // A resumed run's first_round is the checkpointed round; the first
    // round it executes is first_round + 1.
    const std::size_t first_round =
        std::max<std::size_t>(history.rounds.size(), 1) - 1;
    const RunInfo info{.rounds = config_.rounds - first_round,
                       .first_round = first_round,
                       .num_clients = data_.num_clients(),
                       .parameter_count = w.size(),
                       .threads = pool.size(),
                       .resumed = !history.rounds.empty(),
                       .config = config_};
    for (auto* o : observers_) o->on_run_start(info);
  }

  // The federation stack for this run: the device-side runtime, the
  // channel the messages travel through, and the server-side driver that
  // executes each round as a message exchange.
  ClientRuntime runtime(model_, data_, *config_.solver, config_.seed);
  std::shared_ptr<const Transport> transport = config_.transport;
  if (!transport) transport = make_transport(TransportKind::kInProcess);
  if (config_.faults.any()) {
    transport = std::make_shared<FaultInjectingTransport>(
        std::move(transport), config_.faults, config_.seed);
  }
  RoundDriver driver(model_, data_, config_, *transport, runtime, &pool,
                     registry, observers_);

  std::optional<CheckpointWriter> checkpoints;
  if (config_.checkpoint.enabled()) checkpoints.emplace(config_.checkpoint);

  // Round 0 evaluates the initial model (the paper's plots start at w^0);
  // every later round trains, and evaluates every eval_every rounds and on
  // the last. The loop starts after the rounds the history already holds.
  for (std::size_t round = history.rounds.size(); round <= config_.rounds;
       ++round) {
    Stopwatch round_timer;

    RoundDriver::RoundOutput out;
    out.metrics.mu = controller.mu();  // round 0 trains nothing
    if (round > 0) out = driver.run_round(round - 1, controller.mu(), w);
    if (round % config_.eval_every == 0 || round == config_.rounds) {
      driver.evaluate(w, out.metrics, out.trace);
    }
    history.rounds.push_back(out.metrics);

    // Move mu for the next round *before* the checkpoint is cut, so the
    // snapshot carries exactly the state the next round would see. The
    // emitted metrics/trace only carry this round's mu.
    controller.update(out.metrics);

    if (checkpoints && round > 0 && round % config_.checkpoint.every == 0) {
      Stopwatch ckpt_timer;
      const CheckpointWriter::WriteInfo written = checkpoints->write(
          {.fingerprint = start.fingerprint,
           .seed = config_.seed,
           .next_round = round + 1,
           .mu = controller.mu(),
           .mu_state = controller.state(),
           .parameters = w,
           .population = data_.num_clients(),
           .churn_arrivals = registry.total_arrivals(),
           .churn_departures = registry.total_departures(),
           .active = registry.pack_active(),
           .rounds = history.rounds});
      out.trace.checkpoint = {.written = true,
                              .round = round,
                              .bytes = written.bytes,
                              .generations = written.generations,
                              .retain = config_.checkpoint.retain,
                              .write_seconds = ckpt_timer.seconds()};
    }

    out.trace.round_seconds = round_timer.seconds();
    for (auto* o : observers_) {
      o->on_round_end(history.rounds.back(), out.trace);
    }
  }

  history.final_parameters = std::move(w);
  for (auto* o : observers_) o->on_run_end(history);
  return history;
}

}  // namespace fed
