#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "comm/client_runtime.h"
#include "comm/transport.h"
#include "core/checkpoint.h"
#include "core/config.h"
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

std::vector<std::pair<std::size_t, double>> TrainHistory::loss_series() const {
  std::vector<std::pair<std::size_t, double>> out;
  for (const auto& r : rounds) {
    if (r.evaluated()) out.emplace_back(r.round, *r.train_loss);
  }
  return out;
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
  if (config_.theory_mu) config_.measure_dissimilarity = true;
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

TrainHistory Trainer::run() { return run_impl(nullptr); }

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
  const auto bad = [](double mu) { return !(mu >= 0.0 && std::isfinite(mu)); };
  if (bad(state.mu) || (state.adaptive && bad(state.adaptive->mu)) ||
      (state.theory && bad(state.theory->mu))) {
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
  return run_impl(&state);
}

TrainHistory Trainer::run_impl(const CheckpointState* restored) {
  run_started_ = true;
  ThreadPool pool(config_.threads);

  const std::size_t d = model_.parameter_count();

  // The first `t` the round loop executes: 0, or for a resumed run the
  // checkpointed boundary — everything before it is already in the
  // restored history.
  const std::size_t start_t =
      restored ? static_cast<std::size_t>(restored->next_round) - 1 : 0;

  Vector w(d);
  if (restored) {
    w = restored->parameters;
  } else {
    Rng init_rng = make_stream(config_.seed, StreamKind::kModelInit);
    model_.init_parameters(w, init_rng);
  }

  std::optional<AdaptiveMu> adaptive;
  std::optional<DissimilarityMu> theory;
  double mu = config_.mu;
  if (config_.adaptive_mu.enabled) {
    adaptive.emplace(config_.adaptive_mu.initial_mu);
    mu = adaptive->mu();
  } else if (config_.theory_mu) {
    theory.emplace();
    mu = theory->mu();
  }
  if (restored) {
    mu = restored->mu;
    if (adaptive && restored->adaptive) adaptive->restore(*restored->adaptive);
    if (theory && restored->theory) theory->restore(*restored->theory);
  }

  // The live population (sim/churn.h); without churn it is inert and
  // everyone is live. The departure floor is raised to devices_per_round
  // so selection always has a full candidate set.
  ChurnConfig churn = config_.churn;
  churn.min_active = std::max(churn.min_active, config_.devices_per_round);
  DeviceRegistry registry(data_.num_clients(), churn, config_.seed);
  if (restored) {
    registry.restore(restored->active, restored->churn_arrivals,
                     restored->churn_departures);
  }

  TrainHistory history;
  history.rounds.reserve(config_.rounds + 1);
  if (restored) history.rounds = restored->rounds;

  if (!observers_.empty()) {
    // Resumed: first_round is the checkpointed round, and the first
    // executed round is + 1.
    const RunInfo info{.rounds = config_.rounds - start_t,
                       .first_round = start_t,
                       .num_clients = data_.num_clients(),
                       .parameter_count = d,
                       .threads = pool.size(),
                       .resumed = restored != nullptr,
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
  const std::uint64_t fingerprint =
      config_fingerprint(config_, data_.num_clients(), d);

  // Round 0 metrics: the initial model (the paper's plots start at w^0).
  // A resumed run already recorded it — its history carries over whole.
  if (!restored) {
    Stopwatch round_timer;
    RoundMetrics m;
    m.mu = mu;
    RoundTrace trace;
    driver.evaluate(w, m, trace);
    trace.round_seconds = round_timer.seconds();
    history.rounds.push_back(m);
    for (auto* o : observers_) o->on_round_end(history.rounds.back(), trace);
    if (adaptive) mu = adaptive->update(*m.train_loss);
    if (theory && m.dissimilarity_b) mu = theory->update(*m.dissimilarity_b);
  }

  for (std::size_t t = start_t; t < config_.rounds; ++t) {
    Stopwatch round_timer;

    RoundDriver::RoundOutput out = driver.run_round(t, mu, w);

    const bool do_eval =
        ((t + 1) % config_.eval_every == 0) || (t + 1 == config_.rounds);
    if (do_eval) driver.evaluate(w, out.metrics, out.trace);
    history.rounds.push_back(out.metrics);

    // Move mu for the next round *before* the checkpoint is cut, so the
    // snapshot carries exactly the state the next round would see. The
    // reorder relative to on_round_end is observably safe: the emitted
    // metrics/trace only carry this round's mu, never the next one's.
    if (adaptive && out.metrics.evaluated()) {
      mu = adaptive->update(*out.metrics.train_loss);
    }
    if (theory && out.metrics.evaluated() && out.metrics.dissimilarity_b) {
      mu = theory->update(*out.metrics.dissimilarity_b);
    }

    if (checkpoints && (t + 1) % config_.checkpoint.every == 0) {
      Stopwatch ckpt_timer;
      CheckpointState state;
      state.fingerprint = fingerprint;
      state.seed = config_.seed;
      state.next_round = t + 2;  // 1-based id of the next round to execute
      state.mu = mu;
      if (adaptive) state.adaptive = adaptive->state();
      if (theory) state.theory = theory->state();
      state.parameters = w;
      state.population = data_.num_clients();
      state.churn_arrivals = registry.total_arrivals();
      state.churn_departures = registry.total_departures();
      state.active = registry.pack_active();
      state.rounds = history.rounds;
      const CheckpointWriter::WriteInfo written = checkpoints->write(state);
      out.trace.checkpoint = {.written = true,
                              .round = t + 1,
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
