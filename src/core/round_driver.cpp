#include "core/round_driver.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "core/checkpoint.h"
#include "core/dissimilarity.h"
#include "core/feddane.h"
#include "obs/observer.h"
#include "sim/aggregate.h"
#include "sim/server.h"
#include "support/log.h"
#include "support/stopwatch.h"

namespace fed {

namespace {

// Simulated exponential backoff: retry k (1-based) waits
// kBackoffBaseMs * kBackoffFactor^(k-1) ms before it starts.
constexpr double kBackoffBaseMs = 10.0;
constexpr double kBackoffFactor = 2.0;

// Names the first field in which a delivered `update` fails to answer
// `broadcast`, or returns "" when it answers it: its round, its device,
// its sample count (the aggregation weight) and its straggler flag (which
// the FedAvg drop rule reads) must be the ones the server sent or knows;
// its update must have the broadcast's dimension and finite coordinates.
std::string unanswered_field(const ModelBroadcast& broadcast,
                             const ClientUpdate& update,
                             std::size_t train_size) {
  const ClientResult& r = update.result;
  if (update.round != broadcast.round) {
    return "update round " + std::to_string(update.round) +
           " is not the broadcast's " + std::to_string(broadcast.round);
  }
  if (r.device != broadcast.budget.device) {
    return "update device " + std::to_string(r.device) +
           " is not the broadcast's " + std::to_string(broadcast.budget.device);
  }
  if (r.num_samples != train_size) {
    return "update num_samples " + std::to_string(r.num_samples) +
           " is not the device's " + std::to_string(train_size) +
           " training samples";
  }
  if (r.straggler != broadcast.budget.straggler) {
    return "update straggler flag " + std::to_string(int{r.straggler}) +
           " is not the budget's " +
           std::to_string(int{broadcast.budget.straggler});
  }
  if (r.update.size() != broadcast.parameters.size()) {
    return "update has " + std::to_string(r.update.size()) +
           " coordinates, not the broadcast's " +
           std::to_string(broadcast.parameters.size());
  }
  for (std::size_t j = 0; j < r.update.size(); ++j) {
    if (!std::isfinite(r.update[j])) {
      return "update coordinate " + std::to_string(j) + " is " +
             std::to_string(r.update[j]);
    }
  }
  return {};
}

}  // namespace

struct RoundDriver::Selection {
  std::vector<std::size_t> devices;  // selection order
  std::vector<DeviceBudget> budgets;
};

// One device's journey through the recovery policy: the accepted exchange
// (when any attempt succeeded), byte charges, the simulated clock, and
// the typed incidents the fault columns are counted from. Filled by
// exactly one pool worker, read after the barrier.
struct RoundDriver::DeviceOutcome {
  ExchangeRecord record;   // the accepted exchange; meaningful iff accepted
  bool accepted = false;
  std::size_t attempts = 0;
  std::uint64_t bytes_down = 0;       // broadcast bytes, charged per attempt
  std::uint64_t failed_bytes_up = 0;  // corrupt arrivals, charged per attempt
  double arrival_ms = 0.0;  // simulated delays + backoffs through last attempt
  std::vector<FaultEvent> events;     // in attempt order
};

RoundDriver::RoundDriver(const Model& model, const FederatedDataset& data,
                         const TrainerConfig& config,
                         const Transport& transport,
                         const ClientRuntime& runtime, ThreadPool* pool,
                         DeviceRegistry& registry,
                         std::span<TrainingObserver* const> observers)
    : model_(model),
      data_(data),
      config_(config),
      transport_(transport),
      runtime_(runtime),
      pool_(pool),
      registry_(registry),
      observers_(observers),
      pk_(data.client_weights()) {}

void RoundDriver::evaluate(const Vector& w, RoundMetrics& metrics,
                           RoundTrace& trace) {
  Stopwatch timer;
  const GlobalEval eval = evaluate_global(model_, data_, w, pool_);
  metrics.train_loss = eval.train_loss;
  metrics.train_accuracy = eval.train_accuracy;
  metrics.test_accuracy = eval.test_accuracy;
  if (config_.measure_dissimilarity) {
    const auto dis = measure_dissimilarity(model_, data_, w, pool_);
    metrics.grad_variance = dis.variance;
    metrics.dissimilarity_b = dis.b;
  }
  trace.eval_seconds = timer.seconds();
  trace.evaluated = true;
}

RoundDriver::RoundOutput RoundDriver::run_round(std::size_t t, double mu,
                                                Vector& w) {
  RoundOutput out;
  out.trace.round = t + 1;

  const Selection sel = select(t, out.trace);
  for (auto* o : observers_) o->on_round_start(t + 1, sel.devices);

  std::vector<DeviceOutcome> outcomes = exchange(t, mu, w, sel, out.trace);
  apply_quorum(t + 1, sel, outcomes);

  // Report: each device's incidents in (selection order, attempt) order,
  // quorum drops last in their device's list, then the accepted updates.
  for (const DeviceOutcome& oc : outcomes) {
    for (const FaultEvent& event : oc.events) {
      for (auto* o : observers_) o->on_fault(event);
    }
  }
  for (auto* o : observers_) {
    for (const DeviceOutcome& oc : outcomes) {
      if (oc.accepted) o->on_client_result(t + 1, oc.record.result());
    }
  }

  // Contiguous selection-order slices, one per aggregator shard.
  const std::vector<ShardSlice> slices =
      plan_shards(sel.devices.size(), config_.shards);
  const ShardedServer server = aggregate(t + 1, w, slices, outcomes, out.trace);
  account(t + 1, mu, sel, slices, outcomes, server, out);

  // The departures drawn at the top of the round take effect.
  registry_.end_round(t + 1);
  return out;
}

// Churn, then selection over the live population (deterministic in (seed,
// round), identical across algorithms), then systems budgets. Arrivals
// are selectable at once; departing devices are too, but fail in the
// exchange stage.
RoundDriver::Selection RoundDriver::select(std::size_t t, RoundTrace& trace) {
  Stopwatch timer;
  const std::uint64_t arrivals_before = registry_.total_arrivals();
  registry_.begin_round(t + 1);
  trace.active_devices = registry_.active_count();
  trace.arrivals =
      static_cast<std::size_t>(registry_.total_arrivals() - arrivals_before);
  trace.departures = registry_.departing_count();

  // The same (seed, round) stream, with weights re-indexed to the live ids.
  const std::vector<std::size_t>& active = registry_.active_devices();
  std::vector<double> active_pk(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) active_pk[i] = pk_[active[i]];
  Selection sel;
  sel.devices = select_devices(
      config_.sampling, active_pk,
      std::min(config_.devices_per_round, active.size()), config_.seed, t);
  std::vector<std::size_t> train_sizes(sel.devices.size());
  for (std::size_t i = 0; i < sel.devices.size(); ++i) {
    sel.devices[i] = active[sel.devices[i]];
    train_sizes[i] = data_.clients[sel.devices[i]].train.size();
  }
  sel.budgets = assign_budgets(config_.systems, config_.seed, t, sel.devices,
                               train_sizes, config_.batch_size);
  trace.sampling_seconds = timer.seconds();
  return sel;
}

// Broadcast / local solve / collect, in parallel across devices: each
// worker drives one device's exchange through the recovery policy and
// writes only its own outcome slot. Every fault decision comes from a
// counter-keyed stream, so neither threading nor dispatch order changes
// anything but wall time.
std::vector<RoundDriver::DeviceOutcome> RoundDriver::exchange(
    std::size_t t, double mu, const Vector& w, const Selection& sel,
    RoundTrace& trace) const {
  Stopwatch timer;
  // FedDane: estimate the full gradient from the sampled devices; the
  // per-device corrections ride in the broadcasts.
  std::vector<Vector> corrections;
  if (config_.algorithm == Algorithm::kFedDane) {
    corrections = feddane_corrections(model_, data_, sel.devices, w, pool_);
    trace.correction_seconds = timer.seconds();
    timer.reset();
  }
  const RoundConfig round_config = config_.round_config(mu);
  std::vector<DeviceOutcome> outcomes(sel.devices.size());
  // Longest solves first: the round waits on its slowest device.
  const std::vector<std::size_t> order = longest_first(sel.budgets);
  pool_->parallel_for(order.size(), [&](std::size_t k) {
    const std::size_t i = order[k];
    ModelBroadcast broadcast{.round = t + 1,
                             .config = round_config,
                             .budget = sel.budgets[i],
                             .parameters = w,
                             .correction = {}};
    if (!corrections.empty()) broadcast.correction = corrections[i];
    outcomes[i] = exchange_with_recovery(broadcast, t + 1, sel.devices[i]);
  });
  trace.solve_wall_seconds = timer.seconds();
  return outcomes;
}

// Retries failed attempts (drop / corrupt / past-deadline) with simulated
// exponential backoff, up to max_retries extra attempts. A delivered
// update that does not answer its broadcast (unanswered_field) is
// rejected as a corrupt arrival, charged as one nominal update frame
// (like a damaged one) even if it came twice or at another size. A device
// that left between selection and its exchange never reaches the transport
// (so other devices' fault streams are unperturbed): each attempt is
// answered as a lost broadcast, charged and dropped, like a crashed
// phone mid-exchange. Mutates broadcast.attempt only; called
// concurrently from pool workers, touching only worker-local state.
RoundDriver::DeviceOutcome RoundDriver::exchange_with_recovery(
    ModelBroadcast& broadcast, std::size_t round, std::size_t device) const {
  const RecoveryConfig& recovery = config_.recovery;
  const bool departed = registry_.departing(device);
  DeviceOutcome oc;
  if (departed) {
    oc.events.push_back({FaultEvent::Kind::kDepart, round, device, 0,
                         "device left the federation mid-round"});
  }
  double backoff = kBackoffBaseMs;
  for (std::size_t attempt = 0; attempt <= recovery.max_retries; ++attempt) {
    broadcast.attempt = attempt;
    ExchangeRecord record;
    if (departed) {
      record.status = ExchangeStatus::kDropped;
      record.bytes_down = broadcast_wire_size(broadcast);
    } else {
      record = transport_.exchange(broadcast, runtime_);
      if (record.delivered()) {
        std::string wrong = unanswered_field(
            broadcast, record.update, data_.clients[device].train.size());
        if (!wrong.empty()) {
          record.status = ExchangeStatus::kCorrupt;
          record.error = std::move(wrong);
          record.bytes_up = update_wire_size(broadcast.parameters.size());
          record.duplicate = false;
        }
      }
    }
    ++oc.attempts;
    oc.bytes_down += record.bytes_down;
    oc.arrival_ms += record.channel_delay_ms;
    switch (record.status) {
      case ExchangeStatus::kDropped:
        oc.events.push_back({FaultEvent::Kind::kDrop, round, device, attempt,
                             departed ? "device departed; update lost in flight"
                                      : "update lost in flight"});
        break;
      case ExchangeStatus::kCorrupt:
        oc.failed_bytes_up += record.bytes_up;
        oc.events.push_back({FaultEvent::Kind::kCorrupt, round, device,
                             attempt, record.error});
        break;
      case ExchangeStatus::kDelivered:
        if (recovery.deadline_ms > 0.0 &&
            record.channel_delay_ms > recovery.deadline_ms) {
          // Arrived past the round window: the server never saw it, so it
          // moves no measured bytes (the FedAvg dropped-straggler rule).
          std::ostringstream detail;
          detail << "delivery took " << record.channel_delay_ms
                 << " ms, past the " << recovery.deadline_ms
                 << " ms deadline";
          oc.events.push_back({FaultEvent::Kind::kTimeout, round, device,
                               attempt, detail.str()});
          break;
        }
        if (record.duplicate) {
          oc.events.push_back({FaultEvent::Kind::kDuplicate, round, device,
                               attempt,
                               "update delivered twice; deduplicated"});
        }
        oc.accepted = true;
        oc.record = std::move(record);
        return oc;
    }
    if (attempt < recovery.max_retries) {
      oc.arrival_ms += backoff;  // simulated wait before the retry
      backoff *= kBackoffFactor;
    }
  }
  std::ostringstream detail;
  detail << "no accepted update after " << oc.attempts << " attempts"
         << (departed ? " (device departed)" : "");
  oc.events.push_back({FaultEvent::Kind::kDeviceFailed, round, device,
                       oc.attempts, detail.str()});
  return oc;
}

// Aggregation proceeds once ceil(quorum * selected) devices have reported
// by simulated arrival time; successes arriving after the cutoff are
// revoked like any other lost update. With a faultless channel every
// arrival is at 0 ms, so the cutoff keeps everyone.
void RoundDriver::apply_quorum(std::size_t round, const Selection& sel,
                               std::vector<DeviceOutcome>& outcomes) const {
  const double quorum = config_.recovery.quorum;
  if (quorum >= 1.0) return;
  std::vector<std::size_t> successes;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].accepted) successes.push_back(i);
  }
  const auto needed = static_cast<std::size_t>(
      std::ceil(quorum * static_cast<double>(sel.devices.size())));
  if (successes.size() <= needed || needed == 0) return;
  std::stable_sort(successes.begin(), successes.end(),
                   [&](std::size_t a, std::size_t b) {
                     return outcomes[a].arrival_ms < outcomes[b].arrival_ms;
                   });
  // Ties with the q-th earliest arrival are kept.
  const double cutoff = outcomes[successes[needed - 1]].arrival_ms;
  for (std::size_t i : successes) {
    DeviceOutcome& oc = outcomes[i];
    if (oc.arrival_ms <= cutoff) continue;
    oc.accepted = false;
    std::ostringstream detail;
    detail << "arrived at " << oc.arrival_ms << " ms, after the quorum "
           << "cutoff of " << cutoff << " ms (" << needed << "/"
           << sel.devices.size() << " reported)";
    oc.events.push_back({FaultEvent::Kind::kQuorumDrop, round, sel.devices[i],
                         oc.attempts - 1, detail.str()});
  }
}

// Whether an accepted update joins the aggregate: FedAvg drops its
// stragglers, FedProx/FedDane keep them.
bool RoundDriver::contributes(const DeviceOutcome& oc) const {
  return oc.accepted && !(config_.algorithm == Algorithm::kFedAvg &&
                          oc.record.result().straggler);
}

// Hierarchical aggregation: each shard folds its contributing updates
// into an exact partial sum (on the pool, inside reduce()), and the root
// merges the FPS2-encoded partials (sim/sharded.h). The partials are
// exact, so the shard count cannot change the model. The staged updates
// live in `outcomes`, which outlives reduce().
ShardedServer RoundDriver::aggregate(std::size_t round, Vector& w,
                                     std::span<const ShardSlice> slices,
                                     const std::vector<DeviceOutcome>& outcomes,
                                     RoundTrace& trace) {
  Stopwatch timer;
  ShardedServer server(config_.sampling, w.size(), slices.size(), pool_);
  for (std::size_t s = 0; s < slices.size(); ++s) {
    for (std::size_t i = slices[s].begin; i < slices[s].end; ++i) {
      if (!contributes(outcomes[i])) continue;
      const ClientResult& r = outcomes[i].record.result();
      server.stage(s,
                   {r.device, &r.update, static_cast<double>(r.num_samples)});
    }
  }
  if (config_.crash.armed() && config_.crash.at_round == round) {
    // Fault injection for the soak harness: die mid-aggregation, after
    // the partials are staged but before the global model moves — the
    // worst spot for a naive recovery story. Nothing from this round
    // commits (no on_round_end, no checkpoint, no registry end_round),
    // so a resume from the last checkpoint replays it bit-identically.
    throw ServerCrashed(round);
  }
  trace.degraded = !server.reduce(round, w);
  trace.aggregate_seconds = timer.seconds();
  if (trace.degraded) {
    // Zero updates survived to aggregation (every device failed, timed
    // out, missed quorum, or — under FedAvg — straggled). The global
    // model is kept unchanged and the round is reported as a single
    // typed incident, not an error.
    std::ostringstream detail;
    detail << "0 of " << outcomes.size()
           << " selected devices contributed an update; keeping w";
    const FaultEvent event{FaultEvent::Kind::kRoundDegraded, round, 0, 0,
                           detail.str()};
    for (auto* o : observers_) o->on_fault(event);
    log_debug() << "round " << round << ": " << detail.str();
  }
  for (auto* o : observers_) o->on_aggregate(round, std::span<const double>(w));
  return server;
}

// One pass over the outcomes, shard by shard in selection order. Bytes
// down are charged per attempt. Bytes up are charged per delivery that
// reached the server in the round window: contributing updates (twice
// when duplicated) and corrupt arrivals, but not FedAvg-dropped
// stragglers, timeouts, or quorum drops — those never report back within
// the window. Duplicates count only on accepted updates, so one the
// quorum cut revoked is not counted.
void RoundDriver::account(std::size_t round, double mu, const Selection& sel,
                          std::span<const ShardSlice> slices,
                          const std::vector<DeviceOutcome>& outcomes,
                          const ShardedServer& server, RoundOutput& out) const {
  RoundTrace& trace = out.trace;
  CommFaultStats& faults = trace.faults;
  trace.selected = sel.devices.size();
  trace.contributors = server.total_contributors();
  trace.shards.resize(slices.size());
  std::vector<double> solve_times;
  solve_times.reserve(outcomes.size());
  std::size_t slowest = 0;  // the first accepted device with the max
  double gamma_total = 0.0;
  std::size_t gamma_count = 0;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    ShardStat& shard = trace.shards[s];
    shard.shard = s;
    shard.devices = slices[s].size();
    shard.contributors = server.contributors(s);
    shard.partial_bytes = server.partial_bytes(s);
    for (std::size_t i = slices[s].begin; i < slices[s].end; ++i) {
      const DeviceOutcome& oc = outcomes[i];
      shard.bytes_down += oc.bytes_down;
      shard.bytes_up += oc.failed_bytes_up;
      faults.attempts += oc.attempts;
      faults.delay_ms += oc.arrival_ms;
      for (const FaultEvent& event : oc.events) {
        switch (event.kind) {
          case FaultEvent::Kind::kDrop: ++faults.drops; break;
          case FaultEvent::Kind::kCorrupt: ++faults.corruptions; break;
          case FaultEvent::Kind::kTimeout: ++faults.timeouts; break;
          case FaultEvent::Kind::kDuplicate:
            if (oc.accepted) ++faults.duplicates;
            break;
          case FaultEvent::Kind::kDeviceFailed: ++faults.failed_devices; break;
          case FaultEvent::Kind::kQuorumDrop: ++faults.quorum_drops; break;
          case FaultEvent::Kind::kDepart: ++faults.departs; break;
          case FaultEvent::Kind::kRoundDegraded: break;
        }
      }
      if (!oc.accepted) continue;
      const ClientResult& r = oc.record.result();
      if (r.straggler) ++trace.stragglers;
      if (contributes(oc)) {
        shard.bytes_up += oc.record.bytes_up;
        faults.up_deliveries += oc.record.duplicate ? 2 : 1;
      }
      if (solve_times.empty() ||
          r.solve_seconds > outcomes[slowest].record.result().solve_seconds) {
        slowest = i;
      }
      solve_times.push_back(r.solve_seconds);
      if (r.gamma_measured) {
        gamma_total += r.gamma;
        ++gamma_count;
      }
    }
    trace.bytes_down += shard.bytes_down;
    trace.bytes_up += shard.bytes_up;
  }
  faults.retries = faults.attempts - sel.devices.size();
  faults.up_deliveries += faults.corruptions;  // corrupt arrivals, charged
  trace.solve = SolveStats::from_samples(solve_times);
  if (!solve_times.empty()) {
    trace.solve.max_device = sel.devices[slowest];
    trace.solve.max_iterations = sel.budgets[slowest].iterations;
  }

  RoundMetrics& m = out.metrics;
  m.round = round;
  m.mu = mu;
  m.contributors = trace.contributors;
  m.stragglers = trace.stragglers;
  if (config_.measure_gamma && gamma_count > 0) {
    m.mean_gamma = gamma_total / static_cast<double>(gamma_count);
  }
}

}  // namespace fed
