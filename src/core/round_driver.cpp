#include "core/round_driver.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/checkpoint.h"
#include "core/dissimilarity.h"
#include "core/feddane.h"
#include "obs/observer.h"
#include "obs/trace_context.h"
#include "sim/aggregate.h"
#include "sim/server.h"
#include "sim/sharded.h"
#include "support/log.h"
#include "support/stopwatch.h"

namespace fed {

RoundDriver::RoundDriver(const Model& model, const FederatedDataset& data,
                         const TrainerConfig& config,
                         const Transport& transport,
                         const ClientRuntime& runtime, ThreadPool* pool,
                         DeviceRegistry* registry,
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

RoundDriver::DeviceOutcome RoundDriver::exchange_with_recovery(
    ModelBroadcast& broadcast, std::size_t round, std::size_t device) const {
  const RecoveryConfig& recovery = config_.recovery;
  DeviceOutcome oc;
  double backoff = recovery.backoff_base_ms;
  for (std::size_t attempt = 0; attempt <= recovery.max_retries; ++attempt) {
    broadcast.attempt = attempt;
    ExchangeRecord record = transport_.exchange(broadcast, runtime_);
    ++oc.attempts;
    oc.bytes_down += record.bytes_down;
    oc.arrival_ms += record.channel_delay_ms;
    switch (record.status) {
      case ExchangeStatus::kDropped:
        ++oc.drops;
        oc.events.push_back({FaultEvent::Kind::kDrop, round, device, attempt,
                             "update lost in flight"});
        break;
      case ExchangeStatus::kCorrupt:
        ++oc.corruptions;
        oc.failed_bytes_up += record.bytes_up;
        oc.events.push_back({FaultEvent::Kind::kCorrupt, round, device,
                             attempt, record.error});
        break;
      case ExchangeStatus::kDelivered:
        if (recovery.deadline_ms > 0.0 &&
            record.channel_delay_ms > recovery.deadline_ms) {
          // Arrived past the round window: the server never saw it, so it
          // moves no measured bytes (the FedAvg dropped-straggler rule).
          ++oc.timeouts;
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
      backoff *= recovery.backoff_factor;
    }
  }
  std::ostringstream detail;
  detail << "no accepted update after " << oc.attempts << " attempts";
  oc.events.push_back({FaultEvent::Kind::kDeviceFailed, round, device,
                       oc.attempts, detail.str()});
  return oc;
}

RoundDriver::DeviceOutcome RoundDriver::departed_outcome(
    const ModelBroadcast& broadcast, std::size_t round,
    std::size_t device) const {
  const RecoveryConfig& recovery = config_.recovery;
  const auto per_attempt =
      static_cast<std::uint64_t>(broadcast_wire_size(broadcast));
  DeviceOutcome oc;
  oc.departed = true;
  oc.events.push_back({FaultEvent::Kind::kDepart, round, device, 0,
                       "device left the federation mid-round"});
  double backoff = recovery.backoff_base_ms;
  for (std::size_t attempt = 0; attempt <= recovery.max_retries; ++attempt) {
    ++oc.attempts;
    ++oc.drops;
    oc.bytes_down += per_attempt;
    oc.events.push_back({FaultEvent::Kind::kDrop, round, device, attempt,
                         "device departed; update lost in flight"});
    if (attempt < recovery.max_retries) {
      oc.arrival_ms += backoff;
      backoff *= recovery.backoff_factor;
    }
  }
  std::ostringstream detail;
  detail << "no accepted update after " << oc.attempts
         << " attempts (device departed)";
  oc.events.push_back({FaultEvent::Kind::kDeviceFailed, round, device,
                       oc.attempts, detail.str()});
  return oc;
}

RoundDriver::RoundOutput RoundDriver::run_round(std::size_t t, double mu,
                                                Vector& w) {
  RoundOutput out;
  RoundTrace& trace = out.trace;
  trace.round = t + 1;
  Stopwatch phase_timer;

  // The round's trace context: deterministic in (seed, round), stamped
  // into every message this round moves so device- and shard-side work
  // correlates back to it across the wire (obs/trace_context.h).
  const TraceContext round_ctx = make_round_trace_context(config_.seed, t + 1);

  // 0. Churn: draw this round's arrivals and departures. Arrivals are
  //    selectable immediately; departing devices stay selectable but fail
  //    mid-round (departed_outcome). With an inert registry everything
  //    below reduces to the closed-world path bit for bit.
  const bool open_world = registry_ != nullptr && registry_->config().any();
  std::uint64_t arrivals_before = 0;
  if (open_world) {
    arrivals_before = registry_->total_arrivals();
    registry_->begin_round(t + 1);
    trace.active_devices = registry_->active_count();
    trace.arrivals = static_cast<std::size_t>(registry_->total_arrivals() -
                                              arrivals_before);
    trace.departures = registry_->departing_count();
  } else {
    trace.active_devices = pk_.size();
  }

  // 1. Select devices (deterministic in (seed, round); identical across
  //    algorithms under the same seed). Open-world selection draws over
  //    the live population only — the same (seed, round) stream, with
  //    weights re-indexed to the active ids.
  // 2. Assign systems budgets (who straggles, how much work each gets).
  std::vector<std::size_t> selected;
  std::vector<DeviceBudget> budgets;
  {
    if (open_world) {
      const std::vector<std::size_t>& active = registry_->active_devices();
      std::vector<double> active_pk(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) {
        active_pk[i] = pk_[active[i]];
      }
      const std::size_t per_round =
          std::min(config_.devices_per_round, active.size());
      selected = select_devices(config_.sampling, active_pk, per_round,
                                config_.seed, t);
      for (std::size_t& idx : selected) idx = active[idx];
    } else {
      selected = select_devices(config_.sampling, pk_,
                                config_.devices_per_round, config_.seed, t);
    }
    std::vector<std::size_t> train_sizes(selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i) {
      train_sizes[i] = data_.clients[selected[i]].train.size();
    }
    budgets = assign_budgets(config_.systems, config_.seed, t, selected,
                             train_sizes, config_.batch_size);
  }
  trace.sampling_seconds = phase_timer.seconds();

  for (auto* o : observers_) o->on_round_start(t + 1, selected);

  // 3. FedDane: estimate the full gradient from the sampled devices. The
  //    per-device corrections ride in the broadcasts below.
  std::vector<Vector> corrections;
  if (config_.algorithm == Algorithm::kFedDane) {
    phase_timer.reset();
    corrections = feddane_corrections(model_, data_, selected, w, pool_);
    trace.correction_seconds = phase_timer.seconds();
  }

  // 4. Broadcast / local solve / collect, in parallel across devices:
  //    each worker drives one device's exchange through the transport
  //    under the recovery policy — bounded retries with simulated
  //    exponential backoff, deadline classification — recording every
  //    channel incident as a typed event. Workers only touch their own
  //    outcome slot, and every fault decision comes from a counter-keyed
  //    stream, so determinism is untouched; events, byte counts, and the
  //    quorum cut are processed after the barrier on the round thread.
  const RoundConfig round_config = config_.round_config(mu);
  const RecoveryConfig& recovery = config_.recovery;
  std::vector<DeviceOutcome> outcomes(selected.size());
  phase_timer.reset();
  {
    // Longest solves first: the round waits on its slowest device, and
    // each device writes only its own outcome slot, so the order changes
    // wall time alone.
    const std::vector<std::size_t> order = longest_first(budgets);
    pool_->parallel_for(order.size(), [&](std::size_t k) {
      const std::size_t i = order[k];
      const std::uint64_t exchange_span_id = derive_trace_span(
          round_ctx.trace_id, TraceSpanKind::kExchange, selected[i]);
      ModelBroadcast broadcast{.round = t + 1,
                               .trace = {round_ctx.trace_id, exchange_span_id},
                               .config = round_config,
                               .budget = budgets[i],
                               .parameters = w,
                               .correction = {}};
      if (!corrections.empty()) broadcast.correction = corrections[i];
      if (open_world && registry_->departing(selected[i])) {
        // The device left between selection and its exchange: nothing
        // touches the transport (so fault streams for other devices are
        // unperturbed), but every attempt's broadcast is charged and lost.
        outcomes[i] = departed_outcome(broadcast, t + 1, selected[i]);
      } else {
        outcomes[i] = exchange_with_recovery(broadcast, t + 1, selected[i]);
      }
    });
  }
  trace.solve_wall_seconds = phase_timer.seconds();

  // Quorum cut, on the round thread: aggregation proceeds once
  // ceil(quorum * selected) devices have reported by simulated arrival
  // time; successes arriving after the cutoff are dropped like any other
  // lost update. With a faultless channel every arrival is at 0 ms, so
  // the cutoff keeps everyone and history stays bit-identical.
  if (recovery.quorum < 1.0) {
    std::vector<std::size_t> successes;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].accepted) successes.push_back(i);
    }
    const auto needed = static_cast<std::size_t>(std::ceil(
        recovery.quorum * static_cast<double>(selected.size())));
    if (successes.size() > needed && needed > 0) {
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
        oc.quorum_dropped = true;
        std::ostringstream detail;
        detail << "arrived at " << oc.arrival_ms << " ms, after the quorum "
               << "cutoff of " << cutoff << " ms (" << needed << "/"
               << selected.size() << " reported)";
        oc.events.push_back({FaultEvent::Kind::kQuorumDrop, t + 1, selected[i],
                             oc.attempts - 1, detail.str()});
      }
    }
  }

  // Fault fan-out: per-device incidents in (selection order, attempt)
  // order — quorum drops ride at the end of their device's list — all on
  // the round thread. A healthy round emits nothing.
  for (const auto& oc : outcomes) {
    for (const auto& event : oc.events) {
      for (auto* o : observers_) o->on_fault(event);
    }
  }

  for (auto* o : observers_) {
    for (const auto& oc : outcomes) {
      if (oc.accepted) o->on_client_result(t + 1, oc.record.result());
    }
  }

  // 5. Aggregate, hierarchically: the selected devices are split into
  //    contiguous selection-order slices, one per aggregator shard, each
  //    shard folds its accepted updates into an exact partial sum (on
  //    the pool, inside reduce()), and the root merges the FPS2-encoded
  //    partials (sim/sharded.h). The partials are exact, so the shard
  //    count cannot change the model. The staged updates live in
  //    `outcomes`, which outlives reduce().
  //    FedAvg drops stragglers; FedProx/FedDane keep them. Upload bytes
  //    are charged per delivery that reached the server in the round
  //    window: accepted updates (twice when duplicated) and corrupt
  //    arrivals, but not FedAvg-dropped stragglers, timeouts, or quorum
  //    drops — those never report back within the window, so their
  //    updates move no measured bytes.
  phase_timer.reset();
  const std::vector<ShardSlice> slices =
      plan_shards(selected.size(), config_.shards);
  std::vector<std::size_t> shard_of(selected.size());
  std::vector<ShardStat> shard_stats(slices.size());
  for (std::size_t s = 0; s < slices.size(); ++s) {
    shard_stats[s].shard = s;
    shard_stats[s].devices = slices[s].size();
    for (std::size_t i = slices[s].begin; i < slices[s].end; ++i) {
      shard_of[i] = s;
    }
  }
  ShardedServer server(config_.sampling, w.size(), slices.size(), pool_);
  std::uint64_t bytes_up = 0;
  std::size_t up_deliveries = 0;
  std::size_t straggler_total = 0;
  bool updated = false;
  {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const DeviceOutcome& oc = outcomes[i];
      if (!oc.accepted) continue;
      const ClientResult& r = oc.record.result();
      if (r.straggler) ++straggler_total;
      if (config_.algorithm == Algorithm::kFedAvg && r.straggler) continue;
      server.stage(shard_of[i],
                   {r.device, &r.update, static_cast<double>(r.num_samples)});
      bytes_up += oc.record.bytes_up;
      shard_stats[shard_of[i]].bytes_up += oc.record.bytes_up;
      up_deliveries += oc.record.duplicate ? 2 : 1;
    }
    if (config_.crash.armed() && config_.crash.at_round == t + 1) {
      // Fault injection for the soak harness: die mid-aggregation, after
      // the partials are staged but before the global model moves — the
      // worst spot for a naive recovery story. Nothing from this round
      // commits (no on_round_end, no checkpoint, no registry end_round),
      // so a resume from the last checkpoint replays it bit-identically.
      throw ServerCrashed(t + 1);
    }
    updated = server.reduce(t + 1, w, round_ctx);
  }
  trace.aggregate_seconds = phase_timer.seconds();
  for (std::size_t s = 0; s < shard_stats.size(); ++s) {
    shard_stats[s].contributors = server.contributors(s);
    shard_stats[s].partial_bytes = server.partial_bytes(s);
  }
  if (!updated) {
    // Degraded round: zero accepted updates survived to aggregation
    // (every device failed, timed out, missed quorum, or — under FedAvg —
    // straggled). The global model is kept unchanged; the round is marked
    // degraded in the trace and reported as a single typed incident, not
    // an error.
    trace.degraded = true;
    std::ostringstream detail;
    detail << "0 of " << selected.size()
           << " selected devices contributed an update; keeping w";
    const FaultEvent event{FaultEvent::Kind::kRoundDegraded, t + 1, 0, 0,
                           detail.str()};
    for (auto* o : observers_) o->on_fault(event);
    log_debug() << "round " << t + 1 << ": " << detail.str();
  }

  for (auto* o : observers_) {
    o->on_aggregate(t + 1, std::span<const double>(w));
  }

  trace.selected = selected.size();
  trace.contributors = server.total_contributors();
  trace.stragglers = straggler_total;
  CommFaultStats& faults = trace.faults;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const DeviceOutcome& oc = outcomes[i];
    trace.bytes_down += oc.bytes_down;
    shard_stats[shard_of[i]].bytes_down += oc.bytes_down;
    bytes_up += oc.failed_bytes_up;  // corrupt arrivals, charged per attempt
    shard_stats[shard_of[i]].bytes_up += oc.failed_bytes_up;
    faults.attempts += oc.attempts;
    faults.drops += oc.drops;
    faults.corruptions += oc.corruptions;
    faults.timeouts += oc.timeouts;
    faults.delay_ms += oc.arrival_ms;
    if (oc.accepted && oc.record.duplicate) ++faults.duplicates;
    if (oc.quorum_dropped) ++faults.quorum_drops;
    if (!oc.accepted && !oc.quorum_dropped) ++faults.failed_devices;
    if (oc.departed) ++faults.departs;
  }
  faults.retries = faults.attempts - selected.size();
  // Charged deliveries: contributor updates (twice when duplicated) plus
  // corrupt arrivals, matching the bytes_up sum delivery for delivery.
  faults.up_deliveries = up_deliveries + faults.corruptions;
  trace.bytes_up = bytes_up;
  trace.shards = std::move(shard_stats);
  {
    std::vector<double> solve_times;
    solve_times.reserve(outcomes.size());
    std::size_t slowest = 0;  // the first accepted device with the max
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].accepted) continue;
      const double seconds = outcomes[i].record.result().solve_seconds;
      if (solve_times.empty() ||
          seconds > outcomes[slowest].record.result().solve_seconds) {
        slowest = i;
      }
      solve_times.push_back(seconds);
    }
    trace.solve = SolveStats::from_samples(solve_times);
    if (!solve_times.empty()) {
      trace.solve.max_device = selected[slowest];
      trace.solve.max_iterations = budgets[slowest].iterations;
    }
  }

  // 6. Record metrics (evaluation, if due, is the caller's).
  RoundMetrics& m = out.metrics;
  m.round = t + 1;
  m.mu = mu;
  m.contributors = trace.contributors;
  m.stragglers = straggler_total;
  if (config_.measure_gamma) {
    double total = 0.0;
    std::size_t count = 0;
    for (const auto& oc : outcomes) {
      if (oc.accepted && oc.record.result().gamma_measured) {
        total += oc.record.result().gamma;
        ++count;
      }
    }
    if (count > 0) m.mean_gamma = total / static_cast<double>(count);
  }

  // 7. Churn: the departures drawn at the top of the round take effect.
  if (open_world) registry_->end_round(t + 1);
  return out;
}

}  // namespace fed
