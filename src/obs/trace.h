// Per-round phase timing: where a federated round's wall-clock time goes.
//
// The paper's systems-heterogeneity claims (Figs. 1, 5, 9) are about how
// rounds spend their time — stragglers, partial local work, per-device
// solve cost. A RoundTrace records the breakdown the Trainer measures for
// every round: device sampling, the per-client local solves (min/mean/max
// across contributors), aggregation, and global evaluation, plus the
// exact communication bytes the round's Transport reported for its
// broadcasts and updates (comm/transport.h). Traces are produced on the
// round thread only; wall times vary run to run but every structural
// field (counts, bytes) is deterministic in (seed, round).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "support/json.h"

namespace fed {

// Distribution of per-client local-solve wall times within one round,
// and who ran the slowest one: a round waits on its longest solve, so the
// slowest device and its iteration budget say whether a slow round was a
// straggler's partial work or a full-budget device on a large shard.
// Both follow the measured times, so like them they may differ between
// reruns; with count == 0 they are 0.
struct SolveStats {
  std::size_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double mean_seconds = 0.0;
  double max_seconds = 0.0;
  std::size_t max_device = 0;      // the device that ran max_seconds
  std::size_t max_iterations = 0;  // that device's iteration budget

  static SolveStats from_samples(std::span<const double> seconds);
};

// Channel fault and recovery accounting for one round (comm/fault.h).
// All counts are zero on a faultless channel, where attempts == selected
// and up_deliveries == contributors — the pre-fault invariants.
struct CommFaultStats {
  std::size_t attempts = 0;       // transport exchange attempts
  std::size_t retries = 0;        // attempts beyond each device's first
  std::size_t drops = 0;          // attempts whose update was lost
  std::size_t corruptions = 0;    // attempts rejected as corrupt
  std::size_t timeouts = 0;       // attempts past the delivery deadline
  std::size_t duplicates = 0;     // accepted updates delivered twice
  std::size_t quorum_drops = 0;   // successes after the quorum cutoff
  std::size_t departs = 0;        // selected devices that left mid-round
  std::size_t failed_devices = 0; // selected devices with no accepted update
  std::size_t up_deliveries = 0;  // update deliveries charged to bytes_up
  double delay_ms = 0.0;          // injected latency + backoff, simulated
};

// One aggregator shard's share of a round (sim/sharded.h). Shard slices
// partition the selected devices, so across a round's shards the device,
// contributor, and byte columns sum to the round-level totals — an
// invariant check_round_trace enforces.
struct ShardStat {
  std::size_t shard = 0;          // shard index, dense from 0
  std::size_t devices = 0;        // selected devices owned by this shard
  std::size_t contributors = 0;   // accepted updates accumulated here
  std::uint64_t bytes_down = 0;   // broadcast bytes over owned devices
  std::uint64_t bytes_up = 0;     // update bytes over owned contributors
  std::uint64_t partial_bytes = 0;  // FPS2 partial-sum bytes shipped to root
};

// One durable checkpoint write (core/checkpoint.h), attached to the
// round whose boundary it captured. `written` is false on rounds where
// the cadence did not fire (the block is then omitted from the JSONL).
struct CheckpointStat {
  bool written = false;
  std::size_t round = 0;        // last completed round the file captures
  std::uint64_t bytes = 0;      // encoded FPC1 frame size
  std::size_t generations = 0;  // files retained after pruning
  std::size_t retain = 0;       // the configured retention bound
  double write_seconds = 0.0;   // encode + temp write + rename, wall time
};

struct RoundTrace {
  std::size_t round = 0;
  bool evaluated = false;        // eval_seconds covers a real evaluation
  std::size_t selected = 0;      // devices selected this round
  std::size_t contributors = 0;  // as RoundMetrics::contributors
  std::size_t stragglers = 0;    // as RoundMetrics::stragglers
  CommFaultStats faults;         // channel fault/recovery accounting
  std::vector<ShardStat> shards; // per-shard slice of this round's work
  bool degraded = false;         // aggregation saw zero updates; w was kept

  // Open-world churn (sim/churn.h): the live population this round and
  // the arrivals/mid-round departures its schedule produced. In a closed
  // world active == the dataset's device count and the others stay 0.
  std::size_t active_devices = 0;
  std::size_t arrivals = 0;
  std::size_t departures = 0;

  CheckpointStat checkpoint;     // durable snapshot, when the cadence fired

  // Phase wall times, in seconds, measured on the round thread.
  double sampling_seconds = 0.0;    // device selection + budget assignment
  double correction_seconds = 0.0;  // FedDane gradient estimate (else 0)
  SolveStats solve;                 // per-client solve times (worker-local)
  double solve_wall_seconds = 0.0;  // the parallel_for, as the round saw it
  double aggregate_seconds = 0.0;   // contribution filtering + weighted sum
  double eval_seconds = 0.0;        // global eval (+ dissimilarity); 0 if skipped
  double round_seconds = 0.0;       // whole round, sampling through eval

  // Communication traffic, as measured by the round's Transport: exact
  // wire bytes (envelope + float64 payloads; support/serialize.h). A
  // dropped FedAvg straggler never reports back, so its upload is not
  // charged.
  std::uint64_t bytes_down = 0;  // broadcast bytes, over selected devices
  std::uint64_t bytes_up = 0;    // update bytes, over contributors only
};

// What one JSONL round line holds.
struct RoundLine {
  RoundMetrics metrics;
  RoundTrace trace;
};

// One JSONL round line, both ways, through two field lists: the trace's
// keys (obs/trace.cpp), then visit_metrics' (core/trainer.h) under
// "metrics", an unset optional as null. A metrics key the trace part
// holds (round, contributors, stragglers) is written once, there. The
// "checkpoint" block is present only when checkpoint.written.
// round_line_from_json ignores unknown keys and throws
// std::runtime_error naming the dotted key ("faults.drops",
// "shards[1].bytes_up", "metrics.mu") that is missing, mistyped, or a
// count outside the integers [0, 2^53], or a member of a metrics group
// that is set while another is null.
JsonValue round_line_to_json(const RoundMetrics& metrics,
                             const RoundTrace& trace);
RoundLine round_line_from_json(const JsonValue& value);

// The accounting every trainer-produced trace obeys, or the first
// violation ("" when none): attempts cover the selected devices and
// retries follow failures; every selected device fails, misses the
// quorum or is accepted (an accepted one contributes unless FedAvg drops
// it as a straggler), and a departed one fails; a degraded round has no
// contributors; bytes move iff attempts / charged deliveries do and
// split evenly over them; shards are dense, each ships an FPS2 partial,
// and their columns sum to the round's; a checkpoint names its own
// round, is non-empty and keeps generations <= retain.
std::string check_round_trace(const RoundTrace& trace);

// check_round_trace, then the metrics: evaluated exactly when the
// evaluation metrics are set, and mu finite and >= 0. tools/trace_lint
// applies it.
std::string check_round_line(const RoundLine& line);

}  // namespace fed
