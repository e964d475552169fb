#include "obs/trace.h"

#include <algorithm>

namespace fed {

SolveStats SolveStats::from_samples(std::span<const double> seconds) {
  SolveStats s;
  s.count = seconds.size();
  if (seconds.empty()) return s;
  s.min_seconds = seconds.front();
  s.max_seconds = seconds.front();
  for (double v : seconds) {
    s.total_seconds += v;
    s.min_seconds = std::min(s.min_seconds, v);
    s.max_seconds = std::max(s.max_seconds, v);
  }
  s.mean_seconds = s.total_seconds / static_cast<double>(s.count);
  return s;
}

JsonValue trace_to_json(const RoundTrace& trace) {
  JsonObject solve;
  solve["count"] = trace.solve.count;
  solve["total_s"] = trace.solve.total_seconds;
  solve["min_s"] = trace.solve.min_seconds;
  solve["mean_s"] = trace.solve.mean_seconds;
  solve["max_s"] = trace.solve.max_seconds;
  solve["max_device"] = trace.solve.max_device;
  solve["max_iterations"] = trace.solve.max_iterations;

  JsonObject phases;
  phases["sampling_s"] = trace.sampling_seconds;
  phases["correction_s"] = trace.correction_seconds;
  phases["solve"] = std::move(solve);
  phases["solve_wall_s"] = trace.solve_wall_seconds;
  phases["aggregate_s"] = trace.aggregate_seconds;
  phases["eval_s"] = trace.eval_seconds;

  JsonObject faults;
  faults["attempts"] = trace.faults.attempts;
  faults["retries"] = trace.faults.retries;
  faults["drops"] = trace.faults.drops;
  faults["corruptions"] = trace.faults.corruptions;
  faults["timeouts"] = trace.faults.timeouts;
  faults["duplicates"] = trace.faults.duplicates;
  faults["quorum_drops"] = trace.faults.quorum_drops;
  faults["departs"] = trace.faults.departs;
  faults["failed_devices"] = trace.faults.failed_devices;
  faults["up_deliveries"] = trace.faults.up_deliveries;
  faults["delay_ms"] = trace.faults.delay_ms;

  JsonArray shards;
  for (const ShardStat& s : trace.shards) {
    JsonObject shard;
    shard["shard"] = s.shard;
    shard["devices"] = s.devices;
    shard["contributors"] = s.contributors;
    shard["bytes_down"] = s.bytes_down;
    shard["bytes_up"] = s.bytes_up;
    shard["partial_bytes"] = s.partial_bytes;
    shards.push_back(JsonValue(std::move(shard)));
  }

  JsonObject out;
  out["round"] = trace.round;
  out["evaluated"] = trace.evaluated;
  out["selected"] = trace.selected;
  out["contributors"] = trace.contributors;
  out["stragglers"] = trace.stragglers;
  out["phases"] = std::move(phases);
  out["faults"] = std::move(faults);
  out["shards"] = std::move(shards);
  out["degraded"] = trace.degraded;
  out["active_devices"] = trace.active_devices;
  out["arrivals"] = trace.arrivals;
  out["departures"] = trace.departures;
  if (trace.checkpoint.written) {
    JsonObject ckpt;
    ckpt["round"] = trace.checkpoint.round;
    ckpt["bytes"] = trace.checkpoint.bytes;
    ckpt["generations"] = trace.checkpoint.generations;
    ckpt["retain"] = trace.checkpoint.retain;
    ckpt["write_s"] = trace.checkpoint.write_seconds;
    out["checkpoint"] = std::move(ckpt);
  }
  out["round_s"] = trace.round_seconds;
  out["bytes_down"] = trace.bytes_down;
  out["bytes_up"] = trace.bytes_up;
  return JsonValue(std::move(out));
}

}  // namespace fed
