#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

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

namespace {

// The field list of a JSONL round line's trace part; visit_metrics
// (core/trainer.h) is its "metrics" block. `v` is a TraceWriter over a
// const struct or a TraceReader over a mutable one: each visits the same
// (key, member) pairs, so the two directions cannot drift apart.
template <typename V, typename Trace>
void visit_round(V& v, Trace& t) {
  v.field("round", t.round);
  v.field("evaluated", t.evaluated);
  v.field("selected", t.selected);
  v.field("contributors", t.contributors);
  v.field("stragglers", t.stragglers);
  v.object("phases", [&](V& p) {
    p.field("sampling_s", t.sampling_seconds);
    p.field("correction_s", t.correction_seconds);
    p.object("solve", [&](V& s) {
      s.field("count", t.solve.count);
      s.field("total_s", t.solve.total_seconds);
      s.field("min_s", t.solve.min_seconds);
      s.field("mean_s", t.solve.mean_seconds);
      s.field("max_s", t.solve.max_seconds);
      s.field("max_device", t.solve.max_device);
      s.field("max_iterations", t.solve.max_iterations);
    });
    p.field("solve_wall_s", t.solve_wall_seconds);
    p.field("aggregate_s", t.aggregate_seconds);
    p.field("eval_s", t.eval_seconds);
  });
  v.object("faults", [&](V& f) {
    f.field("attempts", t.faults.attempts);
    f.field("retries", t.faults.retries);
    f.field("drops", t.faults.drops);
    f.field("corruptions", t.faults.corruptions);
    f.field("timeouts", t.faults.timeouts);
    f.field("duplicates", t.faults.duplicates);
    f.field("quorum_drops", t.faults.quorum_drops);
    f.field("departs", t.faults.departs);
    f.field("failed_devices", t.faults.failed_devices);
    f.field("up_deliveries", t.faults.up_deliveries);
    f.field("delay_ms", t.faults.delay_ms);
  });
  v.array("shards", t.shards, [](V& s, auto& shard) {
    s.field("shard", shard.shard);
    s.field("devices", shard.devices);
    s.field("contributors", shard.contributors);
    s.field("bytes_down", shard.bytes_down);
    s.field("bytes_up", shard.bytes_up);
    s.field("partial_bytes", shard.partial_bytes);
  });
  v.field("degraded", t.degraded);
  v.field("active_devices", t.active_devices);
  v.field("arrivals", t.arrivals);
  v.field("departures", t.departures);
  v.optional("checkpoint", t.checkpoint.written, [&](V& c) {
    c.field("round", t.checkpoint.round);
    c.field("bytes", t.checkpoint.bytes);
    c.field("generations", t.checkpoint.generations);
    c.field("retain", t.checkpoint.retain);
    c.field("write_s", t.checkpoint.write_seconds);
  });
  v.field("round_s", t.round_seconds);
  v.field("bytes_down", t.bytes_down);
  v.field("bytes_up", t.bytes_up);
}

class TraceWriter {
 public:
  explicit TraceWriter(JsonObject& out) : out_(out) {}

  template <typename T>
  void field(const char* key, T v) {
    out_[key] = JsonValue(v);
  }
  void field(const char* key, const std::optional<double>& v) {
    out_[key] = v ? JsonValue(*v) : JsonValue(nullptr);
  }
  template <typename Group>
  void optionals(Group group) {
    group(*this);
  }
  template <typename Fields>
  void object(const char* key, Fields fields) {
    JsonObject inner;
    TraceWriter w(inner);
    fields(w);
    out_[key] = std::move(inner);
  }
  template <typename Fields>
  void optional(const char* key, bool present, Fields fields) {
    if (present) object(key, fields);
  }
  template <typename T, typename Fields>
  void array(const char* key, const std::vector<T>& items, Fields fields) {
    JsonArray out;
    for (const T& item : items) {
      JsonObject inner;
      TraceWriter w(inner);
      fields(w, item);
      out.push_back(JsonValue(std::move(inner)));
    }
    out_[key] = std::move(out);
  }

 private:
  JsonObject& out_;
};

class TraceReader {
 public:
  TraceReader(const JsonValue& in, std::string path)
      : in_(in), path_(std::move(path)) {}

  // Counts go through as_count(), so a fraction, a sign or a string
  // is an error naming the dotted key, never a silent cast. An optional
  // reads null as unset.
  template <typename T>
  void field(const char* key, T& v) {
    const JsonValue& value = member(key);
    try {
      if constexpr (std::is_same_v<T, bool>) {
        v = value.as_bool();
      } else if constexpr (std::is_same_v<T, std::optional<double>>) {
        v.reset();
        if (!value.is_null()) v = value.as_number();
      } else if constexpr (std::is_floating_point_v<T>) {
        v = value.as_number();
      } else {
        v = static_cast<T>(value.as_count());
      }
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("round line \"" + dotted(key) +
                               "\": " + e.what());
    }
    if constexpr (std::is_same_v<T, std::optional<double>>) {
      if (group_first_ == nullptr) {
        group_first_ = key;
        group_set_ = v.has_value();
      } else if (v.has_value() != group_set_) {
        throw std::runtime_error("round line \"" + dotted(key) + "\" is " +
                                 (group_set_ ? "null" : "set") + " but \"" +
                                 dotted(group_first_) + "\" is not");
      }
    }
  }
  // A group is measured together: its members are all set or all null.
  template <typename Group>
  void optionals(Group group) {
    group_first_ = nullptr;
    group(*this);
  }
  const JsonValue& member(const char* key) const {
    if (!in_.contains(key)) {
      throw std::runtime_error("round line lacks \"" + dotted(key) + "\"");
    }
    return in_.at(key);
  }
  template <typename Fields>
  void object(const char* key, Fields fields) {
    TraceReader r(member(key), dotted(key));
    fields(r);
  }
  template <typename Fields>
  void optional(const char* key, bool& present, Fields fields) {
    present = in_.contains(key);
    if (present) object(key, fields);
  }
  template <typename T, typename Fields>
  void array(const char* key, std::vector<T>& items, Fields fields) {
    const JsonValue& list = member(key);
    if (!list.is_array()) {
      throw std::runtime_error("round line \"" + dotted(key) +
                               "\" is not an array");
    }
    items.assign(list.as_array().size(), T{});
    for (std::size_t i = 0; i < items.size(); ++i) {
      TraceReader r(list.as_array()[i],
                    dotted(key) + "[" + std::to_string(i) + "]");
      fields(r, items[i]);
    }
  }

 private:
  std::string dotted(const char* key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  const JsonValue& in_;
  std::string path_;
  const char* group_first_ = nullptr;  // the group's first member read
  bool group_set_ = false;             // and whether it is set
};

}  // namespace

// The line is visit_round's keys plus visit_metrics' under "metrics";
// a key both write (round, contributors, stragglers) is the trace's,
// stated once at the top level: the writer drops it from the block and
// the reader takes it from the line.
JsonValue round_line_to_json(const RoundMetrics& metrics,
                             const RoundTrace& trace) {
  JsonObject out;
  JsonObject block;
  TraceWriter writer(out);
  TraceWriter block_writer(block);
  visit_round(writer, trace);
  visit_metrics(block_writer, metrics);
  for (const auto& entry : out) block.erase(entry.first);
  out["metrics"] = std::move(block);
  return JsonValue(std::move(out));
}

RoundLine round_line_from_json(const JsonValue& value) {
  RoundLine line;
  TraceReader reader(value, "");
  visit_round(reader, line.trace);
  JsonValue block = reader.member("metrics");
  if (block.is_object()) {
    for (const auto& [key, item] : value.as_object()) {
      if (key != "metrics") block.as_object()[key] = item;
    }
  }
  TraceReader block_reader(block, "metrics");
  visit_metrics(block_reader, line.metrics);
  return line;
}

namespace {

template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

}  // namespace

std::string check_round_trace(const RoundTrace& t) {
  const CommFaultStats& f = t.faults;
  const CheckpointStat& c = t.checkpoint;
  const std::uint64_t failed_attempts = f.drops + f.corruptions + f.timeouts;
  // Every selected device fails, misses the quorum or is accepted.
  const std::uint64_t placed =
      f.failed_devices + f.quorum_drops + t.contributors;
  ShardStat sum;
  std::string shard_error;
  for (std::size_t s = 0; s < t.shards.size(); ++s) {
    const ShardStat& shard = t.shards[s];
    if (shard_error.empty() && shard.shard != s) {
      shard_error = cat("shards[", s, "] carries index ", shard.shard,
                        " (shard indices must be dense)");
    }
    if (shard_error.empty() && shard.partial_bytes == 0) {
      shard_error = cat("shards[", s, "] shipped zero partial bytes");
    }
    sum.devices += shard.devices;
    sum.contributors += shard.contributors;
    sum.bytes_down += shard.bytes_down;
    sum.bytes_up += shard.bytes_up;
  }
  // In order; the first violated one is reported.
  const std::pair<bool, std::string> invariants[] = {
      {f.attempts < t.selected,
       cat("attempts=", f.attempts, " < selected=", t.selected,
           " (every selected device attempts at least once)")},
      {f.retries != f.attempts - t.selected,
       cat("retries=", f.retries,
           " != attempts-selected=", f.attempts - t.selected)},
      {failed_attempts < f.retries,
       cat("drops+corruptions+timeouts=", failed_attempts, " < retries=",
           f.retries, " (every retry follows a failed attempt)")},
      {t.contributors > t.selected,
       cat("contributors=", t.contributors, " > selected=", t.selected)},
      {placed > t.selected,
       cat("failed_devices+quorum_drops+contributors=", placed,
           " > selected=", t.selected)},
      {t.selected > placed + t.stragglers,
       cat("selected=", t.selected, " > failed_devices+quorum_drops+",
           "contributors+stragglers=", placed + t.stragglers)},
      {f.departs > f.failed_devices,
       cat("departs=", f.departs, " > failed_devices=", f.failed_devices)},
      {t.degraded && t.contributors != 0,
       cat("degraded round has contributors=", t.contributors)},
      {t.selected > 0 && t.contributors == 0 && !t.degraded,
       "zero contributors but the round is not marked degraded"},
      {(t.bytes_down > 0) != (f.attempts > 0),
       cat("bytes_down=", t.bytes_down, " inconsistent with attempts=",
           f.attempts)},
      {(t.bytes_up > 0) != (f.up_deliveries > 0),
       cat("bytes_up=", t.bytes_up, " inconsistent with up_deliveries=",
           f.up_deliveries)},
      {f.attempts > 0 && t.bytes_down % f.attempts != 0,
       cat("bytes_down=", t.bytes_down, " not divisible by attempts=",
           f.attempts)},
      {f.up_deliveries > 0 && t.bytes_up % f.up_deliveries != 0,
       cat("bytes_up=", t.bytes_up, " not divisible by up_deliveries=",
           f.up_deliveries)},
      {t.shards.empty() && t.selected > 0,
       "round selected devices but has an empty \"shards\" array"},
      {!shard_error.empty(), shard_error},
      {sum.devices != t.selected,
       cat("shard devices sum to ", sum.devices, " != selected=", t.selected)},
      {sum.contributors != t.contributors,
       cat("shard contributors sum to ", sum.contributors,
           " != contributors=", t.contributors)},
      {sum.bytes_down != t.bytes_down,
       cat("shard bytes_down sum to ", sum.bytes_down,
           " != bytes_down=", t.bytes_down)},
      {sum.bytes_up != t.bytes_up,
       cat("shard bytes_up sum to ", sum.bytes_up,
           " != bytes_up=", t.bytes_up)},
      {c.written && c.round != t.round,
       cat("checkpoint.round=", c.round, " != the line's round=", t.round)},
      {c.written && (c.bytes == 0 || c.generations == 0),
       "checkpoint block reports zero bytes or zero generations"},
      {c.written && c.retain > 0 && c.generations > c.retain,
       cat(c.generations,
           " checkpoint generations on disk, above the retain bound ",
           c.retain)},
  };
  for (const auto& [violated, message] : invariants) {
    if (violated) return message;
  }
  return "";
}

std::string check_round_line(const RoundLine& line) {
  const RoundMetrics& m = line.metrics;
  const std::string trace_error = check_round_trace(line.trace);
  if (!trace_error.empty()) return trace_error;
  if (m.evaluated() != line.trace.evaluated) {
    return cat("evaluated=", line.trace.evaluated ? "true" : "false",
               " but the evaluation metrics are ",
               m.evaluated() ? "set" : "null");
  }
  if (!(m.mu >= 0.0 && std::isfinite(m.mu))) {
    return cat("metrics.mu=", m.mu, " is not finite and >= 0");
  }
  return "";
}

}  // namespace fed
