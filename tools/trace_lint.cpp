// Validates the observability artifacts a run can produce:
//
//   trace_lint --jsonl run.jsonl         # JSONL round trace (obs/trace_sink)
//   trace_lint --metrics metrics.prom    # Prometheus exposition (obs/
//                                        # exposition); cross-checked
//                                        # against --jsonl when both given
//   trace_lint --jsonl run.jsonl --checkpoint
//                                        # additionally audit the
//                                        # checkpoint/resume manifest
//                                        # embedded in the round trace
//
// JSONL checks: every line parses as a JSON object, the first line is a
// run header ({"run":{...}}), every later line carries a "round" or is a
// new segment header (a crashed-and-resumed run appends one header per
// segment; mid-file headers must carry "resumed": true and a
// "first_round", and the first round line after one must continue at
// first_round + 1), and the transport byte/fault accounting holds —
// bytes_down/bytes_up and the "faults" object present on every round
// line, bytes non-zero exactly when attempts were made / deliveries
// charged, and divisible by the attempt / delivery count (every device
// moves the same wire-format payload within a round, per attempt);
// retries reconcile with the failed-attempt counts, and a degraded round
// has zero contributors.
// The per-shard block ("shards") must partition the round: shard device,
// contributor, and byte columns sum to the round totals, and every shard
// ships a non-empty FPS2 partial to the root.
// Checkpoint checks (--checkpoint, needs --jsonl): every "checkpoint"
// block names the round of its own line, reports non-zero bytes, and
// honors the generation bound (generations <= retain); checkpoint rounds
// are strictly increasing across the whole trace; every resumed segment
// starts from the newest checkpoint written before it (resume round ==
// checkpoint round, first executed round == checkpoint round + 1); and
// at least one checkpoint was written.
// Metrics checks: every line is a valid 0.0.4 HELP/TYPE/sample line,
// sample families are typed before use, histogram `_bucket` series are
// cumulative and end in an `le="+Inf"` bucket equal to `_count`. With
// --jsonl in the same invocation, the registry counters must reconcile
// with the summed per-round trace blocks: fed_comm_bytes_{up,down}_total,
// fed_shard_partial_bytes_total, and every fed_comm_faults_total{kind=...}
// member against its trace fault column.
//
// Exits non-zero with a message on the first failed check; used by the
// quickstart observability smoke test (examples/CMakeLists.txt).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/cli.h"
#include "support/json.h"

namespace {

using fed::JsonValue;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "trace_lint: " << message << "\n";
  std::exit(1);
}

// Whole-run sums over the JSONL round lines, for reconciling against the
// cumulative registry counters in a --metrics exposition file.
struct JsonlTotals {
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t partial_bytes = 0;
  std::uint64_t retries = 0;
  std::uint64_t degraded_rounds = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_bytes = 0;
  // Keyed by the FaultEvent kind slug used in the metrics `kind` label.
  std::map<std::string, std::uint64_t> faults;
};

// Transport byte and fault accounting on one JSONL round line. Both
// bundled transports report exact wire bytes, and the fault layer
// charges them per attempt/delivery, so the counts obey hard
// invariants: traffic moves iff an attempt was made / a delivery was
// charged, every attempt moves the same broadcast bytes, every charged
// delivery moves the same update bytes, retries reconcile with the
// failed-attempt counts, and a degraded round aggregated nothing.
void check_round_line(const std::string& path, std::size_t lineno,
                      const JsonValue& value, JsonlTotals& totals) {
  const std::string where = path + ":" + std::to_string(lineno);
  for (const char* key : {"bytes_down", "bytes_up", "selected", "contributors",
                          "faults", "degraded", "shards"}) {
    if (!value.contains(key)) {
      fail(where + ": round line lacks \"" + std::string(key) + "\"");
    }
  }
  const JsonValue& faults = value.at("faults");
  for (const char* key :
       {"attempts", "retries", "drops", "corruptions", "timeouts",
        "duplicates", "quorum_drops", "departs", "failed_devices",
        "up_deliveries"}) {
    if (!faults.contains(key)) {
      fail(where + ": faults object lacks \"" + std::string(key) + "\"");
    }
  }
  const auto count = [&](const JsonValue& obj, const char* key) {
    return static_cast<std::uint64_t>(obj.at(key).as_number());
  };
  const std::uint64_t bytes_down = count(value, "bytes_down");
  const std::uint64_t bytes_up = count(value, "bytes_up");
  const std::uint64_t selected = count(value, "selected");
  const std::uint64_t contributors = count(value, "contributors");
  const bool degraded = value.at("degraded").as_bool();
  const std::uint64_t attempts = count(faults, "attempts");
  const std::uint64_t retries = count(faults, "retries");
  const std::uint64_t failed_attempts = count(faults, "drops") +
                                        count(faults, "corruptions") +
                                        count(faults, "timeouts");
  const std::uint64_t up_deliveries = count(faults, "up_deliveries");

  if (attempts < selected) {
    fail(where + ": attempts=" + std::to_string(attempts) +
         " < selected=" + std::to_string(selected) +
         " (every selected device attempts at least once)");
  }
  if (retries != attempts - selected) {
    fail(where + ": retries=" + std::to_string(retries) +
         " != attempts-selected=" + std::to_string(attempts - selected));
  }
  if (failed_attempts < retries) {
    fail(where + ": drops+corruptions+timeouts=" +
         std::to_string(failed_attempts) + " < retries=" +
         std::to_string(retries) + " (every retry follows a failed attempt)");
  }
  if (contributors > selected) {
    fail(where + ": contributors=" + std::to_string(contributors) +
         " > selected=" + std::to_string(selected));
  }
  if (degraded && contributors != 0) {
    fail(where + ": degraded round has contributors=" +
         std::to_string(contributors));
  }
  if (selected > 0 && contributors == 0 && !degraded) {
    fail(where + ": zero contributors but the round is not marked degraded");
  }
  if ((bytes_down > 0) != (attempts > 0)) {
    fail(where + ": bytes_down=" + std::to_string(bytes_down) +
         " inconsistent with attempts=" + std::to_string(attempts));
  }
  if ((bytes_up > 0) != (up_deliveries > 0)) {
    fail(where + ": bytes_up=" + std::to_string(bytes_up) +
         " inconsistent with up_deliveries=" + std::to_string(up_deliveries));
  }
  if (attempts > 0 && bytes_down % attempts != 0) {
    fail(where + ": bytes_down=" + std::to_string(bytes_down) +
         " not divisible by attempts=" + std::to_string(attempts));
  }
  if (up_deliveries > 0 && bytes_up % up_deliveries != 0) {
    fail(where + ": bytes_up=" + std::to_string(bytes_up) +
         " not divisible by up_deliveries=" + std::to_string(up_deliveries));
  }

  // Per-shard partition: the shard columns must sum back to the round
  // totals, the shard indices must be dense, and every shard must have
  // shipped a non-empty FPS2 partial to the root.
  const auto& shards = value.at("shards").as_array();
  if (shards.empty() && selected > 0) {
    fail(where + ": round selected devices but has an empty \"shards\" array");
  }
  std::uint64_t shard_devices = 0;
  std::uint64_t shard_contributors = 0;
  std::uint64_t shard_bytes_down = 0;
  std::uint64_t shard_bytes_up = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const JsonValue& shard = shards[s];
    if (!shard.is_object()) {
      fail(where + ": shards[" + std::to_string(s) + "] is not an object");
    }
    for (const char* key : {"shard", "devices", "contributors", "bytes_down",
                            "bytes_up", "partial_bytes"}) {
      if (!shard.contains(key)) {
        fail(where + ": shards[" + std::to_string(s) + "] lacks \"" +
             std::string(key) + "\"");
      }
    }
    if (count(shard, "shard") != s) {
      fail(where + ": shards[" + std::to_string(s) + "] carries index " +
           std::to_string(count(shard, "shard")) +
           " (shard indices must be dense)");
    }
    shard_devices += count(shard, "devices");
    shard_contributors += count(shard, "contributors");
    shard_bytes_down += count(shard, "bytes_down");
    shard_bytes_up += count(shard, "bytes_up");
    if (count(shard, "partial_bytes") == 0) {
      fail(where + ": shards[" + std::to_string(s) +
           "] shipped zero partial bytes to the root");
    }
  }
  if (shard_devices != selected) {
    fail(where + ": shard devices sum to " + std::to_string(shard_devices) +
         " != selected=" + std::to_string(selected));
  }
  if (shard_contributors != contributors) {
    fail(where + ": shard contributors sum to " +
         std::to_string(shard_contributors) +
         " != contributors=" + std::to_string(contributors));
  }
  if (shard_bytes_down != bytes_down) {
    fail(where + ": shard bytes_down sum to " +
         std::to_string(shard_bytes_down) +
         " != bytes_down=" + std::to_string(bytes_down));
  }
  if (shard_bytes_up != bytes_up) {
    fail(where + ": shard bytes_up sum to " + std::to_string(shard_bytes_up) +
         " != bytes_up=" + std::to_string(bytes_up));
  }

  totals.bytes_down += bytes_down;
  totals.bytes_up += bytes_up;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    totals.partial_bytes += count(shards[s], "partial_bytes");
  }
  totals.retries += retries;
  if (degraded) ++totals.degraded_rounds;
  if (value.contains("arrivals")) totals.arrivals += count(value, "arrivals");
  if (value.contains("departures")) {
    totals.departures += count(value, "departures");
  }
  totals.faults["drop"] += count(faults, "drops");
  totals.faults["corrupt"] += count(faults, "corruptions");
  totals.faults["timeout"] += count(faults, "timeouts");
  totals.faults["duplicate"] += count(faults, "duplicates");
  totals.faults["quorum_drop"] += count(faults, "quorum_drops");
  totals.faults["depart"] += count(faults, "departs");
  totals.faults["device_failed"] += count(faults, "failed_devices");
  totals.faults["round_degraded"] += degraded ? 1 : 0;
}

// Audits one round line's embedded "checkpoint" block and the
// cross-segment manifest invariants it participates in.
void check_checkpoint_block(const std::string& where, const JsonValue& value,
                            std::uint64_t round_id, bool& have_checkpoint,
                            std::uint64_t& last_checkpoint_round,
                            std::set<std::uint64_t>& checkpoint_rounds,
                            JsonlTotals& totals) {
  const JsonValue& ckpt = value.at("checkpoint");
  for (const char* key : {"round", "bytes", "generations", "retain",
                          "write_s"}) {
    if (!ckpt.contains(key)) {
      fail(where + ": checkpoint block lacks \"" + std::string(key) + "\"");
    }
  }
  const auto count = [&](const char* key) {
    return static_cast<std::uint64_t>(ckpt.at(key).as_number());
  };
  const std::uint64_t ckpt_round = count("round");
  const std::uint64_t bytes = count("bytes");
  const std::uint64_t generations = count("generations");
  const std::uint64_t retain = count("retain");
  if (ckpt_round != round_id) {
    fail(where + ": checkpoint.round=" + std::to_string(ckpt_round) +
         " != the line's round=" + std::to_string(round_id));
  }
  if (bytes == 0) fail(where + ": checkpoint block reports zero bytes");
  if (generations == 0) {
    fail(where + ": checkpoint block reports zero retained generations");
  }
  if (retain > 0 && generations > retain) {
    fail(where + ": " + std::to_string(generations) +
         " checkpoint generations on disk, above the retain bound " +
         std::to_string(retain));
  }
  // Strictly increasing within a segment; lint_jsonl rewinds
  // last_checkpoint_round at a resume boundary, because a segment
  // resumed from an older generation legitimately re-writes rounds the
  // crashed segment already checkpointed.
  if (have_checkpoint && ckpt_round <= last_checkpoint_round) {
    fail(where + ": checkpoint rounds are not strictly increasing (" +
         std::to_string(ckpt_round) + " after " +
         std::to_string(last_checkpoint_round) + ")");
  }
  have_checkpoint = true;
  last_checkpoint_round = ckpt_round;
  checkpoint_rounds.insert(ckpt_round);
  ++totals.checkpoint_writes;
  totals.checkpoint_bytes += bytes;
}

// Multi-segment aware: a crashed-and-resumed run appends one run header
// per segment to the same file; mid-file headers must be marked
// "resumed" and the resumed segment must pick up exactly one round after
// the checkpoint it restarted from. With `checkpoint_mode`, the embedded
// checkpoint blocks are audited as a manifest (see the file comment).
JsonlTotals lint_jsonl(const std::string& path, bool checkpoint_mode) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  JsonlTotals totals;
  std::string line;
  std::size_t lineno = 0;
  std::size_t rounds = 0;
  std::size_t segments = 0;
  bool have_checkpoint = false;
  std::uint64_t last_checkpoint_round = 0;
  std::set<std::uint64_t> checkpoint_rounds;
  bool expect_resume_round = false;  // next round line opens a resumed segment
  std::uint64_t resume_first_round = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(lineno);
    JsonValue value;
    try {
      value = fed::parse_json(line);
    } catch (const std::exception& e) {
      fail(where + ": parse error: " + e.what());
    }
    if (!value.is_object()) {
      fail(where + ": line is not an object");
    }
    if (value.contains("run")) {
      ++segments;
      const JsonValue& run = value.at("run");
      const bool resumed =
          run.contains("resumed") && run.at("resumed").as_bool();
      if (segments > 1 && !resumed) {
        fail(where + ": mid-file run header is not marked \"resumed\" "
                     "(only a resumed run may append a new segment)");
      }
      if (resumed) {
        if (!run.contains("first_round")) {
          fail(where + ": resumed run header lacks \"first_round\"");
        }
        resume_first_round =
            static_cast<std::uint64_t>(run.at("first_round").as_number());
        expect_resume_round = true;
        if (checkpoint_mode) {
          if (!have_checkpoint) {
            fail(where + ": segment resumed from round " +
                 std::to_string(resume_first_round) +
                 " but no checkpoint was written before it");
          }
          // Any recorded generation is a legal resume point — retention
          // keeps several precisely so a run can fall back past a lost
          // or corrupted newest checkpoint.
          if (!checkpoint_rounds.contains(resume_first_round)) {
            fail(where + ": segment resumed from round " +
                 std::to_string(resume_first_round) +
                 " but no prior segment checkpointed that round (newest "
                 "recorded: " +
                 std::to_string(last_checkpoint_round) + ")");
          }
          // Rewind the monotonicity cursor: the resumed segment re-runs
          // rounds after the resume point and may re-write checkpoints
          // the crashed segment already recorded.
          last_checkpoint_round = resume_first_round;
        }
      }
      continue;
    }
    if (segments == 0) fail(path + ":1: header line lacks \"run\"");
    if (!value.contains("round")) fail(where + ": line lacks \"round\"");
    ++rounds;
    const auto round_id =
        static_cast<std::uint64_t>(value.at("round").as_number());
    if (expect_resume_round) {
      if (round_id != resume_first_round + 1) {
        fail(where + ": resumed segment opens with round " +
             std::to_string(round_id) + " but resumed from round " +
             std::to_string(resume_first_round) + " (must continue at " +
             std::to_string(resume_first_round + 1) + ")");
      }
      expect_resume_round = false;
    }
    check_round_line(path, lineno, value, totals);
    if (value.contains("checkpoint")) {
      check_checkpoint_block(where, value, round_id, have_checkpoint,
                             last_checkpoint_round, checkpoint_rounds,
                             totals);
    }
  }
  if (lineno == 0) fail(path + ": empty file");
  if (rounds == 0) fail(path + ": no round lines after the header");
  if (expect_resume_round) fail(path + ": resumed segment has no round lines");
  if (checkpoint_mode && totals.checkpoint_writes == 0) {
    fail(path + ": --checkpoint: the trace has no checkpoint blocks");
  }
  std::cout << "trace_lint: " << path << " ok (" << rounds << " round lines";
  if (segments > 1) std::cout << " across " << segments << " segments";
  if (checkpoint_mode) {
    std::cout << ", " << totals.checkpoint_writes << " checkpoint writes";
  }
  std::cout << ")\n";
  return totals;
}

// One `name{labels} value` line of the exposition, labels in file order.
struct MetricSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
};

struct Exposition {
  std::map<std::string, std::string> types;  // family name -> counter|...
  std::vector<MetricSample> samples;
};

// Label-set key for grouping/lookup: sorted k=v pairs joined with
// unit-separator bytes (cannot appear in UTF-8 label text unescaped).
std::string label_key(std::vector<std::pair<std::string, std::string>> labels) {
  std::sort(labels.begin(), labels.end());
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1f';
  }
  return key;
}

// Parses `name{k="v",...} value` (or `name value`). Label values use the
// 0.0.4 escapes \\ \" \n; the value must consume the rest of the line
// (the writer never emits the optional timestamp).
MetricSample parse_sample_line(const std::string& where,
                               const std::string& line) {
  MetricSample sample;
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  sample.name = line.substr(0, i);
  if (sample.name.empty()) fail(where + ": sample line lacks a metric name");
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = line.find('=', i);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        fail(where + ": malformed label pair (expected k=\"v\")");
      }
      std::string key = line.substr(i, eq - i);
      std::string val;
      std::size_t j = eq + 2;
      while (j < line.size() && line[j] != '"') {
        if (line[j] == '\\') {
          if (j + 1 >= line.size()) fail(where + ": dangling escape");
          const char c = line[j + 1];
          if (c == '\\') val += '\\';
          else if (c == '"') val += '"';
          else if (c == 'n') val += '\n';
          else fail(where + ": unknown escape \\" + std::string(1, c));
          j += 2;
        } else {
          val += line[j++];
        }
      }
      if (j >= line.size()) fail(where + ": unterminated label value");
      sample.labels.emplace_back(std::move(key), std::move(val));
      i = j + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) fail(where + ": unterminated label set");
    ++i;  // consume '}'
  }
  if (i >= line.size() || line[i] != ' ') {
    fail(where + ": no value after the metric name/labels");
  }
  const std::string value_text = line.substr(i + 1);
  char* end = nullptr;
  sample.value = std::strtod(value_text.c_str(), &end);
  if (end == value_text.c_str() ||
      static_cast<std::size_t>(end - value_text.c_str()) !=
          value_text.size()) {
    fail(where + ": unparseable sample value \"" + value_text + "\"");
  }
  return sample;
}

// The family a sample belongs to: histogram series drop their
// _bucket/_sum/_count suffix when the base name is a typed histogram.
std::string family_of(const Exposition& exposition, const std::string& name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      const std::string base = name.substr(0, name.size() - s.size());
      auto it = exposition.types.find(base);
      if (it != exposition.types.end() && it->second == "histogram") {
        return base;
      }
    }
  }
  return name;
}

Exposition lint_metrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  Exposition exposition;
  std::set<std::string> sampled_families;
  std::set<std::string> seen_series;  // name + labels, to reject duplicates
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string where = path + ":" + std::to_string(lineno);
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type, extra;
      fields >> family >> type;
      if (family.empty() || type.empty() || (fields >> extra)) {
        fail(where + ": malformed TYPE line");
      }
      if (type != "counter" && type != "gauge" && type != "histogram") {
        fail(where + ": unknown metric type \"" + type + "\"");
      }
      if (!exposition.types.emplace(family, type).second) {
        fail(where + ": duplicate TYPE for family \"" + family + "\"");
      }
      continue;
    }
    if (line[0] == '#') continue;  // other comments are legal
    MetricSample sample = parse_sample_line(where, line);
    const std::string family = family_of(exposition, sample.name);
    if (!exposition.types.contains(family)) {
      fail(where + ": sample for \"" + sample.name +
           "\" has no preceding TYPE line");
    }
    sampled_families.insert(family);
    if (!seen_series.insert(sample.name + '\x1e' + label_key(sample.labels))
             .second) {
      fail(where + ": duplicate series for \"" + sample.name + "\"");
    }
    exposition.samples.push_back(std::move(sample));
  }
  if (exposition.samples.empty()) fail(path + ": no samples");

  // Histogram structure: per (family, non-le labels), buckets appear in
  // file order, counts non-decreasing, edges ascending, the last bucket
  // is le="+Inf" and equals the series' _count.
  struct HistogramSeries {
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    bool last_is_inf = false;
    double count = 0.0;
    bool has_count = false;
  };
  std::map<std::string, HistogramSeries> histograms;
  for (const MetricSample& sample : exposition.samples) {
    const std::string family = family_of(exposition, sample.name);
    if (exposition.types.at(family) != "histogram" || family == sample.name) {
      continue;
    }
    if (sample.name == family + "_bucket") {
      std::vector<std::pair<std::string, std::string>> rest;
      std::string le;
      bool has_le = false;
      for (const auto& [k, v] : sample.labels) {
        if (k == "le") {
          le = v;
          has_le = true;
        } else {
          rest.emplace_back(k, v);
        }
      }
      if (!has_le) fail(path + ": _bucket sample without an le label");
      char* end = nullptr;
      const double edge = std::strtod(le.c_str(), &end);
      if (end == le.c_str()) fail(path + ": unparseable le \"" + le + "\"");
      HistogramSeries& series = histograms[family + '\x1e' + label_key(rest)];
      if (!series.buckets.empty()) {
        if (series.buckets.back().first >= edge) {
          fail(path + ": histogram \"" + family +
               "\" bucket edges are not ascending");
        }
        if (series.buckets.back().second > sample.value) {
          fail(path + ": histogram \"" + family +
               "\" bucket counts are not cumulative");
        }
      }
      series.buckets.emplace_back(edge, sample.value);
      series.last_is_inf = (le == "+Inf");
    } else if (sample.name == family + "_count") {
      HistogramSeries& series =
          histograms[family + '\x1e' + label_key(sample.labels)];
      series.count = sample.value;
      series.has_count = true;
    }
  }
  for (const auto& [key, series] : histograms) {
    const std::string family = key.substr(0, key.find('\x1e'));
    if (series.buckets.empty() || !series.last_is_inf) {
      fail(path + ": histogram \"" + family +
           "\" does not end in an le=\"+Inf\" bucket");
    }
    if (!series.has_count) {
      fail(path + ": histogram \"" + family + "\" lacks a _count sample");
    }
    if (series.buckets.back().second != series.count) {
      fail(path + ": histogram \"" + family + "\" +Inf bucket " +
           std::to_string(series.buckets.back().second) + " != _count " +
           std::to_string(series.count));
    }
  }

  std::cout << "trace_lint: " << path << " ok (" << exposition.samples.size()
            << " samples across " << sampled_families.size()
            << " families)\n";
  return exposition;
}

// Reconciles the cumulative registry counters against the per-round
// JSONL trace: two independent observers of the same run must agree.
void cross_check(const std::string& path, const Exposition& exposition,
                 const JsonlTotals& totals) {
  const auto counter = [&](const std::string& name,
                           std::vector<std::pair<std::string, std::string>>
                               labels) -> double {
    const std::string want = label_key(std::move(labels));
    for (const MetricSample& sample : exposition.samples) {
      if (sample.name == name && label_key(sample.labels) == want) {
        return sample.value;
      }
    }
    fail(path + ": missing counter \"" + name +
         "\" needed for the --jsonl cross-check");
  };
  const auto expect = [&](const std::string& name,
                          std::vector<std::pair<std::string, std::string>>
                              labels,
                          std::uint64_t jsonl_value) {
    const double metric = counter(name, labels);
    if (metric != static_cast<double>(jsonl_value)) {
      std::string selector = name;
      if (!labels.empty()) {
        selector += "{" + labels[0].first + "=\"" + labels[0].second + "\"}";
      }
      fail(path + ": " + selector + "=" + std::to_string(metric) +
           " but the JSONL trace sums to " + std::to_string(jsonl_value));
    }
  };
  expect("fed_comm_bytes_down_total", {}, totals.bytes_down);
  expect("fed_comm_bytes_up_total", {}, totals.bytes_up);
  expect("fed_shard_partial_bytes_total", {}, totals.partial_bytes);
  expect("fed_comm_retries_total", {}, totals.retries);
  expect("fed_comm_rounds_degraded_total", {}, totals.degraded_rounds);
  expect("fed_churn_arrivals_total", {}, totals.arrivals);
  expect("fed_churn_departures_total", {}, totals.departures);
  expect("fed_checkpoint_writes_total", {}, totals.checkpoint_writes);
  expect("fed_checkpoint_bytes_total", {}, totals.checkpoint_bytes);
  for (const auto& [kind, count] : totals.faults) {
    expect("fed_comm_faults_total", {{"kind", kind}}, count);
  }
  std::cout << "trace_lint: metrics reconcile with the JSONL trace ("
            << totals.faults.size() << " fault kinds checked)\n";
}

}  // namespace

int main(int argc, char** argv) {
  fed::CliFlags flags(argc, argv);
  const auto jsonl = flags.get_optional_string("jsonl");
  const auto metrics = flags.get_optional_string("metrics");
  const bool checkpoint = flags.get_bool("checkpoint", false);
  if (!jsonl && !metrics) {
    fail(
        "usage: trace_lint [--jsonl run.jsonl [--checkpoint]] "
        "[--metrics metrics.prom]");
  }
  if (checkpoint && !jsonl) {
    fail("--checkpoint audits the JSONL round trace; pass --jsonl too");
  }
  JsonlTotals totals;
  if (jsonl) totals = lint_jsonl(*jsonl, checkpoint);
  if (metrics) {
    const Exposition exposition = lint_metrics(*metrics);
    if (jsonl) cross_check(*metrics, exposition, totals);
  }
  return 0;
}
