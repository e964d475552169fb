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
// Every per-round fact comes from src/obs; this tool only applies it.
// JSONL: the first line is a run header ({"run":{...}}); every later
// line is a round line that round_line_from_json reads and
// check_round_line accepts (obs/trace.h), or a later run header: a resumed segment's
// ("resumed": true, "first_round" F), whose first round line must be
// F + 1, or an unmarked one that starts another run in the same file (a
// figure driver's variants), allowed only right after a run whose round
// lines reached its "first_round" + "rounds".
// Every header carries the run's "config" (obs/trace_sink.h), and each
// round line must agree with it: evaluated exactly on the rounds that
// eval_every picks (and round 0 and the final round), selected ==
// devices_per_round on every training round, a written checkpoint's
// retain equal to checkpoint.retain, and under mu_policy fixed, the
// metrics' mu equal to config.mu.
// --checkpoint: checkpoint rounds increase within a segment, each
// resumed segment starts from a round an earlier segment checkpointed,
// and at least one checkpoint was written.
// Metrics: every line is one parse_exposition_line accepts (obs/
// exposition.h), families are typed before use, no series repeats, and
// each histogram's buckets are cumulative up to an le="+Inf" bucket
// equal to its _count. With --jsonl too, every trace_counters() series
// (obs/metrics.h) must equal its sum over the round lines.
//
// Exits non-zero with a message on the first failed check; used by the
// quickstart observability smoke test (examples/CMakeLists.txt).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/cli.h"
#include "support/json.h"

namespace {

using fed::ExpositionLine;
using fed::JsonValue;
using fed::MetricLabels;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "trace_lint: " << message << "\n";
  std::exit(1);
}

// `read()`, with a thrown parse or type error reported at `where`.
template <typename Read>
auto checked(const std::string& where, Read read) {
  try {
    return read();
  } catch (const std::exception& e) {
    fail(where + ": " + e.what());
  }
}

// What a run header's "config" fixes about its round lines.
struct HeaderConfig {
  std::uint64_t rounds = 0;
  std::uint64_t eval_every = 1;
  std::uint64_t devices_per_round = 0;
  std::uint64_t retain = 0;
  double mu = 0.0;
  bool fixed_mu = true;  // mu_policy "fixed": every round runs at mu
};

HeaderConfig read_header_config(const JsonValue& run,
                                const std::string& where) {
  if (!run.contains("config")) fail(where + ": run header lacks \"config\"");
  const JsonValue& c = run.at("config");
  const HeaderConfig config = checked(where + ": \"config\"", [&] {
    return HeaderConfig{
        .rounds = c.at("rounds").as_count(),
        .eval_every = c.at("eval_every").as_count(),
        .devices_per_round = c.at("devices_per_round").as_count(),
        .retain = c.at("checkpoint").at("retain").as_count(),
        .mu = c.at("mu").as_number(),
        .fixed_mu = c.at("mu_policy").as_string() == "fixed"};
  });
  if (config.eval_every == 0) fail(where + ": config.eval_every is 0");
  return config;
}

// The first way `line` disagrees with its header's config, or "".
std::string check_against_config(const fed::RoundLine& line,
                                 const HeaderConfig& config) {
  const fed::RoundTrace& trace = line.trace;
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  const bool due = trace.round == 0 || trace.round % config.eval_every == 0 ||
                   trace.round == config.rounds;
  if (trace.evaluated != due) {
    return "evaluated=" + std::string(trace.evaluated ? "true" : "false") +
           " but eval_every=" + n(config.eval_every) + " and rounds=" +
           n(config.rounds) + (due ? " call for" : " skip") + " round " +
           n(trace.round);
  }
  if (trace.round > 0 && trace.selected != config.devices_per_round) {
    return "selected=" + n(trace.selected) +
           " != config.devices_per_round=" + n(config.devices_per_round);
  }
  if (trace.checkpoint.written && trace.checkpoint.retain != config.retain) {
    return "checkpoint.retain=" + n(trace.checkpoint.retain) +
           " != config.checkpoint.retain=" + n(config.retain);
  }
  if (config.fixed_mu && line.metrics.mu != config.mu) {
    return "metrics.mu=" + fed::serialize_json(line.metrics.mu) +
           " but mu_policy fixed runs at config.mu=" +
           fed::serialize_json(config.mu);
  }
  return "";
}

// Whole-run sums over the JSONL round lines, one per trace_counters()
// series, for reconciling against a --metrics exposition.
using CounterTotals = std::vector<std::uint64_t>;

// Multi-segment aware: a crashed-and-resumed run appends one run header
// per segment to the same file; a mid-file header must be marked
// "resumed", and the resumed segment must pick up exactly one round after
// the checkpoint it restarted from, unless the run before it finished —
// then the header starts another run. With `checkpoint_mode`, the
// embedded checkpoint blocks are audited as a manifest (see the file
// comment).
CounterTotals lint_jsonl(const std::string& path, bool checkpoint_mode) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  const std::vector<fed::TraceCounter>& counters = fed::trace_counters();
  CounterTotals totals(counters.size(), 0);
  std::string line;
  std::size_t lineno = 0;
  std::size_t rounds = 0;
  std::size_t segments = 0;
  std::size_t checkpoint_writes = 0;
  // The lowest round the next checkpoint may carry.
  std::uint64_t next_checkpoint_round = 0;
  std::set<std::uint64_t> checkpoint_rounds;
  bool expect_resume_round = false;  // next round line opens a resumed segment
  std::uint64_t resume_round = 0;
  // The current segment's last round, "first_round" + "rounds" (none
  // when the header lacks either), and whether the latest round line
  // reached it.
  constexpr std::uint64_t kNoEnd = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t segment_end = kNoEnd;
  bool finished = false;
  HeaderConfig config;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(lineno);
    const JsonValue value =
        checked(where, [&] { return fed::parse_json(line); });
    if (!value.is_object()) fail(where + ": line is not an object");
    if (value.contains("run")) {
      ++segments;
      const JsonValue& run = value.at("run");
      const bool resumed = run.contains("resumed") &&
                           checked(where, [&] {
                             return run.at("resumed").as_bool();
                           });
      if (segments > 1 && !resumed && !finished) {
        fail(where + ": mid-file run header is not marked \"resumed\" "
                     "(only a resumed run, or a new run after a finished "
                     "one, may append a new segment)");
      }
      config = read_header_config(run, where);
      finished = false;
      segment_end = kNoEnd;
      if (run.contains("first_round") && run.contains("rounds")) {
        segment_end = checked(where, [&] {
          return run.at("first_round").as_count() + run.at("rounds").as_count();
        });
      }
      if (!resumed) {
        // Another run: its checkpoints form a manifest of their own.
        next_checkpoint_round = 0;
        checkpoint_rounds.clear();
        continue;
      }
      if (!run.contains("first_round")) {
        fail(where + ": resumed run header lacks \"first_round\"");
      }
      const std::uint64_t from = checked(where + ": \"first_round\"", [&] {
        return run.at("first_round").as_count();
      });
      resume_round = from;
      expect_resume_round = true;
      // Any recorded generation is a legal resume point — retention keeps
      // several precisely so a run can fall back past a lost or corrupted
      // newest checkpoint.
      if (checkpoint_mode && !checkpoint_rounds.contains(from)) {
        fail(where + ": segment resumed from round " + std::to_string(from) +
             " but no prior segment checkpointed that round");
      }
      // Rewind the monotonicity cursor: the resumed segment re-runs rounds
      // after the resume point and may re-write checkpoints the crashed
      // segment already recorded.
      next_checkpoint_round = from + 1;
      continue;
    }
    if (segments == 0) fail(path + ":1: header line lacks \"run\"");
    const fed::RoundLine round_line =
        checked(where, [&] { return fed::round_line_from_json(value); });
    const fed::RoundTrace& trace = round_line.trace;
    ++rounds;
    finished = trace.round == segment_end;
    if (expect_resume_round) {
      if (trace.round != resume_round + 1) {
        fail(where + ": resumed segment opens with round " +
             std::to_string(trace.round) + " but resumed from round " +
             std::to_string(resume_round) + " (must continue at " +
             std::to_string(resume_round + 1) + ")");
      }
      expect_resume_round = false;
    }
    for (const std::string& broken :
         {check_against_config(round_line, config),
          fed::check_round_line(round_line)}) {
      if (!broken.empty()) fail(where + ": " + broken);
    }
    if (trace.checkpoint.written) {
      const std::uint64_t ckpt_round = trace.checkpoint.round;
      if (ckpt_round < next_checkpoint_round) {
        fail(where + ": checkpoint rounds are not strictly increasing (" +
             std::to_string(ckpt_round) + " after " +
             std::to_string(next_checkpoint_round - 1) + ")");
      }
      next_checkpoint_round = ckpt_round + 1;
      checkpoint_rounds.insert(ckpt_round);
      ++checkpoint_writes;
    }
    for (std::size_t i = 0; i < counters.size(); ++i) {
      totals[i] += counters[i].value(trace);
    }
  }
  if (lineno == 0) fail(path + ": empty file");
  if (rounds == 0) fail(path + ": no round lines after the header");
  if (expect_resume_round) {
    fail(path + ": resumed segment has no round lines");
  }
  if (checkpoint_mode && checkpoint_writes == 0) {
    fail(path + ": --checkpoint: the trace has no checkpoint blocks");
  }
  std::cout << "trace_lint: " << path << " ok (" << rounds << " round lines";
  if (segments > 1) std::cout << " across " << segments << " segments";
  if (checkpoint_mode) {
    std::cout << ", " << checkpoint_writes << " checkpoint writes";
  }
  std::cout << ")\n";
  return totals;
}

struct Exposition {
  std::map<std::string, std::string> types;  // family name -> counter|...
  std::vector<ExpositionLine> samples;
};

// A label set in canonical (sorted) order, for grouping and lookup.
MetricLabels sorted(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
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
  std::set<std::pair<std::string, MetricLabels>> seen_series;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string where = path + ":" + std::to_string(lineno);
    ExpositionLine parsed =
        checked(where, [&] { return fed::parse_exposition_line(line); });
    if (parsed.kind == ExpositionLine::Kind::kType) {
      if (!exposition.types.emplace(parsed.name, parsed.type).second) {
        fail(where + ": duplicate TYPE for family \"" + parsed.name + "\"");
      }
      continue;
    }
    if (parsed.kind != ExpositionLine::Kind::kSample) continue;
    const std::string family = family_of(exposition, parsed.name);
    if (!exposition.types.contains(family)) {
      fail(where + ": sample for \"" + parsed.name +
           "\" has no preceding TYPE line");
    }
    sampled_families.insert(family);
    if (!seen_series.emplace(parsed.name, sorted(parsed.labels)).second) {
      fail(where + ": duplicate series for \"" + parsed.name + "\"");
    }
    exposition.samples.push_back(std::move(parsed));
  }
  if (exposition.samples.empty()) fail(path + ": no samples");

  // Histogram structure: per (family, non-le labels), buckets appear in
  // file order, counts non-decreasing, edges ascending, the last bucket
  // is le="+Inf" and equals the series' _count.
  struct HistogramSeries {
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    std::optional<double> count;
  };
  // Keyed by (family, labels other than le).
  std::map<std::pair<std::string, MetricLabels>, HistogramSeries> histograms;
  for (const ExpositionLine& sample : exposition.samples) {
    const std::string family = family_of(exposition, sample.name);
    if (exposition.types.at(family) != "histogram" || family == sample.name) {
      continue;
    }
    if (sample.name == family + "_bucket") {
      MetricLabels rest;
      std::optional<std::string> le;
      for (const auto& [k, v] : sample.labels) {
        if (k == "le") {
          le = v;
        } else {
          rest.emplace_back(k, v);
        }
      }
      if (!le) fail(path + ": _bucket sample without an le label");
      char* end = nullptr;
      const double edge = std::strtod(le->c_str(), &end);
      if (end == le->c_str()) fail(path + ": unparseable le \"" + *le + "\"");
      HistogramSeries& series = histograms[{family, sorted(rest)}];
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
    } else if (sample.name == family + "_count") {
      histograms[{family, sorted(sample.labels)}].count = sample.value;
    }
  }
  for (const auto& [key, series] : histograms) {
    const std::string& family = key.first;
    if (series.buckets.empty() ||
        series.buckets.back().first != std::numeric_limits<double>::infinity()) {
      fail(path + ": histogram \"" + family +
           "\" does not end in an le=\"+Inf\" bucket");
    }
    if (!series.count) {
      fail(path + ": histogram \"" + family + "\" lacks a _count sample");
    }
    if (series.buckets.back().second != *series.count) {
      fail(path + ": histogram \"" + family + "\" +Inf bucket " +
           std::to_string(series.buckets.back().second) + " != _count " +
           std::to_string(*series.count));
    }
  }

  std::cout << "trace_lint: " << path << " ok (" << exposition.samples.size()
            << " samples across " << sampled_families.size()
            << " families)\n";
  return exposition;
}

// Reconciles every RoundTrace-derived counter series against the
// per-round JSONL trace: two independent observers of the same run
// must agree.
void cross_check(const std::string& path, const Exposition& exposition,
                 const CounterTotals& totals) {
  const std::vector<fed::TraceCounter>& counters = fed::trace_counters();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const fed::TraceCounter& counter = counters[i];
    MetricLabels labels;
    if (counter.kind) labels.emplace_back("kind", counter.kind);
    const std::string selector = counter.series();
    const auto sample = std::find_if(
        exposition.samples.begin(), exposition.samples.end(),
        [&](const ExpositionLine& s) {
          return s.name == counter.name && sorted(s.labels) == labels;
        });
    if (sample == exposition.samples.end()) {
      fail(path + ": missing counter \"" + selector +
           "\" needed for the --jsonl cross-check");
    }
    if (sample->value != static_cast<double>(totals[i])) {
      fail(path + ": " + selector + "=" + sample->value_text +
           " but the JSONL trace sums to " + std::to_string(totals[i]));
    }
  }
  std::cout << "trace_lint: metrics reconcile with the JSONL trace ("
            << counters.size() << " counter series checked)\n";
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
  CounterTotals totals;
  if (jsonl) totals = lint_jsonl(*jsonl, checkpoint);
  if (metrics) {
    const Exposition exposition = lint_metrics(*metrics);
    if (jsonl) cross_check(*metrics, exposition, totals);
  }
  return 0;
}
