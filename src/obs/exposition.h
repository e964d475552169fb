// Prometheus text exposition (format 0.0.4) for MetricsRegistry, plus a
// MetricsExporter observer that re-publishes a scrape file as training
// progresses.
//
// The renderer walks one registry: per family a `# HELP` line (when
// set_help was called), a `# TYPE` line, then one sample per label set.
// Histograms expand to the cumulative `<name>_bucket{le="..."}` series
// (last bucket `le="+Inf"`), plus `<name>_sum` and `<name>_count`. Label
// values are escaped per the spec (`\\`, `\"`, `\n`); families print
// counters, then gauges, then histograms, each sorted by name, so the
// document is deterministic and golden-testable.
//
// MetricsExporter publishes with write-temp-then-rename so an external
// scraper (or tools/trace_lint --metrics) always reads a complete file,
// never a torn one:
//
//   MetricsRegistry registry;
//   MetricsObserver metrics(registry);
//   MetricsExporter exporter(registry, "metrics.prom");
//   trainer.add_observer(metrics);
//   trainer.add_observer(exporter);  // after the feeder, so each publish
//                                    // sees the round it just finished
//
// Publishing happens on a background writer thread: every on_round_end
// copies the registry on the round thread and hands the copy over (a
// mutex lock + notify); the worker renders it and does the temp+rename,
// so rendering and filesystem latency never stall training, and each
// published file is the state of one round end. Requests coalesce
// latest-wins — if the disk is slower than the round cadence, a newer
// copy replaces the one still waiting (counters are cumulative, so a
// scraper never observes a regression). flush() blocks until the
// hand-off drains; on_run_end publishes and flushes so the file always
// ends on the final state before run() returns.

#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/observer.h"
#include "support/thread_annotations.h"

namespace fed {

// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label_value(const std::string& value);
// HELP-text escaping: backslash and newline only (quotes are legal).
std::string escape_help_text(const std::string& value);

// Shortest decimal string that round-trips to the same double (with the
// Prometheus spellings +Inf/-Inf/NaN). Used for every sample value and
// `le` bound so the document is stable across runs.
std::string format_exposition_number(double v);

// Renders the full document, terminated by a trailing newline.
std::string text_exposition(const MetricsRegistry& registry);

// Atomically publishes `registry` to `path`: renders to `<path>.tmp`,
// then renames over `path`. Creates parent directories as needed;
// throws std::runtime_error on I/O failure.
void write_text_exposition(const std::string& path,
                           const MetricsRegistry& registry);

// One line of a 0.0.4 document. kNone is a blank line, a HELP line or
// another comment; kType carries `name` and `type`; kSample carries the
// series `name`, its labels in file order and its value.
struct ExpositionLine {
  enum class Kind { kNone, kType, kSample };
  Kind kind = Kind::kNone;
  std::string name;
  std::string type;        // counter, gauge or histogram
  MetricLabels labels;
  std::string value_text;  // the sample value as written
  double value = 0.0;
};

// The one exposition line parser, shared by seed_counters_from_exposition
// and tools/trace_lint. Throws std::runtime_error naming the defect (a
// bad TYPE line, label pair or escape, or a missing or unparseable value).
ExpositionLine parse_exposition_line(const std::string& line);

// Resume support: re-reads a previously published exposition file and
// pre-adds every *counter* sample into `registry`, so a resumed run's
// counters continue from the crashed run's totals instead of restarting
// at zero (counters are cumulative — a scraper must never observe a
// regression across a crash/resume boundary). Only families declared
// `# TYPE <name> counter` are seeded; gauges and histograms are
// last-write-wins / distribution state and are rebuilt by the resumed
// run itself. Returns the number of samples seeded; a missing file is
// not an error (returns 0) so first runs and resumes share one code
// path. Lines parse_exposition_line rejects, and counter values that
// are not plain digits, are skipped rather than fatal — the file may
// predate this build.
//
// Counters across a resume mean "work performed, including replayed
// rounds". The file may have been published after the checkpoint the
// run resumes from; the rounds in between are counted once by the
// crashed run and again when the resumed run replays them — the same
// way they appear in both appended JSONL trace segments, which is what
// trace_lint's cross-check sums.
std::size_t seed_counters_from_exposition(MetricsRegistry& registry,
                                          const std::string& path);

// Rewrites `path` after every completed round (and once more at run
// end, so the file always ends on the final state). The exporter only
// reads the registry — pair it with a MetricsObserver registered
// *before* it, which does the feeding. Each request copies the registry
// on the calling thread; writes run on the exporter's own writer thread
// (see file comment); call flush() before reading the published file.
class MetricsExporter final : public TrainingObserver {
 public:
  // Throws std::runtime_error when `path` cannot be written (its parent
  // directories are created first).
  MetricsExporter(const MetricsRegistry& registry, std::string path);
  ~MetricsExporter() override;

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  void on_round_end(const RoundMetrics& metrics,
                    const RoundTrace& trace) override;
  void on_run_end(const TrainHistory& history) override;

  // Blocks until every requested publish has hit the disk, then rethrows
  // the first writer-thread I/O error, if any (on_run_end flushes too,
  // so run() surfaces publish failures).
  void flush() FED_EXCLUDES(mu_);

  const std::string& path() const { return path_; }
  // Completed publishes. Coalescing means this can be lower than the
  // number of rounds — it counts files actually written.
  std::size_t writes() const FED_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return writes_;
  }

 private:
  void request_publish() FED_EXCLUDES(mu_);
  void worker_loop() FED_EXCLUDES(mu_);

  const MetricsRegistry& registry_;
  std::string path_;

  // mu_ guards the round-thread <-> writer-thread hand-off, the only
  // state the two threads share; cv_ signals both directions (copy
  // posted / write finished).
  mutable Mutex mu_;
  CondVar cv_;
  std::optional<MetricsRegistry> pending_ FED_GUARDED_BY(mu_);  // to write
  bool busy_ FED_GUARDED_BY(mu_) = false;  // a write is in flight
  std::size_t writes_ FED_GUARDED_BY(mu_) = 0;
  bool stop_ FED_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ FED_GUARDED_BY(mu_);  // first write failure
  std::thread worker_;
};

}  // namespace fed
