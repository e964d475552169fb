// Metrics registry: named counters, gauges, and histograms, written
// from the round thread only. Every feeder is a TrainingObserver, and
// the Trainer calls observers from the round thread, never from
// ThreadPool workers, so instruments are plain values. The registry
// keeps them in std::map nodes, whose addresses never move: cache a
// reference once and update it without another lookup:
//
//   Counter& drops = registry.counter("fed_comm_faults_total",
//                                     {{"kind", "drop"}});
//   drops.add();
//
// Instruments with the same name form a *family* distinguished by label
// sets (the Prometheus data model); obs/exposition.h renders a registry
// as Prometheus text format 0.0.4 for external scrapers, and its
// MetricsExporter publishes a copy so the writer thread never reads the
// live registry.
//
// MetricsObserver feeds the registry from the Trainer's observer hooks:
// one table of RoundTrace-derived counters (trace_counters), a few
// gauges, and the round and client-solve time histograms.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/observer.h"

namespace fed {

// One instrument's label set: (key, value) pairs. The registry sorts
// them by key on first lookup, so {{"b","2"},{"a","1"}} and
// {{"a","1"},{"b","2"}} name the same instrument. Keys must be unique
// within a set and valid Prometheus label names ([a-zA-Z_][a-zA-Z0-9_]*);
// values may contain anything — the exposition writer escapes them.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Exponentially-bucketed distribution: bucket 0 covers everything up to
// and including 2 * scale, bucket i >= 1 covers (scale * 2^i,
// scale * 2^(i+1)], and the last bucket absorbs every overflow.
class Histogram {
 public:
  explicit Histogram(double scale = 1e-6, std::size_t num_buckets = 32);

  void observe(double v);

  std::uint64_t count() const { return count_; }  // the sum of buckets()
  double sum() const { return sum_; }
  double min() const { return min_; }  // 0 when count() == 0
  double max() const { return max_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  // Inclusive upper edge of bucket `i` (the Prometheus `le` bound):
  // scale * 2^(i+1). The last bucket's edge is +infinity. A value landing
  // exactly on an edge is counted in the bucket it closes.
  double bucket_upper_edge(std::size_t i) const;

 private:
  double scale_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Instruments by family name, then by sorted label set. A copy is an
// independent point-in-time state of every instrument (MetricsExporter
// publishes one per round).
class MetricsRegistry {
 public:
  template <typename T>
  using Family = std::map<MetricLabels, T>;

  // Find-or-create by (name, labels). Returned references are stable for
  // the registry's lifetime. The labels overloads address one member of
  // a labeled family; the label-free overloads are the family's single
  // unlabeled member.
  Counter& counter(const std::string& name, MetricLabels labels = {});
  Gauge& gauge(const std::string& name, MetricLabels labels = {});
  Histogram& histogram(const std::string& name, double scale = 1e-6,
                       std::size_t num_buckets = 32);
  Histogram& histogram(const std::string& name, MetricLabels labels,
                       double scale = 1e-6, std::size_t num_buckets = 32);
  // Members of one histogram family should share scale/num_buckets; the
  // shape arguments only apply when the instrument is first created.

  // HELP text for a family, rendered by the exposition writer. Idempotent.
  void set_help(const std::string& name, std::string help);

  // Read access for the exposition writer; maps iterate sorted.
  const std::map<std::string, Family<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Family<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Family<Histogram>>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::string>& help() const { return help_; }

 private:
  std::map<std::string, Family<Counter>> counters_;
  std::map<std::string, Family<Gauge>> gauges_;
  std::map<std::string, Family<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
};

// One counter series derived from RoundTrace: MetricsObserver adds
// value(trace) at every round end, and tools/trace_lint sums the same
// function over the JSONL round lines to reconcile an exposition with
// its trace. `kind` is the series' `kind` label value, or nullptr.
struct TraceCounter {
  const char* name;
  const char* kind;
  const char* help;
  std::uint64_t (*value)(const RoundTrace& trace);

  // The series as a selector: name{kind="<kind>"}, or the bare name.
  std::string series() const {
    return kind ? std::string(name) + "{kind=\"" + kind + "\"}" : name;
  }
};

// Every RoundTrace-derived counter series, each stated once (the
// fed_*_total families; fed_comm_faults_total has one series per
// FaultEvent kind).
const std::vector<TraceCounter>& trace_counters();

// Feeds a MetricsRegistry from the observer hooks: every trace_counters()
// series, plus
//   gauges     fed_mu, fed_train_loss (last evaluated), fed_round,
//              fed_active_devices, fed_checkpoint_last_round,
//              fed_checkpoint_generations
//   histograms fed_round_seconds, fed_client_solve_seconds
// All are registered at construction, so scrapers see zeros.
//
// Commit discipline: the mid-round hook (on_client_result) only buffers
// the round's solve times; everything is committed to the registry at
// on_round_end, and every counter comes from the round's trace. Fault
// kinds are counted from the trace columns, not from on_fault events: a
// duplicate the quorum cut later revokes fires an event but is no
// duplicate in the trace. A round the server never finishes — a crash
// mid-aggregation (core/checkpoint.h) — therefore commits nothing, so
// exposition counters always reconcile exactly with the summed
// per-round trace lines, across crashes and resumes (trace_lint's
// cross-check relies on this).
class MetricsObserver final : public TrainingObserver {
 public:
  explicit MetricsObserver(MetricsRegistry& registry);

  void on_client_result(std::size_t round, const ClientResult& result) override;
  void on_round_end(const RoundMetrics& metrics,
                    const RoundTrace& trace) override;

 private:
  std::vector<Counter*> counters_;  // one per trace_counters() series
  Gauge& active_devices_;
  Gauge& checkpoint_last_round_;
  Gauge& checkpoint_generations_;
  Gauge& mu_;
  Gauge& train_loss_;
  Gauge& round_;
  Histogram& round_seconds_;
  Histogram& solve_seconds_;
  std::vector<double> pending_solve_seconds_;  // this round's, uncommitted
};

}  // namespace fed
