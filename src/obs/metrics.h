// Lock-cheap metrics registry: named counters, gauges, and histograms
// that can be bumped concurrently from ThreadPool workers. The registry
// mutex guards only (name, labels) -> instrument lookup (registration);
// every hot update is a relaxed atomic on a stable instrument address,
// so cache a reference once and write freely from any thread:
//
//   Counter& solves = registry.counter("fed_client_solves_total");
//   Counter& drops = registry.counter("fed_comm_faults_total",
//                                     {{"kind", "drop"}});
//   pool->parallel_for(n, [&](std::size_t i) { ...; solves.add(); });
//
// Instruments with the same name form a *family* distinguished by label
// sets (the Prometheus data model); obs/exposition.h renders a registry
// as Prometheus text format 0.0.4 for external scrapers.
//
// MetricsObserver feeds the registry from the Trainer's observer hooks:
// one table of RoundTrace-derived counters (trace_counters), a few
// gauges, and the round and client-solve time histograms.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/observer.h"
#include "support/thread_annotations.h"

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
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Exponentially-bucketed distribution: bucket 0 covers everything up to
// 2 * scale, bucket i >= 1 covers [scale * 2^i, scale * 2^(i+1)), and
// the last bucket absorbs every overflow. Sum/min/max are maintained
// with CAS loops so observe() stays lock-free on every platform.
//
// Ordering contract (everything is memory_order_relaxed): observe()
// bumps the bucket *first*, then count/sum/min/max, and snapshot()
// derives its count from a single pass over the buckets — so a snapshot
// always satisfies count == sum(buckets) and per-bucket counts are
// monotone across snapshots, even while other threads observe. The sum/
// min/max fields are updated by separate atomics and may trail or lead
// the bucket pass by in-flight observations; they converge once writers
// quiesce. reset() is NOT linearizable against concurrent observe() —
// racing the two can strand an observation in sum but not the buckets
// (or vice versa) — so reset only at quiescent points, never mid-round.
class Histogram {
 public:
  explicit Histogram(double scale = 1e-6, std::size_t num_buckets = 32);

  void observe(double v);

  struct Snapshot {
    std::uint64_t count = 0;  // always equals the sum of `buckets`
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;
    std::vector<std::uint64_t> buckets;

    double mean() const {
      return count ? sum / static_cast<double>(count) : 0.0;
    }
  };
  Snapshot snapshot() const;
  void reset();

  double scale() const { return scale_; }
  std::size_t num_buckets() const { return num_buckets_; }
  // Inclusive upper edge of bucket `i` (the Prometheus `le` bound):
  // scale * 2^(i+1). The last bucket's edge is +infinity. Values landing
  // exactly on an edge are counted in the *next* bucket — a one-ulp
  // boundary skew the exposition accepts in exchange for lock-free
  // observes.
  double bucket_upper_edge(std::size_t i) const;

 private:
  double scale_;
  std::size_t num_buckets_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};  // min/max seeding only; snapshots
                                         // recount from the buckets
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// A point-in-time copy of every instrument, grouped by family name with
// one sample per label set (label sets sorted, families sorted by name).
// This is what the exposition writer consumes, so one document is one
// consistent read of the registry.
struct MetricsSnapshot {
  struct CounterSample {
    MetricLabels labels;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    MetricLabels labels;
    double value = 0.0;
  };
  struct HistogramSample {
    MetricLabels labels;
    double scale = 0.0;
    std::vector<double> upper_edges;  // per bucket; last is +inf
    Histogram::Snapshot snapshot;
  };
  std::map<std::string, std::vector<CounterSample>> counters;
  std::map<std::string, std::vector<GaugeSample>> gauges;
  std::map<std::string, std::vector<HistogramSample>> histograms;
  std::map<std::string, std::string> help;  // family name -> HELP text
};

class MetricsRegistry {
 public:
  // Find-or-create by (name, labels). Returned references are stable for
  // the registry's lifetime; only this lookup takes the mutex. The
  // labels overloads address one member of a labeled family; the
  // label-free overloads are the family's single unlabeled member.
  Counter& counter(const std::string& name) FED_EXCLUDES(mutex_);
  Counter& counter(const std::string& name, MetricLabels labels)
      FED_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) FED_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name, MetricLabels labels)
      FED_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name, double scale = 1e-6,
                       std::size_t num_buckets = 32) FED_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name, MetricLabels labels,
                       double scale = 1e-6, std::size_t num_buckets = 32)
      FED_EXCLUDES(mutex_);
  // Members of one histogram family should share scale/num_buckets; the
  // shape arguments only apply when the instrument is first created.

  // HELP text for a family, rendered by the exposition writer. Idempotent.
  void set_help(const std::string& name, std::string help)
      FED_EXCLUDES(mutex_);

  MetricsSnapshot snapshot() const FED_EXCLUDES(mutex_);

 private:
  template <typename T>
  using Family = std::map<MetricLabels, std::unique_ptr<T>>;

  // mutex_ guards the family maps and help_ — i.e. registry *structure*
  // (find-or-create, snapshot iteration). It never guards instrument
  // *values*: those live behind stable unique_ptr addresses and update
  // via relaxed atomics, so cached Counter&/Gauge&/Histogram& references
  // stay valid and writable without the lock (the stable-address
  // contract in the file comment).
  mutable Mutex mutex_;
  std::map<std::string, Family<Counter>> counters_ FED_GUARDED_BY(mutex_);
  std::map<std::string, Family<Gauge>> gauges_ FED_GUARDED_BY(mutex_);
  std::map<std::string, Family<Histogram>> histograms_ FED_GUARDED_BY(mutex_);
  std::map<std::string, std::string> help_ FED_GUARDED_BY(mutex_);
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
  MetricsRegistry& registry_;
  std::vector<Counter*> counters_;  // one per trace_counters() series
  std::vector<double> pending_solve_seconds_;  // this round's, uncommitted
};

}  // namespace fed
