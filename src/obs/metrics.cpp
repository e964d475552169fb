#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "comm/fault.h"

namespace fed {

namespace {

// CAS add/min/max for atomic<double> (fetch_add on floating atomics is
// C++20 but not universally lowered to something lock-free; the CAS loop
// is portable and contention here is a handful of threads).
void atomic_add(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

MetricLabels canonical(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

Histogram::Histogram(double scale, std::size_t num_buckets)
    : scale_(scale > 0.0 ? scale : 1e-6),
      num_buckets_(num_buckets ? num_buckets : 1),
      buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(num_buckets_)) {
  reset();
}

void Histogram::observe(double v) {
  std::size_t idx = 0;
  if (v > scale_) {
    const int exp = std::ilogb(v / scale_);
    idx = std::min<std::size_t>(static_cast<std::size_t>(std::max(exp, 0)),
                                num_buckets_ - 1);
  }
  // Bucket before everything else: snapshot() recounts from the buckets,
  // so an observation becomes visible (count + bucket together) at this
  // fetch_add, and sum/min/max catch up within this call.
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  if (prev == 0) {
    // First observation seeds min/max; racing observers converge via the
    // CAS loops below.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  atomic_min(min_, v);
  atomic_max(max_, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.buckets.resize(num_buckets_);
  // One pass over the buckets defines the snapshot's count — never the
  // separately-raced count_ — so count == sum(buckets) holds by
  // construction even mid-observe.
  for (std::size_t i = 0; i < num_buckets_; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count ? min_.load(std::memory_order_relaxed) : 0.0;
  s.max = s.count ? max_.load(std::memory_order_relaxed) : 0.0;
  return s;
}

void Histogram::reset() {
  for (std::size_t i = 0; i < num_buckets_; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double Histogram::bucket_upper_edge(std::size_t i) const {
  if (i + 1 >= num_buckets_) return std::numeric_limits<double>::infinity();
  return scale_ * std::ldexp(1.0, static_cast<int>(i) + 1);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counter(name, {});
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  MetricLabels labels) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name][canonical(std::move(labels))];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauge(name, {});
}

Gauge& MetricsRegistry::gauge(const std::string& name, MetricLabels labels) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name][canonical(std::move(labels))];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, double scale,
                                      std::size_t num_buckets) {
  return histogram(name, {}, scale, num_buckets);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      MetricLabels labels, double scale,
                                      std::size_t num_buckets) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name][canonical(std::move(labels))];
  if (!slot) slot = std::make_unique<Histogram>(scale, num_buckets);
  return *slot;
}

void MetricsRegistry::set_help(const std::string& name, std::string help) {
  MutexLock lock(mutex_);
  help_[name] = std::move(help);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, family] : counters_) {
    auto& samples = out.counters[name];
    for (const auto& [labels, c] : family) {
      samples.push_back({labels, c->value()});
    }
  }
  for (const auto& [name, family] : gauges_) {
    auto& samples = out.gauges[name];
    for (const auto& [labels, g] : family) {
      samples.push_back({labels, g->value()});
    }
  }
  for (const auto& [name, family] : histograms_) {
    auto& samples = out.histograms[name];
    for (const auto& [labels, h] : family) {
      MetricsSnapshot::HistogramSample sample;
      sample.labels = labels;
      sample.scale = h->scale();
      sample.upper_edges.resize(h->num_buckets());
      for (std::size_t i = 0; i < h->num_buckets(); ++i) {
        sample.upper_edges[i] = h->bucket_upper_edge(i);
      }
      sample.snapshot = h->snapshot();
      samples.push_back(std::move(sample));
    }
  }
  out.help = help_;
  return out;
}

const std::vector<TraceCounter>& trace_counters() {
  using K = FaultEvent::Kind;
  using T = const RoundTrace&;
  static const char* const kFaultsHelp =
      "Channel incidents observed by the server, by kind.";
  static const std::vector<TraceCounter> table = {
      {"fed_rounds_total", nullptr, "Completed federated rounds.",
       [](T) -> std::uint64_t { return 1; }},
      {"fed_clients_total", nullptr,
       "Client updates the server accepted, one local solve each "
       "(FedAvg then drops its stragglers from aggregation).",
       [](T t) -> std::uint64_t { return t.solve.count; }},
      {"fed_stragglers_total", nullptr,
       "Accepted updates that ran fewer than the full epochs.",
       [](T t) -> std::uint64_t { return t.stragglers; }},
      {"fed_comm_bytes_up_total", nullptr,
       "Exact wire bytes delivered device -> server.",
       [](T t) -> std::uint64_t { return t.bytes_up; }},
      {"fed_comm_bytes_down_total", nullptr,
       "Exact wire bytes sent server -> device.",
       [](T t) -> std::uint64_t { return t.bytes_down; }},
      {"fed_comm_retries_total", nullptr,
       "Exchange attempts beyond each device's first.",
       [](T t) -> std::uint64_t { return t.faults.retries; }},
      {"fed_comm_faults_total", to_string(K::kDrop), kFaultsHelp,
       [](T t) -> std::uint64_t { return t.faults.drops; }},
      {"fed_comm_faults_total", to_string(K::kCorrupt), kFaultsHelp,
       [](T t) -> std::uint64_t { return t.faults.corruptions; }},
      {"fed_comm_faults_total", to_string(K::kTimeout), kFaultsHelp,
       [](T t) -> std::uint64_t { return t.faults.timeouts; }},
      {"fed_comm_faults_total", to_string(K::kDuplicate), kFaultsHelp,
       [](T t) -> std::uint64_t { return t.faults.duplicates; }},
      {"fed_comm_faults_total", to_string(K::kDeviceFailed), kFaultsHelp,
       [](T t) -> std::uint64_t { return t.faults.failed_devices; }},
      {"fed_comm_faults_total", to_string(K::kQuorumDrop), kFaultsHelp,
       [](T t) -> std::uint64_t { return t.faults.quorum_drops; }},
      {"fed_comm_faults_total", to_string(K::kDepart), kFaultsHelp,
       [](T t) -> std::uint64_t { return t.faults.departs; }},
      {"fed_comm_faults_total", to_string(K::kRoundDegraded), kFaultsHelp,
       [](T t) -> std::uint64_t { return t.degraded ? 1 : 0; }},
      {"fed_shard_merges_total", nullptr,
       "Shard partials merged at the aggregation root.",
       [](T t) -> std::uint64_t { return t.shards.size(); }},
      {"fed_shard_partial_bytes_total", nullptr,
       "FPS2 wire bytes moved shard -> root.",
       [](T t) {
         std::uint64_t bytes = 0;
         for (const ShardStat& s : t.shards) bytes += s.partial_bytes;
         return bytes;
       }},
      {"fed_churn_arrivals_total", nullptr,
       "Devices that joined the open-world federation.",
       [](T t) -> std::uint64_t { return t.arrivals; }},
      {"fed_churn_departures_total", nullptr,
       "Devices that left the open-world federation.",
       [](T t) -> std::uint64_t { return t.departures; }},
      {"fed_checkpoint_writes_total", nullptr,
       "Durable FPC1 checkpoints written.",
       [](T t) -> std::uint64_t { return t.checkpoint.written ? 1 : 0; }},
      {"fed_checkpoint_bytes_total", nullptr,
       "Encoded FPC1 bytes made durable.",
       [](T t) -> std::uint64_t {
         return t.checkpoint.written ? t.checkpoint.bytes : 0;
       }},
  };
  return table;
}

MetricsObserver::MetricsObserver(MetricsRegistry& registry)
    : registry_(registry) {
  for (const TraceCounter& c : trace_counters()) {
    MetricLabels labels;
    if (c.kind) labels.emplace_back("kind", c.kind);
    counters_.push_back(&registry.counter(c.name, std::move(labels)));
    registry.set_help(c.name, c.help);
  }
  for (const auto& [name, help] :
       {std::pair{"fed_active_devices", "Live device population this round."},
        {"fed_checkpoint_last_round",
         "Round captured by the newest checkpoint."},
        {"fed_checkpoint_generations",
         "Checkpoint files currently retained on disk."},
        {"fed_mu", "Active FedProx proximal coefficient."},
        {"fed_train_loss", "Last evaluated global training loss."},
        {"fed_round", "Most recently completed round index."}}) {
    registry.gauge(name);
    registry.set_help(name, help);
  }
  registry.histogram("fed_round_seconds");
  registry.set_help("fed_round_seconds", "Wall seconds per federated round.");
  registry.histogram("fed_client_solve_seconds");
  registry.set_help("fed_client_solve_seconds",
                    "Wall seconds per client local solve.");
}

void MetricsObserver::on_client_result(std::size_t round,
                                       const ClientResult& result) {
  (void)round;
  pending_solve_seconds_.push_back(result.solve_seconds);
}

void MetricsObserver::on_round_end(const RoundMetrics& metrics,
                                   const RoundTrace& trace) {
  // Commit the round's buffered solve times together with its
  // trace-derived counters — one unit per completed round.
  const std::vector<TraceCounter>& table = trace_counters();
  for (std::size_t i = 0; i < table.size(); ++i) {
    counters_[i]->add(table[i].value(trace));
  }
  Histogram& solve_seconds = registry_.histogram("fed_client_solve_seconds");
  for (double s : pending_solve_seconds_) solve_seconds.observe(s);
  pending_solve_seconds_.clear();
  registry_.histogram("fed_round_seconds").observe(trace.round_seconds);

  if (trace.checkpoint.written) {
    registry_.gauge("fed_checkpoint_last_round")
        .set(static_cast<double>(trace.checkpoint.round));
    registry_.gauge("fed_checkpoint_generations")
        .set(static_cast<double>(trace.checkpoint.generations));
  }
  registry_.gauge("fed_mu").set(metrics.mu);
  registry_.gauge("fed_round").set(static_cast<double>(metrics.round));
  registry_.gauge("fed_active_devices")
      .set(static_cast<double>(trace.active_devices));
  if (metrics.train_loss) {
    registry_.gauge("fed_train_loss").set(*metrics.train_loss);
  }
}

}  // namespace fed
