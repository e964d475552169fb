#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

MetricsObserver::MetricsObserver(MetricsRegistry& registry)
    : rounds_(registry.counter("fed_rounds_total")),
      clients_(registry.counter("fed_clients_total")),
      stragglers_(registry.counter("fed_stragglers_total")),
      bytes_up_(registry.counter("fed_comm_bytes_up_total")),
      bytes_down_(registry.counter("fed_comm_bytes_down_total")),
      retries_(registry.counter("fed_comm_retries_total")),
      degraded_rounds_(registry.counter("fed_comm_rounds_degraded_total")),
      shard_merges_(registry.counter("fed_shard_merges_total")),
      shard_partial_bytes_(registry.counter("fed_shard_partial_bytes_total")),
      churn_arrivals_(registry.counter("fed_churn_arrivals_total")),
      churn_departures_(registry.counter("fed_churn_departures_total")),
      checkpoint_writes_(registry.counter("fed_checkpoint_writes_total")),
      checkpoint_bytes_(registry.counter("fed_checkpoint_bytes_total")),
      mu_(registry.gauge("fed_mu")),
      train_loss_(registry.gauge("fed_train_loss")),
      round_(registry.gauge("fed_round")),
      active_devices_(registry.gauge("fed_active_devices")),
      checkpoint_last_round_(registry.gauge("fed_checkpoint_last_round")),
      checkpoint_generations_(registry.gauge("fed_checkpoint_generations")),
      round_seconds_(registry.histogram("fed_round_seconds")),
      solve_seconds_(registry.histogram("fed_client_solve_seconds")) {
  // Pre-register every fault kind so committing a round is a lock-free
  // add and the exposition shows explicit zeros for kinds that never
  // fired.
  for (std::size_t k = 0; k < kFaultKinds; ++k) {
    const auto kind = static_cast<FaultEvent::Kind>(k);
    faults_by_kind_[k] =
        &registry.counter("fed_comm_faults_total", {{"kind", to_string(kind)}});
  }
  registry.set_help("fed_rounds_total", "Completed federated rounds.");
  registry.set_help("fed_clients_total",
                    "Client updates accepted into aggregation.");
  registry.set_help("fed_stragglers_total",
                    "Accepted updates that ran fewer than the full epochs.");
  registry.set_help("fed_comm_bytes_up_total",
                    "Exact wire bytes delivered device -> server.");
  registry.set_help("fed_comm_bytes_down_total",
                    "Exact wire bytes sent server -> device.");
  registry.set_help("fed_comm_faults_total",
                    "Channel incidents observed by the server, by kind.");
  registry.set_help("fed_comm_retries_total",
                    "Exchange attempts beyond each device's first.");
  registry.set_help("fed_comm_rounds_degraded_total",
                    "Rounds that aggregated zero updates and kept w.");
  registry.set_help("fed_shard_merges_total",
                    "Shard partials merged at the aggregation root.");
  registry.set_help("fed_shard_partial_bytes_total",
                    "FPS2 wire bytes moved shard -> root.");
  registry.set_help("fed_churn_arrivals_total",
                    "Devices that joined the open-world federation.");
  registry.set_help("fed_churn_departures_total",
                    "Devices that left the open-world federation.");
  registry.set_help("fed_checkpoint_writes_total",
                    "Durable FPC1 checkpoints written.");
  registry.set_help("fed_checkpoint_bytes_total",
                    "Encoded FPC1 bytes made durable.");
  registry.set_help("fed_active_devices",
                    "Live device population this round.");
  registry.set_help("fed_checkpoint_last_round",
                    "Round captured by the newest checkpoint.");
  registry.set_help("fed_checkpoint_generations",
                    "Checkpoint files currently retained on disk.");
  registry.set_help("fed_mu", "Active FedProx proximal coefficient.");
  registry.set_help("fed_train_loss", "Last evaluated global training loss.");
  registry.set_help("fed_round", "Most recently completed round index.");
  registry.set_help("fed_round_seconds", "Wall seconds per federated round.");
  registry.set_help("fed_client_solve_seconds",
                    "Wall seconds per client local solve.");
}

void MetricsObserver::on_client_result(std::size_t round,
                                       const ClientResult& result) {
  (void)round;
  ++pending_.clients;
  if (result.straggler) ++pending_.stragglers;
  pending_.solve_seconds.push_back(result.solve_seconds);
}

void MetricsObserver::on_round_end(const RoundMetrics& metrics,
                                   const RoundTrace& trace) {
  // Commit the round's buffered observations together with its
  // trace-derived counters — one atomic-enough unit per completed round.
  // Fault kinds come from the trace columns, indexed by FaultEvent::Kind.
  const CommFaultStats& f = trace.faults;
  const std::array<std::size_t, kFaultKinds> faults = {
      f.drops,          f.corruptions,  f.timeouts, f.duplicates,
      f.failed_devices, f.quorum_drops, f.departs,  trace.degraded ? 1u : 0u};
  for (std::size_t k = 0; k < kFaultKinds; ++k) {
    if (faults[k]) faults_by_kind_[k]->add(faults[k]);
  }
  clients_.add(pending_.clients);
  stragglers_.add(pending_.stragglers);
  for (double s : pending_.solve_seconds) solve_seconds_.observe(s);
  pending_ = PendingRound{};

  rounds_.add();
  bytes_up_.add(trace.bytes_up);
  bytes_down_.add(trace.bytes_down);
  retries_.add(trace.faults.retries);
  shard_merges_.add(trace.shards.size());
  for (const ShardStat& s : trace.shards) {
    shard_partial_bytes_.add(s.partial_bytes);
  }
  if (trace.degraded) degraded_rounds_.add();
  churn_arrivals_.add(trace.arrivals);
  churn_departures_.add(trace.departures);
  if (trace.checkpoint.written) {
    checkpoint_writes_.add();
    checkpoint_bytes_.add(trace.checkpoint.bytes);
    checkpoint_last_round_.set(static_cast<double>(trace.checkpoint.round));
    checkpoint_generations_.set(
        static_cast<double>(trace.checkpoint.generations));
  }
  mu_.set(metrics.mu);
  round_.set(static_cast<double>(metrics.round));
  active_devices_.set(static_cast<double>(trace.active_devices));
  if (metrics.train_loss) train_loss_.set(*metrics.train_loss);
  round_seconds_.observe(trace.round_seconds);
}

}  // namespace fed
