#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "comm/fault.h"

namespace fed {

namespace {

MetricLabels canonical(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

Histogram::Histogram(double scale, std::size_t num_buckets)
    : scale_(scale > 0.0 ? scale : 1e-6),
      buckets_(num_buckets ? num_buckets : 1, 0) {}

void Histogram::observe(double v) {
  std::size_t idx = 0;
  if (v > 2.0 * scale_) {
    // v / scale_ rounds, so settle an edge against the exact edge value.
    int exp = std::ilogb(v / scale_);
    if (v <= std::ldexp(scale_, exp)) --exp;
    idx = std::min<std::size_t>(static_cast<std::size_t>(exp),
                                buckets_.size() - 1);
  }
  ++buckets_[idx];
  min_ = count_ == 0 ? v : std::min(min_, v);
  max_ = count_ == 0 ? v : std::max(max_, v);
  ++count_;
  sum_ += v;
}

double Histogram::bucket_upper_edge(std::size_t i) const {
  if (i + 1 >= buckets_.size()) return std::numeric_limits<double>::infinity();
  return scale_ * std::ldexp(1.0, static_cast<int>(i) + 1);
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  MetricLabels labels) {
  return counters_[name][canonical(std::move(labels))];
}

Gauge& MetricsRegistry::gauge(const std::string& name, MetricLabels labels) {
  return gauges_[name][canonical(std::move(labels))];
}

Histogram& MetricsRegistry::histogram(const std::string& name, double scale,
                                      std::size_t num_buckets) {
  return histogram(name, {}, scale, num_buckets);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      MetricLabels labels, double scale,
                                      std::size_t num_buckets) {
  return histograms_[name]
      .try_emplace(canonical(std::move(labels)), scale, num_buckets)
      .first->second;
}

void MetricsRegistry::set_help(const std::string& name, std::string help) {
  help_[name] = std::move(help);
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

namespace {

Gauge& described_gauge(MetricsRegistry& registry, const char* name,
                       const char* help) {
  registry.set_help(name, help);
  return registry.gauge(name);
}

Histogram& described_histogram(MetricsRegistry& registry, const char* name,
                               const char* help) {
  registry.set_help(name, help);
  return registry.histogram(name);
}

}  // namespace

MetricsObserver::MetricsObserver(MetricsRegistry& registry)
    : active_devices_(described_gauge(registry, "fed_active_devices",
                                      "Live device population this round.")),
      checkpoint_last_round_(
          described_gauge(registry, "fed_checkpoint_last_round",
                          "Round captured by the newest checkpoint.")),
      checkpoint_generations_(
          described_gauge(registry, "fed_checkpoint_generations",
                          "Checkpoint files currently retained on disk.")),
      mu_(described_gauge(registry, "fed_mu",
                          "Active FedProx proximal coefficient.")),
      train_loss_(described_gauge(registry, "fed_train_loss",
                                  "Last evaluated global training loss.")),
      round_(described_gauge(registry, "fed_round",
                             "Most recently completed round index.")),
      round_seconds_(described_histogram(registry, "fed_round_seconds",
                                         "Wall seconds per federated round.")),
      solve_seconds_(
          described_histogram(registry, "fed_client_solve_seconds",
                              "Wall seconds per client local solve.")) {
  for (const TraceCounter& c : trace_counters()) {
    MetricLabels labels;
    if (c.kind) labels.emplace_back("kind", c.kind);
    counters_.push_back(&registry.counter(c.name, std::move(labels)));
    registry.set_help(c.name, c.help);
  }
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
  for (double s : pending_solve_seconds_) solve_seconds_.observe(s);
  pending_solve_seconds_.clear();
  round_seconds_.observe(trace.round_seconds);

  if (trace.checkpoint.written) {
    checkpoint_last_round_.set(static_cast<double>(trace.checkpoint.round));
    checkpoint_generations_.set(
        static_cast<double>(trace.checkpoint.generations));
  }
  mu_.set(metrics.mu);
  round_.set(static_cast<double>(metrics.round));
  active_devices_.set(static_cast<double>(trace.active_devices));
  if (metrics.train_loss) train_loss_.set(*metrics.train_loss);
}

}  // namespace fed
