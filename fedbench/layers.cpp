#include "layers.h"

#include <filesystem>

#include "core/checkpoint.h"

namespace fedbench {

namespace {

// What the current pool worker (or the round thread) has spent so far.
// Only its own thread touches it, so no synchronization is needed.
struct ThreadTotals {
  bool in_solve = false;
  double solve_seconds = 0.0;
  double nn_seconds = 0.0;  // model calls made by solves
  std::uint64_t grad_calls = 0;
  std::uint64_t grad_samples = 0;
};

thread_local ThreadTotals tls;

double elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

double seconds_since(Clock::time_point origin) { return elapsed(origin); }

void LayerLog::add(const ExchangeSample& sample) {
  fed::MutexLock lock(mu_);
  exchanges_.push_back(sample);
}

std::vector<ExchangeSample> LayerLog::exchanges() {
  fed::MutexLock lock(mu_);
  return exchanges_;
}

TimedModel::TimedModel(std::shared_ptr<const fed::Model> inner, LayerLog& log)
    : inner_(std::move(inner)), log_(log) {}

void TimedModel::charge(Clock::time_point start, std::size_t samples,
                        bool grad) const {
  const double seconds = elapsed(start);
  if (tls.in_solve) {
    tls.nn_seconds += seconds;
    if (grad) {
      ++tls.grad_calls;
      tls.grad_samples += samples;
    }
    return;
  }
  log_.eval_ns.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                         std::memory_order_relaxed);
}

double TimedModel::loss_and_grad(std::span<const double> w,
                                 const fed::Dataset& data,
                                 std::span<const std::size_t> batch,
                                 std::span<double> grad) const {
  const auto start = Clock::now();
  const double value = inner_->loss_and_grad(w, data, batch, grad);
  charge(start, batch.size(), /*grad=*/true);
  return value;
}

double TimedModel::loss(std::span<const double> w, const fed::Dataset& data,
                        std::span<const std::size_t> batch) const {
  const auto start = Clock::now();
  const double value = inner_->loss(w, data, batch);
  charge(start, batch.size(), /*grad=*/false);
  return value;
}

void TimedModel::predict(std::span<const double> w, const fed::Dataset& data,
                         std::span<const std::size_t> batch,
                         std::vector<std::int32_t>& out) const {
  const auto start = Clock::now();
  inner_->predict(w, data, batch, out);
  charge(start, batch.size(), /*grad=*/false);
}

TimedSolver::TimedSolver(std::shared_ptr<const fed::LocalSolver> inner)
    : inner_(std::move(inner)) {}

void TimedSolver::solve(const fed::LocalProblem& problem,
                        const fed::SolveBudget& budget, fed::Rng& rng,
                        std::span<double> w) const {
  tls.in_solve = true;
  const auto start = Clock::now();
  inner_->solve(problem, budget, rng, w);
  tls.solve_seconds += elapsed(start);
  tls.in_solve = false;
}

TimedTransport::TimedTransport(std::shared_ptr<const fed::Transport> inner,
                               LayerLog& log)
    : inner_(std::move(inner)), log_(log) {}

fed::ExchangeRecord TimedTransport::exchange(
    const fed::ModelBroadcast& broadcast,
    const fed::ClientRuntime& client) const {
  const ThreadTotals before = tls;
  const auto start = Clock::now();
  fed::ExchangeRecord record = inner_->exchange(broadcast, client);
  ExchangeSample sample;
  sample.seconds = elapsed(start);
  sample.round = broadcast.round;
  sample.device = broadcast.budget.device;
  sample.solve_seconds = tls.solve_seconds - before.solve_seconds;
  sample.nn_seconds = tls.nn_seconds - before.nn_seconds;
  sample.grad_calls = tls.grad_calls - before.grad_calls;
  sample.grad_samples = tls.grad_samples - before.grad_samples;
  sample.bytes_down = record.bytes_down;
  sample.bytes_up = record.bytes_up;
  log_.add(sample);
  return record;
}

RoundRecorder::RoundRecorder(Clock::time_point origin,
                             std::string checkpoint_dir,
                             std::vector<fed::TrainingObserver*> children)
    : origin_(origin),
      checkpoint_dir_(std::move(checkpoint_dir)),
      children_(std::move(children)) {}

template <typename Fn>
void RoundRecorder::forward(Fn&& fn) {
  for (fed::TrainingObserver* child : children_) fn(*child);
}

RoundRecord& RoundRecorder::current(std::size_t round) {
  if (rounds_.size() <= round) rounds_.resize(round + 1);
  rounds_[round].round = round;
  return rounds_[round];
}

void RoundRecorder::on_run_start(const fed::RunInfo& info) {
  forward([&](fed::TrainingObserver& o) { o.on_run_start(info); });
}

void RoundRecorder::on_round_start(std::size_t round,
                                   std::span<const std::size_t> selected) {
  const double in = seconds_since(origin_);
  forward([&](fed::TrainingObserver& o) { o.on_round_start(round, selected); });
  RoundRecord& r = current(round);
  r.start_in = in;
  r.start_out = seconds_since(origin_);
  r.hook_seconds += r.start_out - in;
}

void RoundRecorder::post_barrier_hook(std::size_t round, double in) {
  RoundRecord& r = current(round);
  if (r.post_in < 0) r.post_in = in;
  r.post_out = seconds_since(origin_);
  r.hook_seconds += r.post_out - in;
}

void RoundRecorder::on_fault(const fed::FaultEvent& event) {
  const double in = seconds_since(origin_);
  forward([&](fed::TrainingObserver& o) { o.on_fault(event); });
  if (event.kind == fed::FaultEvent::Kind::kRoundDegraded) {
    // Emitted after aggregation, not at the exchange barrier.
    RoundRecord& r = current(event.round);
    const double seconds = seconds_since(origin_) - in;
    r.hook_seconds += seconds;
    r.late_hook_seconds += seconds;
    return;
  }
  post_barrier_hook(event.round, in);
}

void RoundRecorder::on_client_result(std::size_t round,
                                     const fed::ClientResult& result) {
  const double in = seconds_since(origin_);
  forward([&](fed::TrainingObserver& o) { o.on_client_result(round, result); });
  post_barrier_hook(round, in);
}

void RoundRecorder::on_aggregate(std::size_t round,
                                 std::span<const double> weights) {
  const double in = seconds_since(origin_);
  forward([&](fed::TrainingObserver& o) { o.on_aggregate(round, weights); });
  RoundRecord& r = current(round);
  r.agg_in = in;
  r.agg_out = seconds_since(origin_);
  r.hook_seconds += r.agg_out - in;
}

void RoundRecorder::on_round_end(const fed::RoundMetrics& metrics,
                                 const fed::RoundTrace& trace) {
  const double in = seconds_since(origin_);
  RoundRecord& r = current(metrics.round);
  r.end_in = in;
  r.evaluated = metrics.evaluated();
  if (r.evaluated) {
    r.train_loss = *metrics.train_loss;
    r.test_accuracy = *metrics.test_accuracy;
  }
  r.selected = trace.selected;
  r.contributors = trace.contributors;
  r.bytes_down = trace.bytes_down;
  r.bytes_up = trace.bytes_up;
  r.attempts = trace.faults.attempts;
  r.retries = trace.faults.retries;
  r.up_deliveries = trace.faults.up_deliveries;
  for (const fed::ShardStat& shard : trace.shards) {
    r.partial_bytes += shard.partial_bytes;
  }
  r.eval_seconds = trace.eval_seconds;
  r.round_seconds = trace.round_seconds;
  r.sampling_seconds = trace.sampling_seconds;
  r.solve_wall_seconds = trace.solve_wall_seconds;
  r.aggregate_seconds = trace.aggregate_seconds;
  if (trace.checkpoint.written) {
    r.checkpoint_written = true;
    r.checkpoint_bytes = trace.checkpoint.bytes;
    r.checkpoint_seconds = trace.checkpoint.write_seconds;
    // The newest generation on disk is the one this round just wrote.
    const std::vector<std::string> files =
        fed::list_checkpoints(checkpoint_dir_);
    if (!files.empty()) {
      r.checkpoint_file_bytes = std::filesystem::file_size(files.back());
    }
  }
  forward([&](fed::TrainingObserver& o) { o.on_round_end(metrics, trace); });
  r.end_out = seconds_since(origin_);
  r.hook_seconds += r.end_out - in;
}

void RoundRecorder::on_run_end(const fed::TrainHistory& history) {
  forward([&](fed::TrainingObserver& o) { o.on_run_end(history); });
}

namespace {

template <typename T, typename Get>
fed::JsonValue column(const std::vector<T>& rows, Get get) {
  fed::JsonArray out;
  out.reserve(rows.size());
  for (const T& row : rows) out.emplace_back(get(row));
  return fed::JsonValue(std::move(out));
}

}  // namespace

fed::JsonObject rounds_to_json(const std::vector<RoundRecord>& rounds) {
  using R = RoundRecord;
  fed::JsonObject o;
  o["round"] = column(rounds, [](const R& r) { return r.round; });
  o["evaluated"] = column(rounds, [](const R& r) { return r.evaluated; });
  o["train_loss"] = column(rounds, [](const R& r) { return r.train_loss; });
  o["test_accuracy"] =
      column(rounds, [](const R& r) { return r.test_accuracy; });
  o["selected"] = column(rounds, [](const R& r) { return r.selected; });
  o["contributors"] = column(rounds, [](const R& r) { return r.contributors; });
  o["bytes_down"] = column(
      rounds, [](const R& r) { return static_cast<double>(r.bytes_down); });
  o["bytes_up"] = column(
      rounds, [](const R& r) { return static_cast<double>(r.bytes_up); });
  o["attempts"] = column(rounds, [](const R& r) { return r.attempts; });
  o["retries"] = column(rounds, [](const R& r) { return r.retries; });
  o["up_deliveries"] =
      column(rounds, [](const R& r) { return r.up_deliveries; });
  o["partial_bytes"] = column(
      rounds, [](const R& r) { return static_cast<double>(r.partial_bytes); });
  o["checkpoint_written"] =
      column(rounds, [](const R& r) { return r.checkpoint_written; });
  o["checkpoint_bytes"] = column(rounds, [](const R& r) {
    return static_cast<double>(r.checkpoint_bytes);
  });
  o["checkpoint_file_bytes"] = column(rounds, [](const R& r) {
    return static_cast<double>(r.checkpoint_file_bytes);
  });
  o["checkpoint_s"] =
      column(rounds, [](const R& r) { return r.checkpoint_seconds; });
  o["eval_s"] = column(rounds, [](const R& r) { return r.eval_seconds; });
  o["round_s"] = column(rounds, [](const R& r) { return r.round_seconds; });
  o["sampling_s"] =
      column(rounds, [](const R& r) { return r.sampling_seconds; });
  o["solve_wall_s"] =
      column(rounds, [](const R& r) { return r.solve_wall_seconds; });
  o["aggregate_s"] =
      column(rounds, [](const R& r) { return r.aggregate_seconds; });
  o["start_in"] = column(rounds, [](const R& r) { return r.start_in; });
  o["start_out"] = column(rounds, [](const R& r) { return r.start_out; });
  o["post_in"] = column(rounds, [](const R& r) { return r.post_in; });
  o["post_out"] = column(rounds, [](const R& r) { return r.post_out; });
  o["agg_in"] = column(rounds, [](const R& r) { return r.agg_in; });
  o["agg_out"] = column(rounds, [](const R& r) { return r.agg_out; });
  o["end_in"] = column(rounds, [](const R& r) { return r.end_in; });
  o["end_out"] = column(rounds, [](const R& r) { return r.end_out; });
  o["hook_s"] = column(rounds, [](const R& r) { return r.hook_seconds; });
  o["late_hook_s"] =
      column(rounds, [](const R& r) { return r.late_hook_seconds; });
  return o;
}

fed::JsonObject exchanges_to_json(const std::vector<ExchangeSample>& samples) {
  using S = ExchangeSample;
  fed::JsonObject o;
  o["round"] = column(samples, [](const S& s) { return s.round; });
  o["device"] = column(samples, [](const S& s) { return s.device; });
  o["seconds"] = column(samples, [](const S& s) { return s.seconds; });
  o["solve_s"] = column(samples, [](const S& s) { return s.solve_seconds; });
  o["nn_s"] = column(samples, [](const S& s) { return s.nn_seconds; });
  o["grad_calls"] = column(
      samples, [](const S& s) { return static_cast<double>(s.grad_calls); });
  o["grad_samples"] = column(
      samples, [](const S& s) { return static_cast<double>(s.grad_samples); });
  o["bytes_down"] = column(
      samples, [](const S& s) { return static_cast<double>(s.bytes_down); });
  o["bytes_up"] = column(
      samples, [](const S& s) { return static_cast<double>(s.bytes_up); });
  return o;
}

}  // namespace fedbench
