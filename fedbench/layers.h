// Benchmark-owned instrumentation around the program's public seams.
//
// Nothing here changes what the program computes: every decorator
// forwards to the wrapped object and only reads a steady clock around the
// call, so a traced run's TrainHistory must stay bit-identical to an
// untraced one (run.py checks it).
//
//   TimedModel      nn layer      (Model, shared by solves and evaluation)
//   TimedSolver     optim layer   (LocalSolver)
//   TimedTransport  comm layer    (Transport; the trainer wraps the fault
//                                  injector around it, so it sees only the
//                                  attempts that reach the inner channel)
//   RoundRecorder   round thread  (TrainingObserver: hook timestamps, the
//                                  RoundTrace facts, forwarding + timing of
//                                  the program's own observers)
//
// Worker-side attribution is per thread: the solver marks its thread as
// "in a solve" so model calls made by a solve are charged to that solve,
// and the transport reads the thread's totals before and after each
// exchange. Model calls outside a solve (global evaluation) go to the
// shared evaluation counter.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/transport.h"
#include "nn/module.h"
#include "obs/observer.h"
#include "optim/solver.h"
#include "support/json.h"
#include "support/thread_annotations.h"

namespace fedbench {

using Clock = std::chrono::steady_clock;

// Seconds from `origin` to now.
double seconds_since(Clock::time_point origin);

// One transport exchange as a pool worker saw it.
struct ExchangeSample {
  std::size_t round = 0;
  std::size_t device = 0;
  double seconds = 0.0;        // whole exchange (codec + solve)
  double solve_seconds = 0.0;  // LocalSolver::solve inside it
  double nn_seconds = 0.0;     // Model calls inside that solve
  std::uint64_t grad_calls = 0;
  std::uint64_t grad_samples = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up = 0;
};

// Where the worker-side decorators deposit what they measured.
class LayerLog {
 public:
  void add(const ExchangeSample& sample);
  std::vector<ExchangeSample> exchanges();

  // Model calls made outside any local solve (global evaluation).
  std::atomic<std::uint64_t> eval_ns{0};

 private:
  fed::Mutex mu_;
  std::vector<ExchangeSample> exchanges_ FED_GUARDED_BY(mu_);
};

class TimedModel final : public fed::Model {
 public:
  TimedModel(std::shared_ptr<const fed::Model> inner, LayerLog& log);

  std::string name() const override { return inner_->name(); }
  std::size_t parameter_count() const override {
    return inner_->parameter_count();
  }
  void init_parameters(std::span<double> w, fed::Rng& rng) const override {
    inner_->init_parameters(w, rng);
  }
  double loss_and_grad(std::span<const double> w, const fed::Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const override;
  double loss(std::span<const double> w, const fed::Dataset& data,
              std::span<const std::size_t> batch) const override;
  void predict(std::span<const double> w, const fed::Dataset& data,
               std::span<const std::size_t> batch,
               std::vector<std::int32_t>& out) const override;

 private:
  void charge(Clock::time_point start, std::size_t samples, bool grad) const;

  std::shared_ptr<const fed::Model> inner_;
  LayerLog& log_;
};

class TimedSolver final : public fed::LocalSolver {
 public:
  explicit TimedSolver(std::shared_ptr<const fed::LocalSolver> inner);

  std::string name() const override { return inner_->name(); }
  void solve(const fed::LocalProblem& problem, const fed::SolveBudget& budget,
             fed::Rng& rng, std::span<double> w) const override;

 private:
  std::shared_ptr<const fed::LocalSolver> inner_;
};

class TimedTransport final : public fed::Transport {
 public:
  TimedTransport(std::shared_ptr<const fed::Transport> inner, LayerLog& log);

  fed::ExchangeRecord exchange(const fed::ModelBroadcast& broadcast,
                               const fed::ClientRuntime& client) const override;
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const fed::Transport> inner_;
  LayerLog& log_;
};

// Everything the benchmark keeps about one round (round 0 is the initial
// evaluation). Times are seconds since the recorder's origin; a hook that
// did not fire this round reads -1.
struct RoundRecord {
  std::size_t round = 0;
  bool evaluated = false;
  double train_loss = 0.0;
  double test_accuracy = 0.0;

  // RoundTrace facts, copied at on_round_end.
  std::size_t selected = 0;
  std::size_t contributors = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up = 0;
  std::size_t attempts = 0;
  std::size_t retries = 0;
  std::size_t up_deliveries = 0;
  std::uint64_t partial_bytes = 0;
  bool checkpoint_written = false;
  std::uint64_t checkpoint_bytes = 0;       // as RoundTrace reports it
  std::uint64_t checkpoint_file_bytes = 0;  // stat of the file on disk
  double checkpoint_seconds = 0.0;
  double eval_seconds = 0.0;
  double round_seconds = 0.0;
  double sampling_seconds = 0.0;
  double solve_wall_seconds = 0.0;
  double aggregate_seconds = 0.0;

  // Hook entry/exit timestamps on the round thread.
  double start_in = -1, start_out = -1;  // on_round_start
  double post_in = -1, post_out = -1;    // first / last on_fault or
                                         // on_client_result of the round
  double agg_in = -1, agg_out = -1;      // on_aggregate
  double end_in = -1, end_out = -1;      // on_round_end
  double hook_seconds = 0.0;  // inside observer hooks: the recorder and
                              // the program observers it forwards to
  double late_hook_seconds = 0.0;  // hooks between last result and
                                   // on_aggregate (degraded-round fault)
};

// Records per-round hook timestamps and RoundTrace facts, and forwards
// every hook to `children` (the program's own observers), so the time
// inside hooks covers them.
// Registered first on the trainer in untraced runs (no children; the
// program observers are registered directly after it), and as the only
// observer in traced runs.
class RoundRecorder final : public fed::TrainingObserver {
 public:
  RoundRecorder(Clock::time_point origin, std::string checkpoint_dir,
                std::vector<fed::TrainingObserver*> children);

  void on_run_start(const fed::RunInfo& info) override;
  void on_round_start(std::size_t round,
                      std::span<const std::size_t> selected) override;
  void on_fault(const fed::FaultEvent& event) override;
  void on_client_result(std::size_t round,
                        const fed::ClientResult& result) override;
  void on_aggregate(std::size_t round,
                    std::span<const double> weights) override;
  void on_round_end(const fed::RoundMetrics& metrics,
                    const fed::RoundTrace& trace) override;
  void on_run_end(const fed::TrainHistory& history) override;

  const std::vector<RoundRecord>& rounds() const { return rounds_; }

 private:
  RoundRecord& current(std::size_t round);
  void post_barrier_hook(std::size_t round, double in);

  template <typename Fn>
  void forward(Fn&& fn);  // calls fn(child) for each child

  Clock::time_point origin_;
  std::string checkpoint_dir_;
  std::vector<fed::TrainingObserver*> children_;
  std::vector<RoundRecord> rounds_;
};

// Column-oriented JSON for a run's round records.
fed::JsonObject rounds_to_json(const std::vector<RoundRecord>& rounds);
// Column-oriented JSON for the exchange samples.
fed::JsonObject exchanges_to_json(const std::vector<ExchangeSample>& samples);

}  // namespace fedbench
