// Quickstart: train FedProx on the paper's Synthetic(1,1) dataset and
// watch the global loss fall.
//
//   ./quickstart [--rounds 50] [--mu 1.0] [--stragglers 0.5]
//                [--transport inprocess|serialized] [--shards N]
//                [--faults drop=0.1,corrupt=0.01,delay_ms=50]
//                [--retries 2] [--deadline-ms 0] [--quorum 1.0]
//                [--trace-out trace.jsonl] [--trace-rotate-mb N]
//                [--metrics-out metrics.prom]
//                [--churn arrive=0.05,depart=0.05]
//                [--checkpoint-every N] [--checkpoint-dir DIR]
//                [--checkpoint-retain G] [--resume] [--seed 1]
//
// The channel/server flags are the shared bench set (bench/bench_common.h):
// quickstart only adds --mu/--rounds/--stragglers/--resume on top.

#include <iostream>
#include <optional>
#include <stdexcept>

#include "bench_common.h"
#include "comm/transport.h"
#include "core/checkpoint.h"
#include "core/registry.h"
#include "core/trainer.h"
#include "obs/health.h"
#include "obs/observer.h"
#include "support/cli.h"
#include "support/csv.h"

namespace {

// Observers receive every round's metrics on the round thread; this one
// prints the evaluated ones.
struct ProgressPrinter : fed::TrainingObserver {
  void on_round_end(const fed::RoundMetrics& m,
                    const fed::RoundTrace&) override {
    if (!m.evaluated()) return;
    std::cout << "round " << m.round << ": loss "
              << fed::TablePrinter::fmt(*m.train_loss) << ", test accuracy "
              << fed::TablePrinter::fmt(*m.test_accuracy) << "\n";
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fed;
  CliFlags flags(argc, argv);

  // Quickstart-specific flags, read before parse_options so the shared
  // parser's unknown-flag warning stays quiet about them.
  double mu = 1.0, stragglers = 0.5;
  std::size_t rounds = 50;
  bool resume = false;
  try {
    mu = flags.get_double("mu", mu);
    rounds = static_cast<std::size_t>(flags.get_int("rounds", 50));
    stragglers = flags.get_double("stragglers", stragglers);
    resume = flags.get_bool("resume", resume);
  } catch (const std::invalid_argument& error) {
    bench::exit_bad_flag(error);
  }
  bench::BenchOptions options = bench::parse_options(flags);
  options.resume = resume;

  // 1. Build a federated dataset and its model. Workloads bundle the
  //    paper's hyper-parameters; you can also construct datasets and
  //    models directly (see the other examples).
  const Workload workload = make_workload("synthetic_1_1", options.seed);
  std::cout << "dataset: " << workload.data.name << " with "
            << workload.data.num_clients() << " devices, "
            << workload.data.total_train_samples() << " training samples\n";

  // 2. Configure FedProx: K=10 devices per round, E=20 local epochs,
  //    proximal coefficient mu, and a straggler fraction to simulate
  //    systems heterogeneity. apply_common_flags installs the shared
  //    channel/server options: --transport (serialized round-trips every
  //    payload through the binary wire format, bit-identically),
  //    --shards (hierarchical aggregation, also bit-identical), and the
  //    fault/recovery knobs.
  TrainerConfig config = fedprox_config(mu);
  config.rounds = rounds;
  config.devices_per_round = 10;
  config.systems.epochs = 20;
  config.systems.straggler_fraction = stragglers;
  config.learning_rate = workload.learning_rate;
  config.eval_every = 5;
  config.seed = options.seed;
  bench::apply_common_flags(config, options);
  std::cout << "transport: " << config.transport->name() << "\n";
  if (config.shards > 1) {
    std::cout << "aggregator shards: " << config.shards << "\n";
  }
  if (config.faults.any()) {
    std::cout << "faults: " << to_string(config.faults) << " (retries "
              << config.recovery.max_retries << ", deadline "
              << config.recovery.deadline_ms << " ms, quorum "
              << config.recovery.quorum << ")\n";
  }

  // 3. Train, printing each evaluated round. TraceCapture owns the
  //    --trace-out JSONL sink (per-phase wall times for every round) and
  //    the --metrics-out exporter, which fail here, before any training,
  //    on an unwritable path. A HealthMonitor watches every round for
  //    numeric trouble.
  std::optional<bench::TraceCapture> capture;
  if (!bench::open_capture(capture, options)) return 1;
  Trainer trainer(*workload.model, workload.data, config);
  ProgressPrinter printer;
  trainer.add_observer(printer);

  HealthMonitor health;
  trainer.add_observer(health);
  for (TrainingObserver* o : capture->observers()) trainer.add_observer(*o);

  // --resume continues from the newest FPC1 checkpoint in the checkpoint
  // dir (telemetry already switched to append mode in TraceCapture);
  // without one there is nothing to continue and bailing out loudly
  // beats silently retraining from round 0.
  TrainHistory history;
  try {
    if (options.resume) {
      if (!config.checkpoint.enabled()) {
        std::cerr << "--resume requires --checkpoint-every/--checkpoint-dir\n";
        return 1;
      }
      const auto latest = latest_checkpoint(config.checkpoint.dir);
      if (!latest) {
        std::cerr << "--resume: no checkpoint found in "
                  << config.checkpoint.dir << "\n";
        return 1;
      }
      history = trainer.resume(*latest);
    } else {
      history = trainer.run();
    }
  } catch (const HealthError& error) {
    std::cerr << error.what() << "\n";
    return 1;
  } catch (const std::runtime_error& error) {
    // e.g. a fingerprint mismatch: resuming under different
    // determinism-relevant settings than the checkpointed run.
    std::cerr << error.what() << "\n";
    return 1;
  }

  std::cout << "\nfinal loss " << *history.final_metrics().train_loss
            << ", final test accuracy "
            << *history.final_metrics().test_accuracy << "\n";
  return 0;
}
