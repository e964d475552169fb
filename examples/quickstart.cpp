// Quickstart: train FedProx on the paper's Synthetic(1,1) dataset and
// watch the global loss fall.
//
//   ./quickstart [--rounds 50] [--mu 1.0] [--stragglers 0.5] [--resume]
//
// `./quickstart --help` lists every flag: the shared bench set
// (bench/bench_common.h) plus every config flag with quickstart's
// defaults. --resume continues from the newest checkpoint.

#include <iostream>
#include <optional>
#include <stdexcept>

#include "bench_common.h"
#include "core/checkpoint.h"
#include "core/registry.h"
#include "core/trainer.h"
#include "obs/health.h"
#include "obs/observer.h"
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

// A bad flag, or a config the Trainer refuses, ends the run with exit
// status 1 and the reason.
int main(int argc, char** argv) try {
  using namespace fed;
  CliFlags flags(argc, argv);
  const bool resume = flags.get_bool("resume", false);

  // 1. Configure FedProx: K=10 devices per round, E=20 local epochs,
  //    proximal coefficient mu, and a straggler fraction to simulate
  //    systems heterogeneity. Every flag reads over these defaults
  //    (core/config.h), among them the channel/server ones: --transport
  //    (serialized round-trips every payload through the binary wire
  //    format, bit-identically), --shards (hierarchical aggregation,
  //    also bit-identical), and the fault/recovery knobs.
  TrainerConfig defaults = fedprox_config(/*mu=*/1.0);
  defaults.rounds = 50;
  defaults.devices_per_round = 10;
  defaults.systems.epochs = 20;
  defaults.systems.straggler_fraction = 0.5;
  defaults.eval_every = 5;
  defaults.seed = 1;
  bench::BenchOptions options =
      bench::parse_options(flags, defaults, /*offered=*/nullptr);
  options.resume = resume;
  TrainerConfig config = options.config;

  // 2. Build a federated dataset and its model. Workloads bundle the
  //    paper's hyper-parameters; you can also construct datasets and
  //    models directly (see the other examples).
  const Workload workload = make_workload("synthetic_1_1", config.seed);
  std::cout << "dataset: " << workload.data.name << " with "
            << workload.data.num_clients() << " devices, "
            << workload.data.total_train_samples() << " training samples\n";
  config.learning_rate = workload.learning_rate;
  bench::log_setup(config);
  std::cout << "transport: " << name_of(config.transport) << "\n";
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
  // Non-fatal incidents (degraded rounds, say) do not stop the run, but
  // the run says so.
  if (!health.healthy()) std::cerr << health.report();
  return 0;
} catch (const std::invalid_argument& error) {
  fed::bench::exit_bad_flag(error);
}
