// Checkpoint/resume demo: train with durable FPC1 checkpoints, let the
// server crash mid-run, and continue from the newest checkpoint with
// Trainer::resume(). The checkpoint carries everything the run needs —
// the weights, the adaptive-mu controller state, the churned device
// population and the history so far — and every random stream is keyed
// by (seed, round, device), so the resumed run ends bit-identical to an
// unbroken one. Exits non-zero unless it does.
//
//   ./checkpoint_resume [--rounds 40]
//
// A bad --rounds value exits 1 with the reason.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "core/checkpoint.h"
#include "core/config.h"
#include "core/registry.h"
#include "core/trainer.h"
#include "support/cli.h"

int main(int argc, char** argv) try {
  using namespace fed;
  TrainerConfig config = fedprox_config(/*mu=*/1.0);
  config.rounds = 40;
  const CliFlags flags(argc, argv);
  read_config_flags(flags, config,
                    [](std::string_view flag) { return flag == "rounds"; });
  flags.warn_unused();
  const std::size_t rounds = config.rounds;
  if (rounds < 2) {
    std::cerr << "checkpoint_resume: --rounds must be at least 2\n";
    return 1;
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "fedprox_checkpoint_resume")
          .string();
  std::filesystem::remove_all(dir);

  const Workload w = make_workload("synthetic_1_1", /*seed=*/8);
  config.devices_per_round = 10;
  config.systems.epochs = 20;
  config.systems.straggler_fraction = 0.5;
  config.learning_rate = w.learning_rate;
  config.seed = 8;
  config.eval_every = 1;  // adaptive mu moves on evaluated rounds
  config.mu_policy = MuPolicy::kAdaptive;  // from mu = 1
  config.churn.arrive = 0.05;
  config.churn.depart = 0.05;

  // Unbroken reference run.
  const TrainHistory reference = Trainer(*w.model, w.data, config).run();

  // The same run, checkpointing as it goes, dies mid-aggregation.
  TrainerConfig crashing = config;
  crashing.checkpoint.dir = dir;
  crashing.checkpoint.every = std::max<std::size_t>(rounds / 4, 1);
  crashing.crash.at_round = rounds / 2 + 1;
  try {
    (void)Trainer(*w.model, w.data, crashing).run();
  } catch (const ServerCrashed& crash) {
    std::cout << crash.what() << "\n";
  }

  // A fresh trainer picks the run up from the newest checkpoint.
  const auto newest = latest_checkpoint(dir);
  if (!newest) {
    std::cerr << "checkpoint_resume: no checkpoint under " << dir << "\n";
    return 1;
  }
  std::cout << "resuming from " << *newest << "\n";
  const TrainHistory resumed = Trainer(*w.model, w.data, config).resume(*newest);
  std::filesystem::remove_all(dir);

  bool identical = reference.final_parameters == resumed.final_parameters &&
                   reference.rounds.size() == resumed.rounds.size();
  for (std::size_t i = 0; identical && i < reference.rounds.size(); ++i) {
    identical = reference.rounds[i].mu == resumed.rounds[i].mu &&
                reference.rounds[i].train_loss == resumed.rounds[i].train_loss &&
                reference.rounds[i].contributors ==
                    resumed.rounds[i].contributors;
  }
  std::cout << "final loss (unbroken run):  "
            << *reference.final_metrics().train_loss << "\n"
            << "final loss (resumed run):   "
            << *resumed.final_metrics().train_loss << "\n"
            << "final mu (unbroken/resumed): " << reference.rounds.back().mu
            << " / " << resumed.rounds.back().mu << "\n"
            << (identical ? "resume is bit-exact\n"
                          : "WARNING: trajectories diverged\n");
  return identical ? 0 : 1;
} catch (const std::invalid_argument& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
