// LEAF-format interchange: export a federated dataset to the JSON layout
// used by the LEAF benchmark suite (the source of the paper's real
// datasets), re-import it, and verify training proceeds identically. To
// run on *real* LEAF data, tokenize/flatten it into the same layout plus
// a `<prefix>_meta.json` and point --prefix at it.
//
//   ./leaf_interchange [--prefix /tmp/fedprox_leaf_demo] [--rounds 10]
//
// A bad --rounds value exits 1 with the reason.

#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "core/config.h"
#include "core/registry.h"
#include "core/trainer.h"
#include "data/leaf_json.h"
#include "data/stats.h"
#include "support/cli.h"

int main(int argc, char** argv) try {
  using namespace fed;
  CliFlags flags(argc, argv);
  const std::string prefix =
      flags.get_string("prefix", "/tmp/fedprox_leaf_demo");
  TrainerConfig config = fedprox_config(1.0);
  config.rounds = 10;
  read_config_flags(flags, config,
                    [](std::string_view flag) { return flag == "rounds"; });
  flags.warn_unused();

  const Workload w = make_workload("synthetic_1_1", /*seed=*/12);
  export_leaf(w.data, prefix);
  std::cout << "exported " << w.data.num_clients() << " devices to "
            << prefix << "_{train,test,meta}.json\n";

  const FederatedDataset imported = import_leaf(prefix);
  std::cout << format_stats_table({compute_stats(imported)}) << "\n";

  // Train on the imported copy; with identical data and seeds the
  // trajectory matches training on the original exactly.
  config.devices_per_round = 10;
  config.systems.epochs = 5;
  config.learning_rate = w.learning_rate;
  config.eval_every = config.rounds;
  config.seed = 12;

  const auto original = Trainer(*w.model, w.data, config).run();
  const auto roundtrip = Trainer(*w.model, imported, config).run();
  std::cout << "final loss on original: "
            << *original.final_metrics().train_loss << "\n"
            << "final loss on imported: "
            << *roundtrip.final_metrics().train_loss << "\n"
            << (original.final_parameters == roundtrip.final_parameters
                    ? "round-trip training is bit-exact\n"
                    : "WARNING: trajectories differ\n");
  std::filesystem::remove(prefix + "_train.json");
  std::filesystem::remove(prefix + "_test.json");
  std::filesystem::remove(prefix + "_meta.json");
  return original.final_parameters == roundtrip.final_parameters ? 0 : 1;
} catch (const std::invalid_argument& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
