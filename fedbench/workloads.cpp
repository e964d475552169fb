#include "workloads.h"

#include <stdexcept>

#include "comm/transport.h"
#include "core/registry.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "nn/lstm.h"
#include "sim/churn.h"

namespace fedbench {

namespace {

// Round budgets: at least 100 training rounds each, so the p90 of the
// training-round time has ten samples beyond it within one repetition.
constexpr std::size_t kSynthRounds = 100;
constexpr std::size_t kLstmRounds = 100;
constexpr std::size_t kWideRounds = 100;

// One checkpoint, at the final round, on the two in-process workloads:
// their checkpoint cost stays negligible while ckpt_bytes_per_round still
// measures the FPC1 size of a real snapshot.
void checkpoint_at_end(fed::TrainerConfig& config) {
  config.checkpoint.every = config.rounds;
  config.checkpoint.retain = 1;
}

BenchWorkload synth_small(std::uint64_t seed) {
  fed::Workload base = fed::make_workload("synthetic_1_1", seed);
  BenchWorkload w;
  w.data = std::move(base.data);
  w.model = base.model;
  fed::TrainerConfig& c = w.config;
  c = fed::fedprox_config(/*mu=*/1.0);
  c.rounds = kSynthRounds;
  c.devices_per_round = 10;
  c.systems.epochs = 20;
  c.systems.straggler_fraction = 0.5;
  c.batch_size = base.batch_size;
  c.learning_rate = base.learning_rate;
  c.eval_every = 5;
  c.seed = seed;
  checkpoint_at_end(c);
  w.gemv_shapes = {{w.data.num_classes, w.data.input_dim}};
  return w;
}

BenchWorkload lstm_kernels(std::uint64_t seed) {
  fed::Workload base = fed::make_workload("shakespeare", seed);
  BenchWorkload w;
  w.data = std::move(base.data);
  w.model = base.model;
  fed::TrainerConfig& c = w.config;
  c = fed::fedprox_config(base.best_mu);
  c.rounds = kLstmRounds;
  c.devices_per_round = 10;
  c.systems.epochs = 1;
  c.systems.straggler_fraction = 0.5;
  c.batch_size = base.batch_size;
  c.learning_rate = base.learning_rate;
  c.eval_every = 5;
  c.seed = seed;
  checkpoint_at_end(c);
  // Gate pre-activations: one 4H x (in + H) product per layer per step.
  const auto& lstm = static_cast<const fed::LstmClassifier&>(*w.model).config();
  for (std::size_t layer = 0; layer < lstm.num_layers; ++layer) {
    const std::size_t in = layer == 0 ? lstm.embed_dim : lstm.hidden_dim;
    w.gemv_shapes.emplace_back(4 * lstm.hidden_dim, in + lstm.hidden_dim);
  }
  return w;
}

BenchWorkload wide_faulty(std::uint64_t seed) {
  fed::SyntheticConfig synth = fed::synthetic_config(1.0, 1.0, seed);
  synth.num_devices = 2000;
  synth.input_dim = 200;
  synth.num_classes = 20;
  synth.min_samples = 10;
  synth.mean_log = 2.0;
  synth.sigma_log = 1.0;
  BenchWorkload w;
  w.data = fed::make_synthetic(synth);
  w.model = std::make_shared<fed::LogisticRegression>(synth.input_dim,
                                                      synth.num_classes);
  fed::TrainerConfig& c = w.config;
  c = fed::fedprox_config(/*mu=*/1.0);
  c.rounds = kWideRounds;
  c.devices_per_round = 100;
  c.systems.epochs = 1;
  c.systems.straggler_fraction = 0.5;
  c.batch_size = 10;
  c.learning_rate = 0.03;
  c.eval_every = 10;
  c.seed = seed;
  c.transport = fed::make_transport(fed::TransportKind::kSerialized);
  c.faults = fed::parse_fault_profile("drop=0.05,corrupt=0.01,duplicate=0.02");
  c.recovery.max_retries = 2;
  c.shards = 4;
  c.churn = fed::parse_churn_config("arrive=0.01,depart=0.01");
  c.checkpoint.every = 10;
  c.checkpoint.retain = 3;
  w.telemetry = true;
  w.gemv_shapes = {{synth.num_classes, synth.input_dim}};
  return w;
}

}  // namespace

BenchWorkload make_benchmark_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "synth_small") return synth_small(seed);
  if (name == "lstm_kernels") return lstm_kernels(seed);
  if (name == "wide_faulty") return wide_faulty(seed);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (synth_small, lstm_kernels, wide_faulty)");
}

}  // namespace fedbench
