// The benchmark's three workloads, built from the program's public API.
// Why each exists is written down in NOTES.md.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "data/dataset.h"
#include "nn/module.h"

namespace fedbench {

struct BenchWorkload {
  fed::FederatedDataset data;
  std::shared_ptr<const fed::Model> model;
  // Everything but the pool size and the checkpoint directory, which the
  // caller sets (rep.cpp).
  fed::TrainerConfig config;
  // Attach the program's own telemetry (JSONL trace, Prometheus exporter,
  // health monitor).
  bool telemetry = false;
  // rows x cols of the matrix-vector products the model runs per sample.
  std::vector<std::pair<std::size_t, std::size_t>> gemv_shapes;
};

// Valid names: synth_small, lstm_kernels, wide_faulty. Throws
// std::invalid_argument for any other. `seed` keys the data and the
// trainer's sampling, straggler, fault and churn streams.
BenchWorkload make_benchmark_workload(const std::string& name,
                                      std::uint64_t seed);

}  // namespace fedbench
