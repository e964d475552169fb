// Kernel and codec probe: timed direct calls into tensor/ and
// support/serialize at one workload's shapes.

#pragma once

#include <cstdint>
#include <string>

#include "support/json.h"

namespace fedbench {

// Times, for `seconds` each, at the shapes of workload `name`:
//   gemv_gflops             fed::gemv over the model's matrix shapes
//   exact_sum_ns_per_value  PartialAggregate::accumulate, per coordinate
//   codec_mb_per_s          FPB1 + FPU1 + FPS1 encode and decode
//   fpc1_encode_ms          encode_checkpoint_state of a final-round state
// Probe inputs are drawn from `seed`; the shapes come from building the
// workload with `workload_seed`.
fed::JsonObject run_probe(const std::string& name, std::uint64_t workload_seed,
                          std::uint64_t seed, double seconds);

}  // namespace fedbench
