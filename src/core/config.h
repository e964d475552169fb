// The run config stated once: one field list for TrainerConfig.
//
// FedProx's results compare configurations run under identical
// conditions, so a config is checked, fingerprinted and recorded the
// same way everywhere. visit_config is the one list of the TrainerConfig
// leaves, each with its path, flag, range, trajectory bit and doc. Its
// consumers walk it: validate (the Trainer, and the flag parser value by
// value), config_fingerprint (core/checkpoint.cpp), read_config_flags
// with config_flags_help, and config_to_json (the JSONL run header).
// parse_fault_profile / parse_churn_config and their to_strings walk the
// --faults / --churn keys. A new field is one entry here.

#pragma once

#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "core/trainer.h"
#include "support/cli.h"
#include "support/json.h"

namespace fed {

// One TrainerConfig leaf. `path` is its dotted JSON key ("systems.epochs")
// and, after the last dot, its key in a --faults/--churn spec. Numbers
// and enums (by their integer value) must lie in [lo, hi], or (lo, hi]
// with lo_open; a double must be finite too, so NaN and inf always fail.
struct ConfigField {
  const char* path;
  const char* flag = "";  // command-line flag without "--"; "" = none
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool trajectory = false;  // can change TrainHistory; in the fingerprint
  const char* doc = "";
  const ConfigField* spec = nullptr;  // the spec flag it is a key of
};

// The two flags that take a key=value,... spec over a sub-struct.
inline constexpr ConfigField kFaultsSpec{
    .path = "faults", .flag = "faults",
    .doc = "channel fault injection (comm/fault.h)"};
inline constexpr ConfigField kChurnSpec{
    .path = "churn", .flag = "churn",
    .doc = "open-world device churn (sim/churn.h)"};

// The field list: calls fn(leaf, field) for every leaf of a const or a
// mutable TrainerConfig, in list order, with `leaf` of its own type.
template <typename Config, typename Fn>
void visit_config(Config& c, Fn&& fn) {
  fn(c.algorithm, {.path = "algorithm", .hi = 2, .trajectory = true,
                   .doc = "FedAvg, FedProx or FedDane"});
  fn(c.mu, {.path = "mu", .flag = "mu", .trajectory = true,
            .doc = "proximal coefficient mu"});
  fn(c.mu_policy, {.path = "mu_policy", .hi = 2, .trajectory = true,
                   .doc = "fixed, adaptive (Fig 3) or theory (Corollary 7) "
                          "mu, each starting from mu"});
  fn(c.rounds, {.path = "rounds", .flag = "rounds", .lo = 1,
                .trajectory = true, .doc = "training rounds T"});
  fn(c.devices_per_round, {.path = "devices_per_round", .lo = 1,
                           .trajectory = true,
                           .doc = "devices selected per round K"});
  fn(c.batch_size, {.path = "batch_size", .lo = 1, .trajectory = true,
                    .doc = "local mini-batch size"});
  fn(c.learning_rate, {.path = "learning_rate", .lo_open = true,
                       .trajectory = true, .doc = "local step size"});
  fn(c.systems.straggler_fraction,
     {.path = "systems.straggler_fraction", .flag = "stragglers", .hi = 1,
      .trajectory = true, .doc = "share of the selected that straggle"});
  fn(c.systems.epochs, {.path = "systems.epochs", .flag = "epochs", .lo = 1,
                        .trajectory = true, .doc = "local epochs E"});
  fn(c.sampling, {.path = "sampling", .hi = 1, .trajectory = true,
                  .doc = "device sampling and aggregation scheme (Fig 12)"});
  // JSON numbers are doubles: 2^53 is the largest seed a header records
  // exactly.
  fn(c.seed, {.path = "seed", .flag = "seed", .hi = 0x1p53, .trajectory = true,
              .doc = "experiment seed"});
  fn(c.eval_every, {.path = "eval_every", .lo = 1, .trajectory = true,
                    .doc = "evaluate every N rounds, and the final round"});
  fn(c.measure_gamma, {.path = "measure_gamma", .trajectory = true,
                       .doc = "measure the realized gamma-inexactness"});
  fn(c.measure_dissimilarity,
     {.path = "measure_dissimilarity", .trajectory = true,
      .doc = "measure B(w) on evaluated rounds; mu_policy theory sets it"});
  fn(c.threads, {.path = "threads",
                 .doc = "pool workers; 0 = hardware concurrency"});
  fn(c.shards, {.path = "shards", .flag = "shards", .lo = 1,
                .doc = "aggregator shards per round; any count gives the "
                       "same history"});
  fn(c.solver, {.path = "solver", .trajectory = true,
                .doc = "local solver by name; unset = sgd"});
  fn(c.transport, {.path = "transport", .flag = "transport",
                   .doc = "inprocess (zero-copy) or serialized (wire format)"});
  fn(c.faults.drop, {.path = "faults.drop", .hi = 1, .trajectory = true,
                     .doc = "P(an update is lost in flight)",
                     .spec = &kFaultsSpec});
  fn(c.faults.corrupt, {.path = "faults.corrupt", .hi = 1, .trajectory = true,
                        .doc = "P(an update arrives damaged; rejected)",
                        .spec = &kFaultsSpec});
  fn(c.faults.duplicate, {.path = "faults.duplicate", .hi = 1,
                          .trajectory = true,
                          .doc = "P(an update is delivered twice)",
                          .spec = &kFaultsSpec});
  fn(c.faults.delay_ms, {.path = "faults.delay_ms", .trajectory = true,
                         .doc = "latency per attempt ~ U[0, delay_ms)",
                         .spec = &kFaultsSpec});
  fn(c.recovery.max_retries,
     {.path = "recovery.max_retries", .flag = "retries", .hi = 16,
      .trajectory = true, .doc = "extra exchange attempts per device"});
  fn(c.recovery.deadline_ms,
     {.path = "recovery.deadline_ms", .flag = "deadline-ms",
      .trajectory = true, .doc = "delivery deadline in simulated ms; 0 = off"});
  fn(c.recovery.quorum,
     {.path = "recovery.quorum", .flag = "quorum", .hi = 1, .lo_open = true,
      .trajectory = true,
      .doc = "aggregate once this share of the selected reported"});
  fn(c.churn.arrive, {.path = "churn.arrive", .hi = 1, .trajectory = true,
                      .doc = "P(an inactive device joins), per round",
                      .spec = &kChurnSpec});
  fn(c.churn.depart, {.path = "churn.depart", .hi = 1, .trajectory = true,
                      .doc = "P(an active device leaves mid-round)",
                      .spec = &kChurnSpec});
  fn(c.checkpoint.dir,
     {.path = "checkpoint.dir", .flag = "checkpoint-dir",
      .doc = "checkpoint directory; empty = <out-dir>/checkpoints"});
  fn(c.checkpoint.every,
     {.path = "checkpoint.every", .flag = "checkpoint-every",
      .doc = "write an FPC1 checkpoint every N rounds; 0 = off"});
  fn(c.checkpoint.retain,
     {.path = "checkpoint.retain", .flag = "checkpoint-retain", .lo = 1,
      .doc = "newest checkpoint generations kept"});
  fn(c.crash.at_round,
     {.path = "crash.at_round",
      .doc = "throw ServerCrashed mid-aggregation; 0 = never"});
}

// Throws std::invalid_argument naming the first leaf outside its range
// ("TrainerConfig: systems.straggler_fraction: nan outside [0, 1]"); an
// integer leaf is compared as an integer. The dataset-dependent bound
// (K against the device count) is the Trainer's.
void validate(const TrainerConfig& config);

// Every leaf as nested JSON objects; enums by to_string, the solver and
// transport by name_of.
JsonValue config_to_json(const TrainerConfig& config);

// The name a header and the fingerprint give a solver or a transport;
// unset is the default the Trainer installs ("sgd", "inprocess").
std::string name_of(const std::shared_ptr<const LocalSolver>& solver);
std::string name_of(const std::shared_ptr<const Transport>& transport);

// Which flags a driver offers; nullptr offers every flag. A driver that
// sets a field per variant (a figure's mu) does not offer its flag, so
// it stays an unknown flag there.
using FlagFilter = bool (*)(std::string_view flag);

// Reads every offered flag `flags` carries into its leaf of `config`;
// the others keep their value. A --faults/--churn spec sets its whole
// sub-struct (keys it does not name to 0). Throws std::invalid_argument
// naming the flag on a malformed, negative-count or out-of-range value.
void read_config_flags(const CliFlags& flags, TrainerConfig& config,
                       FlagFilter offered = nullptr);

// One line per offered flag: its doc, range and value in `defaults`.
std::string config_flags_help(const TrainerConfig& defaults,
                              FlagFilter offered = nullptr);

}  // namespace fed
