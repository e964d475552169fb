// Crash recovery: durable FPC1 checkpoints and the deterministic crash
// injector.
//
// The Trainer (with TrainerConfig::checkpoint enabled) snapshots its
// full round-boundary state — CheckpointState, support/serialize.h —
// every `every` rounds. CheckpointWriter makes each snapshot durable the
// way a production server would:
//
//   - atomically: encode to `<dir>/.ckpt.tmp`, fsync-free temp+rename,
//     so a reader (or a resuming trainer) never sees a torn file;
//   - integrity-guarded: the FPC1 trailer is an FNV-1a checksum over the
//     whole frame, so a partial or bit-flipped file is rejected at load;
//   - bounded: only the newest `retain` generations stay on disk
//     (`ckpt-<round>.fpc`, round zero-padded so lexicographic order is
//     round order).
//
// Trainer::resume(path) loads a checkpoint, validates its fingerprint
// against the live config (config_fingerprint below — every knob that
// can influence results is mixed in), and continues the run. Because all
// randomness is counter-keyed by (seed, round, ...), the resumed run's
// TrainHistory is bit-identical to one that never crashed — the property
// bench/soak proves at scale.
//
// CrashPlan is the fault injector for the server itself: like a
// FaultProfile for the channel, it deterministically kills the round
// driver mid-aggregation (after the shard accumulate, before the root
// reduce) at a configured round by throwing ServerCrashed. The round's
// work is lost exactly as a real crash would lose it; a harness catches
// the exception and resumes from the latest checkpoint.

#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/serialize.h"

namespace fed {

// Thrown by the round driver when CrashPlan fires. Deliberately NOT a
// std::runtime_error subclass the trainer handles — it unwinds out of
// Trainer::run like a process death would, leaving only the durable
// checkpoints behind.
class ServerCrashed : public std::runtime_error {
 public:
  explicit ServerCrashed(std::size_t round)
      : std::runtime_error("server crashed mid-aggregation at round " +
                           std::to_string(round)),
        round_(round) {}
  std::size_t round() const { return round_; }

 private:
  std::size_t round_;
};

// FNV-1a over every TrainerConfig leaf the field list (core/config.h)
// marks trajectory-relevant (algorithm, mu policy, schedule, sampling,
// systems, the local solver's name, faults, recovery, churn, seed, ...)
// plus the data/model shape. Leaves that are bit-identity-neutral by
// contract — threads, shards, transport, the checkpoint/crash plans
// themselves — are excluded, so a run may legally resume with a
// different thread or shard count.
std::uint64_t config_fingerprint(const TrainerConfig& config,
                                 std::size_t population,
                                 std::size_t parameter_count);

// Atomic checkpoint file I/O. save encodes FPC1 into `<path>.tmp` and
// renames over `path`; load rejects missing/torn/corrupt files with
// std::runtime_error (the decoder's checksum check).
void save_checkpoint_state(const std::string& path,
                           const CheckpointState& state);
CheckpointState load_checkpoint_state(const std::string& path);

// The `ckpt-<round>.fpc` files under `dir`, sorted by ascending round.
std::vector<std::string> list_checkpoints(const std::string& dir);
// The newest checkpoint under `dir`, or nullopt when none exists.
std::optional<std::string> latest_checkpoint(const std::string& dir);

// Writes checkpoints under config.dir and prunes old generations.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(CheckpointConfig config);

  struct WriteInfo {
    std::string path;          // the durable file just written
    std::uint64_t bytes = 0;   // encoded FPC1 frame size
    std::size_t generations = 0;  // files retained after pruning
  };
  // Atomically writes `state` as ckpt-<next_round - 1>.fpc and deletes
  // generations beyond config.retain (oldest first).
  WriteInfo write(const CheckpointState& state);

  const CheckpointConfig& config() const { return config_; }

 private:
  CheckpointConfig config_;
};

}  // namespace fed
