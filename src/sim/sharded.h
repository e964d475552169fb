// Hierarchical sharded aggregation: N aggregator shards, one root.
//
// At 10^5–10^6 registered devices a single aggregator is the server's
// bottleneck (cf. Bonawitz et al., "Towards Federated Learning at
// Scale": an actor-per-aggregator tree). This layer splits each round's
// selected devices across `shards` sub-aggregators; every shard folds
// the updates it owns into a PartialAggregate (sim/aggregate.h), ships
// its exact partial sum to the root through the FPS2 wire codec
// (support/serialize.h), and the root merges and finalizes. Because the
// partials are exact, the shard topology is unobservable in the result:
// any shard count, merge order, block split, or thread count produces a
// bit-identical global model — the property the ShardedDeterminism
// tests pin down.
//
// Shard slices are contiguous in selection order (plan_shards), so fan
// out order, fault-RNG streams, and the root-level quorum cut are all
// independent of the shard count by construction.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/aggregate.h"
#include "support/threadpool.h"

namespace fed {

// Half-open slice [begin, end) of the round's selection-ordered devices
// owned by one shard.
struct ShardSlice {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
};

// Partitions `devices` selected devices into `shards` contiguous slices
// whose sizes differ by at most one (earlier shards take the remainder).
// A shard count of 0 is treated as 1; slices beyond the device count are
// empty. The mapping depends only on (devices, shards), never on the
// round's outcomes, so it is deterministic.
std::vector<ShardSlice> plan_shards(std::size_t devices, std::size_t shards);

// The aggregation tree for one round: `shards` leaf aggregators and a
// root merge. stage() may be called for any shard in any order (the
// round driver calls it on the round thread, in selection order); it
// only records the contribution. reduce() does all the arithmetic:
// every shard's staged batch is folded column-wise (ColumnFold) with the
// (shard, coordinate block) tasks spread over the round's thread pool,
// each shard's partial is encoded, the root decodes and merges them, and
// finalizes into `w`.
class ShardedServer {
 public:
  // Coordinates per ColumnFold block: the unit of work handed to a pool
  // worker.
  static constexpr std::size_t kFoldBlock = 1024;

  // `pool` (not owned) runs the fold tasks, so reduce() must not be
  // called from one of its workers; nullptr folds on the calling thread.
  ShardedServer(SamplingScheme scheme, std::size_t dim, std::size_t shards,
                ThreadPool* pool = nullptr);

  // Stages one contribution for shard `shard`. The update is read by
  // reduce(), not here, so it must outlive reduce(). Throws
  // std::invalid_argument on a dimension mismatch.
  void stage(std::size_t shard, const Contribution& contribution);

  // Folds each shard's staged contributions into an exact partial, ships
  // it to the root (always through the FPS2 codec, so the uplink is
  // exercised — and byte-accounted — every round), merges exactly, and
  // finalizes the weighted average into `w`. Returns false, leaving `w`
  // untouched, when no shard staged any contribution. A server reduces
  // one round: a second call throws std::logic_error.
  bool reduce(std::size_t round, std::span<double> w);

  std::size_t contributors(std::size_t shard) const {
    return staged_[shard].size();
  }
  std::size_t total_contributors() const;

  // FPS2 bytes shard -> root; populated by reduce(), zero before.
  std::uint64_t partial_bytes(std::size_t shard) const {
    return partial_bytes_[shard];
  }

 private:
  SamplingScheme scheme_;
  std::size_t dim_;
  ThreadPool* pool_;
  std::vector<std::vector<Contribution>> staged_;  // per shard
  std::vector<std::uint64_t> partial_bytes_;
  bool reduced_ = false;
};

}  // namespace fed
