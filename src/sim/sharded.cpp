#include "sim/sharded.h"

#include <stdexcept>
#include <utility>

#include "comm/message.h"
#include "support/serialize.h"

namespace fed {

std::vector<ShardSlice> plan_shards(std::size_t devices, std::size_t shards) {
  if (shards == 0) shards = 1;
  std::vector<ShardSlice> slices(shards);
  const std::size_t base = devices / shards;
  const std::size_t extra = devices % shards;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t size = base + (s < extra ? 1 : 0);
    slices[s] = {begin, begin + size};
    begin += size;
  }
  return slices;
}

ShardedServer::ShardedServer(SamplingScheme scheme, std::size_t dim,
                             std::size_t shards, ThreadPool* pool)
    : scheme_(scheme),
      dim_(dim),
      pool_(pool),
      staged_(shards == 0 ? 1 : shards),
      partial_bytes_(staged_.size(), 0) {}

void ShardedServer::stage(std::size_t shard,
                          const Contribution& contribution) {
  if (contribution.update->size() != dim_) {
    throw std::invalid_argument(
        "ShardedServer::stage: update dimension mismatch");
  }
  staged_[shard].push_back(contribution);
}

std::size_t ShardedServer::total_contributors() const {
  std::size_t total = 0;
  for (const auto& batch : staged_) total += batch.size();
  return total;
}

bool ShardedServer::reduce(std::size_t round, std::span<double> w) {
  if (reduced_) {
    throw std::logic_error(
        "ShardedServer::reduce called twice: a server aggregates one round "
        "and its staged partials are consumed by the first reduce(); "
        "construct a new ShardedServer per round");
  }
  reduced_ = true;

  // Three phases, mirroring the eventual multi-process layout: every
  // shard folds its staged batch (shard-side work, on the pool), each
  // shard encodes its partial, then the root decodes and merges them all
  // (root-side work).
  std::vector<PartialAggregate> partials;
  partials.reserve(staged_.size());
  for (std::size_t s = 0; s < staged_.size(); ++s) {
    partials.emplace_back(scheme_, dim_);
  }
  {
    std::vector<ColumnFold> folds;
    folds.reserve(staged_.size());
    std::vector<std::pair<std::size_t, std::size_t>> tasks;  // (shard, block)
    for (std::size_t s = 0; s < staged_.size(); ++s) {
      folds.emplace_back(partials[s], staged_[s], kFoldBlock);
      for (std::size_t b = 0; b < folds[s].blocks(); ++b) {
        tasks.emplace_back(s, b);
      }
    }
    parallel_for(pool_, tasks.size(), [&](std::size_t t) {
      const auto [s, b] = tasks[t];
      folds[s].run(b);
    });
    for (ColumnFold& f : folds) f.commit();
  }

  std::vector<WireBuffer> wires;
  wires.reserve(partials.size());
  for (std::size_t s = 0; s < partials.size(); ++s) {
    // The uplink always round-trips the wire format, even with one
    // shard: partial_bytes_ is then real traffic, and a codec regression
    // cannot hide behind an in-process shortcut.
    wires.push_back(encode_partial_sum({.round = round,
                                        .shard = s,
                                        .partial = std::move(partials[s])}));
    partial_bytes_[s] = wires.back().size();
  }
  std::vector<PartialAggregate> received;
  received.reserve(wires.size());
  for (std::size_t s = 0; s < wires.size(); ++s) {
    received.push_back(decode_partial_sum(wires[s]).partial);
  }
  PartialAggregate root(scheme_, dim_);
  root.merge(std::move(received));
  return root.finalize(w);
}

}  // namespace fed
