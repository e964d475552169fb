// Typed messages of the federation exchange (paper Section 2: the server
// broadcasts the global model to the selected devices, each device
// returns its local solution). Everything a round moves between server
// and client is one of these two payloads; the Transport (comm/
// transport.h) decides whether they travel as zero-copy views or through
// the binary wire format in support/serialize.
//
// ModelBroadcast is a *view* struct: parameters/correction alias server
// memory so the in-process path stays copy-free. A transport that
// actually serializes hands the client an OwnedBroadcast, whose view()
// adapts it back to the span-based message.

#pragma once

#include <cstddef>
#include <span>

#include "sim/aggregate.h"
#include "sim/client.h"
#include "sim/systems.h"
#include "tensor/tensor.h"

namespace fed {

// Server -> device: everything device `budget.device` needs to run its
// share of training round `round` (1-based; round 0 is the initial
// evaluation and moves no messages).
struct ModelBroadcast {
  std::size_t round = 0;
  RoundConfig config;                  // effective mu + solve parameters
  DeviceBudget budget;                 // target device id + systems budget
  std::span<const double> parameters;  // the global model w^t
  std::span<const double> correction;  // FedDane linear term; empty otherwise
  // Channel metadata, not payload: 0-based retransmission attempt set by
  // the round driver's recovery loop. Keys the fault-injection RNG stream
  // (comm/fault.h); never serialized, and invisible to the client.
  std::size_t attempt = 0;
};

// A decoded broadcast that owns its buffers (what a serializing transport
// delivers after the wire round trip).
struct OwnedBroadcast {
  std::size_t round = 0;
  RoundConfig config;
  DeviceBudget budget;
  Vector parameters;
  Vector correction;

  ModelBroadcast view() const {
    return ModelBroadcast{.round = round,
                          .config = config,
                          .budget = budget,
                          .parameters = parameters,
                          .correction = correction};
  }
};

// Device -> server: the outcome of one local solve. ClientResult already
// owns its update vector, so the same struct serves both transports.
struct ClientUpdate {
  std::size_t round = 0;
  ClientResult result;
};

// Aggregator shard -> root: one shard's exact partial sum of its owned
// contributions (sim/aggregate.h). Unlike model payloads, partials always
// cross the shard uplink through the FPS2 wire format (support/
// serialize.h) — the exact accumulator state is what makes the root
// merge independent of the shard topology, so the codec must round-trip
// it losslessly every round.
struct PartialSumUpdate {
  std::size_t round = 0;
  std::size_t shard = 0;
  PartialAggregate partial{SamplingScheme::kUniformThenWeightedAverage, 0};
};

}  // namespace fed
