// Binary serialization: the wire codecs for the federation messages
// (comm/message.h) that SerializedTransport round-trips every payload
// through, and the FPC1 crash-recovery checkpoint (core/checkpoint.h) —
// the one way a run is saved and continued.
//
// Four frames, little-endian, doubles bit-exact: FPB1 (ModelBroadcast),
// FPU1 (ClientUpdate), FPS2 (PartialSumUpdate) and FPC1
// (CheckpointState). Each frame's layout is one field list in
// serialize.cpp; the encoder, the decoder and the *_wire_size functions
// all walk that list, so a size is the length of the encoding by
// construction. The FPB1/FPU1/FPS2 frames never leave the process that
// encodes them; the magics only catch a frame handed to the wrong
// decoder.
//
// FPS2 carries a partial's exact sums as canonical registers
// (tensor/exact_sum.h), so a shard's partial sum reaches the root
// bit-exactly — rounding happens once, at the root's finalize, never on
// the wire. A register's size follows its content (a typical coordinate
// is 14 bytes), so partial_sum_wire_size() needs the message. "FPS1"
// frames (dense 34 x u64 registers) are refused by magic.
//
// Decoders reject bad magic, truncation, trailing bytes, corrupt
// boolean/scheme flags and (FPS2) any register ExactSum::check_register
// refuses, with std::runtime_error. FPC1 ends in an FNV-1a trailer over
// every preceding byte and opens with a layout version: its decoder also
// rejects a frame whose trailer does not match — so a torn or
// bit-flipped checkpoint can never be resumed from — any other version,
// and an active bitmask whose length does not fit the population.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "comm/message.h"
#include "core/mu_controller.h"
#include "core/trainer.h"
#include "tensor/tensor.h"

namespace fed {

// ---------------------------------------------------------------------------
// Federation payload codecs.

using WireBuffer = std::vector<std::uint8_t>;

// 64-bit FNV-1a over `bytes`: the FPC1 trailer, and the link checksum a
// faulty channel (comm/fault.h) compares across a damaged FPU1 frame.
// Bit flips inside a float64 payload decode "successfully" (they just
// change a double), so structural validation alone cannot catch them.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);

// Exact wire sizes, counted from the field lists without serializing
// (the zero-copy transport's byte accounting); the dimension-only forms
// count payloads of that many doubles.
std::size_t broadcast_wire_size(std::size_t param_dim,
                                std::size_t correction_dim);
std::size_t broadcast_wire_size(const ModelBroadcast& message);
std::size_t update_wire_size(std::size_t dim);
std::size_t update_wire_size(const ClientUpdate& message);

std::size_t partial_sum_wire_size(const PartialSumUpdate& message);

WireBuffer encode_broadcast(const ModelBroadcast& message);
OwnedBroadcast decode_broadcast(std::span<const std::uint8_t> buffer);
WireBuffer encode_update(const ClientUpdate& message);
ClientUpdate decode_update(std::span<const std::uint8_t> buffer);
WireBuffer encode_partial_sum(const PartialSumUpdate& message);
PartialSumUpdate decode_partial_sum(std::span<const std::uint8_t> buffer);

// ---------------------------------------------------------------------------
// FPC1: the crash-recovery checkpoint payload (core/checkpoint.h owns the
// file-level manager — atomic writes, retention, discovery).
//
// Everything the trainer needs to continue a run bit-identically to one
// that never stopped: the exact parameter vector, the effective mu and
// the rest of the mu controller's state, the device registry's
// live-population bitmask (sim/churn.h), and the TrainHistory recorded so
// far. RNG streams are counter-keyed by (seed, round, ...), so "RNG
// state" is just `seed` + `next_round` — no engine state to snapshot.

struct CheckpointState {
  std::uint64_t fingerprint = 0;  // config_fingerprint of the producing run
  std::uint64_t seed = 0;
  std::uint64_t next_round = 0;   // first round the resumed run executes
  double mu = 0.0;                // effective mu for next_round
  MuController::State mu_state;   // the rest of the mu policy's state

  Vector parameters;  // the global model, bit-exact

  // Device registry snapshot (without churn: population bits all set).
  std::uint64_t population = 0;
  std::uint64_t churn_arrivals = 0;
  std::uint64_t churn_departures = 0;
  std::vector<std::uint8_t> active;  // packed bitmask, (population+7)/8

  std::vector<RoundMetrics> rounds;  // TrainHistory recorded so far
};

WireBuffer encode_checkpoint_state(const CheckpointState& state);
CheckpointState decode_checkpoint_state(std::span<const std::uint8_t> buffer);

}  // namespace fed
