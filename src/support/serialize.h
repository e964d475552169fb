// Binary serialization: the wire codecs for the federation messages
// (comm/message.h) that SerializedTransport round-trips every payload
// through, and the FPC1 crash-recovery checkpoint (core/checkpoint.h) —
// the one way a run is saved and continued.
//
// Wire formats (little-endian, doubles round-trip bit-exactly). The
// FPB1/FPU1/FPS2 frames never leave the process that encodes them; the
// magics only catch a frame handed to the wrong decoder:
//   ModelBroadcast  magic "FPB1" | u64 round
//                   | f64 mu | u64 batch_size | f64 learning_rate
//                   | u8 measure_gamma
//                   | u64 device | u8 straggler | u64 epochs | u64 iterations
//                   | u64 param_dim | param_dim * f64
//                   | u64 correction_dim | correction_dim * f64
//   ClientUpdate    magic "FPU1" | u64 round
//                   | u64 device | u64 num_samples
//                   | u8 straggler | u64 iterations | f64 gamma
//                   | u8 gamma_measured | f64 solve_seconds
//                   | u64 dim | dim * f64
//   PartialSumUpdate  magic "FPS2" | u64 round
//                     | u64 shard | u8 scheme
//                     | u64 contributors | register(weight)
//                     | u64 dim | dim * register(coordinate)
//   where register(x) is one exact sum in the canonical trimmed form of
//   tensor/exact_sum.h, as the PartialAggregate stores it:
//     finite      u8 lo | u8 n | n * u32 digits
//     non-finite  u8 0  | u8 0xFF | f64 value
//   (the n-digit two's-complement window, top digit signed, digit j
//   weighing 2^(32*(lo+j) - 1074)), so a shard's partial sum reaches the
//   root bit-exactly — rounding happens once, at the root's finalize,
//   never on the wire. A register's size follows its content (a typical
//   coordinate is 14 bytes), so partial_sum_wire_size() needs the
//   message. The decoder accepts only canonical registers: it rejects a
//   window that runs past the 68-digit register, a zero low digit, a
//   redundant sign digit, a nonzero lo on an empty window, a truncated
//   digit run, and a non-finite marker whose payload is finite. The
//   payload exists only behind the marker, so a register marked finite
//   cannot carry one. "FPS1" frames (dense 34 x u64 registers) are
//   refused by magic.
//   CheckpointState  magic "FPC1" | u64 version (2)
//                    | u64 fingerprint | u64 seed
//                    | u64 next_round | f64 mu
//                    | u8 has_adaptive | f64 mu | f64 last_loss
//                    |   u8 has_last | u64 consecutive_decreases
//                    | u8 has_theory | f64 mu | f64 b_sq_ema
//                    |   u8 has_estimate
//                    | u64 dim | dim * f64 parameters
//                    | u64 population | u64 arrivals | u64 departures
//                    | u64 mask_bytes | mask_bytes * u8 active bitmask
//                    | u64 num_rounds | num_rounds * round record
//                    | u64 fnv1a over every preceding byte
//   (round record: u64 round | u8 evaluated | 3 * f64 eval metrics
//    | u8 has_dissimilarity | 2 * f64 | f64 mu | u8 has_gamma | f64
//    | u64 contributors | u64 stragglers — one RoundMetrics, doubles
//    bit-exact.)
// Decoders reject bad magic, truncation, trailing bytes, and corrupt
// boolean/scheme flags with std::runtime_error (FPS2 also any
// non-canonical register); the FPC1 decoder
// additionally rejects any frame whose trailing checksum does not match,
// so a torn or bit-flipped checkpoint can never be resumed from, and any
// frame of another layout version.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/message.h"
#include "core/adaptive_mu.h"
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

// Fixed envelope (header + metadata) sizes of the two wire formats; the
// rest of a message is the float64 payload — exactly the analytical
// parameter-vector-size proxy older traces estimated bytes with.
inline constexpr std::size_t kBroadcastEnvelopeBytes =
    4 + 8 +                  // magic, round
    8 + 8 + 8 + 1 +          // mu, batch_size, learning_rate, gamma
    8 + 1 + 8 + 8 +          // device, straggler, epochs, iterations
    8 + 8;                   // param_dim, correction_dim
inline constexpr std::size_t kUpdateEnvelopeBytes =
    4 + 8 +                  // magic, round
    8 + 8 + 1 + 8 +          // device, num_samples, straggler, iterations
    8 + 1 + 8 +              // gamma, gamma_measured, solve_seconds
    8;                       // dim

// The fixed part of the FPS2 envelope; the weight total and the
// coordinates follow as variable-length exact-sum registers.
inline constexpr std::size_t kPartialEnvelopeBytes =
    4 + 8 +                  // magic, round
    8 +                      // shard
    1 + 8 +                  // scheme, contributors
    8;                       // dim

// Exact wire sizes, computable without serializing (the zero-copy
// transport's byte accounting).
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
// the mutable adaptive/theory controller state, the device registry's
// live-population bitmask (sim/churn.h), and the TrainHistory recorded so
// far. RNG streams are counter-keyed by (seed, round, ...), so "RNG
// state" is just `seed` + `next_round` — no engine state to snapshot.

struct CheckpointState {
  std::uint64_t fingerprint = 0;  // config_fingerprint of the producing run
  std::uint64_t seed = 0;
  std::uint64_t next_round = 0;   // first round the resumed run executes
  double mu = 0.0;                // effective mu for next_round

  // The mu controller's mutable state (core/adaptive_mu.h), when the run
  // has one. An absent controller is framed as its default State.
  std::optional<AdaptiveMu::State> adaptive;
  std::optional<DissimilarityMu::State> theory;

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
