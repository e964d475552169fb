#include "comm/fault.h"

#include <stdexcept>

#include "comm/transport.h"
#include "support/rng.h"
#include "support/serialize.h"

namespace fed {

const char* to_string(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kDrop: return "drop";
    case FaultEvent::Kind::kCorrupt: return "corrupt";
    case FaultEvent::Kind::kTimeout: return "timeout";
    case FaultEvent::Kind::kDuplicate: return "duplicate";
    case FaultEvent::Kind::kDeviceFailed: return "device_failed";
    case FaultEvent::Kind::kQuorumDrop: return "quorum_drop";
    case FaultEvent::Kind::kDepart: return "depart";
    case FaultEvent::Kind::kRoundDegraded: return "round_degraded";
  }
  return "?";
}

FaultInjectingTransport::FaultInjectingTransport(
    std::shared_ptr<const Transport> inner, FaultProfile profile,
    std::uint64_t seed)
    : inner_(std::move(inner)), profile_(profile), seed_(seed) {
  if (!inner_) {
    throw std::invalid_argument("FaultInjectingTransport: null inner");
  }
}

ExchangeRecord FaultInjectingTransport::exchange(
    const ModelBroadcast& broadcast, const ClientRuntime& client) const {
  if (!profile_.any()) return inner_->exchange(broadcast, client);

  // One stream per (round, device, attempt): fault decisions depend on
  // nothing else, so retries, threading, and other subsystems' draws
  // never perturb them. Draw order below is fixed.
  Rng rng(seed_, {static_cast<std::uint64_t>(StreamKind::kFault),
                  static_cast<std::uint64_t>(broadcast.round),
                  static_cast<std::uint64_t>(broadcast.budget.device),
                  static_cast<std::uint64_t>(broadcast.attempt)});
  const double delay =
      profile_.delay_ms > 0.0 ? rng.uniform(0.0, profile_.delay_ms) : 0.0;

  if (profile_.drop > 0.0 && rng.bernoulli(profile_.drop)) {
    // The broadcast was transmitted (bytes charged) but the exchange
    // yields nothing; the local solve never runs. A retry re-solves with
    // the same (seed, round, device) minibatch stream, so recovered
    // exchanges stay bit-identical to never-faulted ones.
    ExchangeRecord record;
    record.status = ExchangeStatus::kDropped;
    record.bytes_down = broadcast_wire_size(broadcast);
    record.channel_delay_ms = delay;
    return record;
  }

  ExchangeRecord record = inner_->exchange(broadcast, client);
  record.channel_delay_ms = delay;

  if (profile_.corrupt > 0.0 && rng.bernoulli(profile_.corrupt)) {
    // Damage the real wire encoding and run it through the receive path:
    // structural damage (truncation, extension, envelope flips) is
    // rejected by the FPU1 decoder; payload flips that still decode are
    // caught by the checksum mismatch. Either way the update is
    // discarded and the server sees a typed corruption, never garbage.
    WireBuffer wire = encode_update(record.update);
    const std::uint64_t sent_checksum = fnv1a(wire);
    switch (rng.uniform_int(std::uint64_t{3})) {
      case 0: {  // flip one bit anywhere in the buffer
        const std::uint64_t bit = rng.uniform_int(wire.size() * 8);
        wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        break;
      }
      case 1:  // truncate to a strictly shorter prefix
        wire.resize(rng.uniform_int(wire.size()));
        break;
      default: {  // append trailing garbage
        const std::uint64_t extra = 1 + rng.uniform_int(std::uint64_t{16});
        for (std::uint64_t i = 0; i < extra; ++i) {
          wire.push_back(static_cast<std::uint8_t>(rng.uniform_int(
              std::uint64_t{256})));
        }
        break;
      }
    }
    std::string error;
    try {
      (void)decode_update(wire);
      error = "checksum mismatch";  // decoded, but the frame was damaged
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (error == "checksum mismatch" && fnv1a(wire) == sent_checksum) {
      // Unreachable in practice (64-bit FNV collision on a mutated
      // buffer); kept so corruption can never be silently accepted.
      error = "undetected corruption";
    }
    // The damaged update arrived on the wire (bytes_up stays charged at
    // the nominal size) but is rejected; nothing decoded survives.
    record.status = ExchangeStatus::kCorrupt;
    record.error = std::move(error);
    record.update = ClientUpdate{};
    return record;
  }

  if (profile_.duplicate > 0.0 && rng.bernoulli(profile_.duplicate)) {
    // The same update arrives twice; the server deduplicates, but both
    // copies moved wire bytes.
    record.duplicate = true;
    record.bytes_up *= 2;
  }
  return record;
}

}  // namespace fed
