// The federation transport: how a ModelBroadcast reaches a device and
// how its ClientUpdate comes back, with exact byte accounting each way.
//
// The paper's central systems claim is that communication — not compute —
// is the bottleneck in federated networks; this seam is where the
// codebase models it. The round driver (core/round_driver) speaks only in
// messages, so every future scaling mechanism — compression, async
// rounds, dropped-message robustness, real sockets — plugs in as a
// Transport without touching training logic:
//
//   TrainerConfig cfg = fedprox_config(1.0);
//   cfg.transport = make_transport(TransportKind::kSerialized);
//
// Both bundled transports are lossless, so TrainHistory is bit-identical
// across them (enforced by tests/comm_transport_test.cpp), and both
// report identical byte counts by construction: each frame's layout is
// one field list (support/serialize.cpp) that the serializing transport
// encodes and the in-process one only counts.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "comm/fault.h"
#include "comm/message.h"

namespace fed {

class ClientRuntime;

// How one exchange attempt ended. The bundled lossless transports always
// deliver; only FaultInjectingTransport produces the failure states.
enum class ExchangeStatus {
  kDelivered,  // the update arrived intact
  kDropped,    // the message was lost in flight; no update returned
  kCorrupt,    // the update arrived damaged and was rejected
};

// One device's round trip through the channel (a single attempt; the
// round driver's recovery policy decides whether a failed attempt is
// retried).
struct ExchangeRecord {
  ExchangeStatus status = ExchangeStatus::kDelivered;
  ClientUpdate update;           // as the server received it (kDelivered only)
  std::uint64_t bytes_down = 0;  // broadcast wire bytes, server -> device
  std::uint64_t bytes_up = 0;    // update wire bytes, device -> server (a
                                 // dropped message moves none; a corrupt or
                                 // duplicated one is charged per delivery)
  double channel_delay_ms = 0.0; // injected latency (simulated, never slept)
  bool duplicate = false;        // delivered twice; bytes_up covers both
  std::string error;             // decoder/checksum message when kCorrupt

  bool delivered() const { return status == ExchangeStatus::kDelivered; }
  const ClientResult& result() const { return update.result; }
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Delivers `broadcast` to `client` and returns its update, measuring
  // the exact bytes moved each direction. Called concurrently from
  // ThreadPool workers (one call per selected device per round);
  // implementations must be thread-safe and deterministic.
  //
  // Thread contract (checked convention, not just prose): every bundled
  // transport is immutable after construction — exchange() is const and
  // touches no mutable members, so concurrent calls share nothing and
  // need no lock. An implementation that adds mutable state (caches,
  // sockets, counters) must guard it with a fed::Mutex and declare the
  // fields FED_GUARDED_BY(...) (support/thread_annotations.h) so the
  // FEDPROX_THREAD_SAFETY build enforces its locking; per-exchange
  // randomness must stay counter-keyed (seed, round, device, attempt) —
  // never a shared mutable RNG — or determinism across thread counts
  // breaks (tools/fedlint polices the wall-clock/random_device side).
  virtual ExchangeRecord exchange(const ModelBroadcast& broadcast,
                                  const ClientRuntime& client) const = 0;

  virtual std::string name() const = 0;
};

// Zero-copy: the client sees the server's own parameter/correction
// buffers (today's monolithic-trainer behavior). Bytes are the exact
// sizes the wire format *would* produce, counted from the frames' field
// lists without serializing.
class InProcessTransport final : public Transport {
 public:
  ExchangeRecord exchange(const ModelBroadcast& broadcast,
                          const ClientRuntime& client) const override;
  std::string name() const override { return "inprocess"; }
};

// Round-trips every payload through the binary wire format in
// support/serialize — encode, decode, solve on the decoded copy, encode
// the update, decode it server-side — measuring actual buffer sizes.
// What a real network stack would do, minus the socket.
class SerializedTransport final : public Transport {
 public:
  ExchangeRecord exchange(const ModelBroadcast& broadcast,
                          const ClientRuntime& client) const override;
  std::string name() const override { return "serialized"; }
};

// Decorator that injects configurable channel faults into any inner
// transport: message drops, payload corruption (applied to the real wire
// encoding, so the FPB1/FPU1 decoders — plus a link-layer checksum for
// damage inside the float64 payload — reject it), duplicate delivery,
// and bounded latency. Every decision comes from a counter-keyed stream
// (seed, kFault, round, device, attempt), so the same seed and profile
// reproduce the same faults bit-for-bit regardless of threading; a
// zero-fault profile is pass-through and leaves training bit-identical
// to the bare inner transport.
class FaultInjectingTransport final : public Transport {
 public:
  // Throws std::invalid_argument on a null inner. The profile's ranges
  // are checked with the rest of the config (core/config.h). `seed`
  // should be the training seed; Trainer wraps its transport with
  // exactly that.
  FaultInjectingTransport(std::shared_ptr<const Transport> inner,
                          FaultProfile profile, std::uint64_t seed);

  ExchangeRecord exchange(const ModelBroadcast& broadcast,
                          const ClientRuntime& client) const override;
  std::string name() const override { return "faulty(" + inner_->name() + ")"; }

 private:
  std::shared_ptr<const Transport> inner_;
  FaultProfile profile_;
  std::uint64_t seed_;
};

enum class TransportKind { kInProcess, kSerialized };

std::string to_string(TransportKind kind);
// Accepts "inprocess" or "serialized" (the --transport flag values);
// throws std::invalid_argument otherwise.
TransportKind parse_transport_kind(const std::string& name);
std::shared_ptr<const Transport> make_transport(TransportKind kind);

}  // namespace fed
