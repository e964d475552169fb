// Cross-boundary trace correlation for the federation exchange.
//
// A TraceContext names the distributed operation a message belongs to:
// `trace_id` identifies the server round, `span_id` the sender-side span
// that produced the message (the parent of whatever work the receiver
// does with it). The round driver mints one context per training round,
// stamps it into every ModelBroadcast, and the FPB1/FPU1/FPS2 codecs
// carry it across the wire — so when aggregator shards move to separate
// processes, a client solve or shard merge recorded *there* still links
// back to the round recorded *here*.
//
// Everything is derived deterministically from (seed, round) by
// splitmix64-style mixing: no global counters, no randomness, identical
// across reruns and thread counts.
//
// Every FPB1/FPU1/FPS2 frame carries a context, whether or not anything
// records it. The frame size matters beyond byte accounting:
// FaultInjectingTransport picks the bit it corrupts from wire.size() * 8
// (comm/fault.cpp), so dropping the context from a frame would move every
// injected fault and change the history (and digest) of a faulty run.
// A zero-valued context means "untraced" — the codecs round-trip it like
// any other value.

#pragma once

#include <cstddef>
#include <cstdint>

namespace fed {

struct TraceContext {
  std::uint64_t trace_id = 0;  // the server round this message belongs to
  std::uint64_t span_id = 0;   // sender-side parent span

  bool traced() const { return trace_id != 0; }
  bool operator==(const TraceContext&) const = default;
};

// splitmix64 finalizer: a bijective avalanche over u64.
inline std::uint64_t trace_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The per-message span kinds derived beneath a round's root span. Values
// are part of the id derivation — append only.
enum class TraceSpanKind : std::uint64_t {
  kRound = 0,         // the root span: one per training round
  kExchange = 1,      // per-device broadcast/solve/collect (index = device)
  kClientSolve = 2,   // device-side local solve (index = device)
  kShardPartial = 3,  // one shard's FPS2 partial uplink (index = shard)
};

// Child span id under `trace_id`. Nonzero for any nonzero
// trace_id (trace_mix is bijective and the kind tag keeps families
// disjoint); distinct (kind, index) pairs collide only with ~2^-64
// probability.
inline std::uint64_t derive_trace_span(std::uint64_t trace_id,
                                       TraceSpanKind kind, std::size_t index) {
  return trace_mix(trace_id ^
                   trace_mix((static_cast<std::uint64_t>(kind) << 48) ^
                             static_cast<std::uint64_t>(index)));
}

// Root context for training round `round` (1-based) of a run seeded with
// `seed`. trace_id is never 0, so traced() holds for every real round.
inline TraceContext make_round_trace_context(std::uint64_t seed,
                                             std::size_t round) {
  const std::uint64_t salt = 0x7472616365ULL;  // "trace"
  std::uint64_t id =
      trace_mix(seed ^ trace_mix(static_cast<std::uint64_t>(round) ^ salt));
  if (id == 0) id = 1;  // preserve "0 means untraced"
  return TraceContext{
      .trace_id = id,
      .span_id = derive_trace_span(id, TraceSpanKind::kRound, 0)};
}

}  // namespace fed
