// Fault model for the federation channel (deliberately light-weight: no
// transport include, so core/trainer can carry these by value).
//
// The paper's premise is that real federated networks are unreliable —
// devices straggle, drop out, and return partial work — yet the bundled
// transports deliver every message perfectly. A FaultProfile describes a
// faulty channel: per-exchange probabilities of message drop, payload
// corruption, and duplicate delivery, plus a bounded injected latency.
// FaultInjectingTransport (comm/transport.h) applies the profile to any
// inner transport, drawing every fault decision from a counter-keyed RNG
// stream (seed, kFault, round, device, attempt) so runs with the same
// seed and profile are bit-reproducible regardless of threading.
//
// RecoveryConfig is the server-side answer (core/round_driver): bounded
// retries with exponential backoff on a simulated clock, a per-exchange
// delivery deadline, and quorum aggregation. FaultEvent is the typed
// record of one channel incident, fanned out to TrainingObservers via
// the on_fault hook — faults never escape a pool worker as exceptions.

#pragma once

#include <cstdint>
#include <string>

namespace fed {

// Per-exchange-attempt fault probabilities of the simulated channel.
// Parsed from the --faults flag: "drop=0.1,corrupt=0.01,delay_ms=50".
struct FaultProfile {
  double drop = 0.0;       // P(update lost in flight; nothing returned)
  double corrupt = 0.0;    // P(update payload damaged; must be rejected)
  double duplicate = 0.0;  // P(update delivered twice; bytes charged twice)
  double delay_ms = 0.0;   // injected latency per attempt ~ U[0, delay_ms)

  bool any() const {
    return drop > 0.0 || corrupt > 0.0 || duplicate > 0.0 || delay_ms > 0.0;
  }
};

// Parses "key=value[,key=value...]" over the profile's entries in the
// config field list (core/config.h, where both are defined): keys drop/
// corrupt/duplicate in [0, 1], delay_ms finite and >= 0. Throws
// std::invalid_argument on unknown keys or out-of-range values.
FaultProfile parse_fault_profile(const std::string& spec);
// Canonical "drop=0.1,corrupt=0.01,..." form (only the non-zero knobs).
std::string to_string(const FaultProfile& profile);

// The round driver's recovery policy for a faulty channel. All times are
// simulated milliseconds — nothing ever wall-sleeps, so the policy is
// deterministic and free to test at any scale. Retry k (1-based) waits
// 10 * 2^(k-1) ms first (core/round_driver.cpp).
struct RecoveryConfig {
  // Extra exchange attempts after the first, per device per round.
  std::size_t max_retries = 2;
  // An update whose injected channel latency exceeds this arrives after
  // the round window and is retried as a timeout. 0 disables the check.
  double deadline_ms = 0.0;
  // Aggregation proceeds once ceil(quorum * selected) devices have
  // reported (by simulated arrival time); later arrivals are counted as
  // dropped. 1.0 (default) waits for every device — no behavior change.
  double quorum = 1.0;
};

// One channel incident, observed by the server. Routed to observers via
// TrainingObserver::on_fault on the round thread, after the parallel
// exchanges complete — never thrown across a pool-worker boundary.
struct FaultEvent {
  enum class Kind {
    kDrop,           // an attempt's update was lost in flight
    kCorrupt,        // an attempt's update arrived damaged and was rejected
    kTimeout,        // an attempt's update arrived after the deadline
    kDuplicate,      // an accepted update was delivered twice
    kDeviceFailed,   // a device produced no accepted update this round
    kQuorumDrop,     // a successful update arrived after the quorum cutoff
    kDepart,         // a selected device left the federation mid-round
    kRoundDegraded,  // the round aggregated zero updates; w was kept
  };

  Kind kind{};
  std::size_t round = 0;
  std::size_t device = 0;   // unset (0) for kRoundDegraded
  std::size_t attempt = 0;  // 0-based attempt index; attempts for kDeviceFailed
  std::string detail;       // one-line human description (decoder error, ...)
};

// Stable snake_case slug ("drop", "corrupt", ...); also names the
// per-kind registry counter fed_comm_faults_<slug>_total.
const char* to_string(FaultEvent::Kind kind);

}  // namespace fed
