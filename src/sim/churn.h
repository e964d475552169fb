// Open-world device churn (the robustness premise of Section 2: devices
// "may drop out" and the active population is never fixed).
//
// Without churn every device in the dataset is reachable every round. A
// DeviceRegistry lifts that assumption. Devices arrive and depart on a
// deterministic counter-keyed schedule — one Rng(seed, {kChurn, round,
// device}) draw per device per round, nothing else — so the live
// population at round t is a pure function of (seed, churn config, t),
// identical across threads, shards, and transports. Sampling, shard
// planning, and quorum all operate on the live population each round
// (core/round_driver).
//
// Timeline of one round t:
//   begin_round(t)  inactive devices may arrive (selectable immediately);
//                   active devices may be marked departing — they stay
//                   selectable but fail mid-round (every exchange attempt
//                   is lost, like a crashed phone mid-exchange)
//   ...selection, exchanges, aggregation over active_devices()...
//   end_round(t)    departures take effect; the device is gone next round
//
// Every device starts active. Departures are capped so the population
// never falls below max(min_active, 1): the cap is applied in ascending
// device order, so the capped set is itself deterministic. With a zero
// ChurnConfig the registry is inert — everyone active forever,
// begin_round/end_round return at once — so the round driver needs no
// second path for a fixed population. The trainer always builds one,
// with min_active = devices_per_round so selection stays well-defined.
//
// The registry is driven from the round thread only; pool workers may
// call the const accessors during the exchange barrier (the round thread
// does not mutate between begin_round and end_round).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fed {

// Per-round, per-device churn probabilities. Parsed from the --churn
// flag: "arrive=0.05,depart=0.02".
struct ChurnConfig {
  double arrive = 0.0;   // P(inactive device joins this round)
  double depart = 0.0;   // P(active device leaves mid-round)

  bool any() const { return arrive > 0.0 || depart > 0.0; }
};

// Parses "key=value[,key=value...]" over the config's entries in the
// config field list (core/config.h, where both are defined): arrive and
// depart in [0, 1]. Throws std::invalid_argument on unknown keys or
// out-of-range values.
ChurnConfig parse_churn_config(const std::string& spec);
// Canonical "arrive=0.05,depart=0.02,..." form (only the non-zero knobs).
std::string to_string(const ChurnConfig& config);

// The live device population under a churn schedule. See file comment.
class DeviceRegistry {
 public:
  // `population` is the dataset's device count and `min_active` the
  // departure floor. Throws when min_active exceeds the population; the
  // probabilities are the Trainer's to check (core/config.h).
  DeviceRegistry(std::size_t population, ChurnConfig config,
                 std::size_t min_active, std::uint64_t seed);

  // Draws this round's arrivals (effective immediately) and the capped
  // set of mid-round departures. Idempotent per round is NOT promised;
  // call exactly once per training round, before selection.
  void begin_round(std::uint64_t round);
  // Applies the departures drawn by begin_round(round).
  void end_round(std::uint64_t round);

  // Sorted ids of the currently-active devices.
  const std::vector<std::size_t>& active_devices() const { return active_ids_; }
  std::size_t active_count() const { return active_ids_.size(); }
  std::size_t population() const { return active_.size(); }
  bool active(std::size_t device) const { return active_[device] != 0; }
  // True between begin_round and end_round for a device that leaves this
  // round. Safe to call from pool workers during the exchange barrier.
  bool departing(std::size_t device) const { return departing_[device] != 0; }
  // Devices leaving at the end of the current round (valid between
  // begin_round and end_round; zero between rounds).
  std::size_t departing_count() const { return departing_ids_.size(); }

  // Lifetime totals, for traces and the soak report.
  std::uint64_t total_arrivals() const { return total_arrivals_; }
  std::uint64_t total_departures() const { return total_departures_; }

  const ChurnConfig& config() const { return config_; }

  // Checkpoint support: the full mutable state is the active bitmask plus
  // the lifetime totals (departing_ is always empty between rounds).
  std::vector<std::uint8_t> pack_active() const;
  void restore(std::span<const std::uint8_t> packed_active,
               std::uint64_t arrivals, std::uint64_t departures);

 private:
  void rebuild_active_ids();

  ChurnConfig config_;
  std::size_t min_active_;
  std::uint64_t seed_;
  std::vector<std::uint8_t> active_;     // 1 = device is live
  std::vector<std::uint8_t> departing_;  // 1 = leaves at end_round
  std::vector<std::size_t> active_ids_;  // sorted cache of active_
  std::vector<std::size_t> departing_ids_;  // this round's capped set
  std::uint64_t total_arrivals_ = 0;
  std::uint64_t total_departures_ = 0;
};

}  // namespace fed
