#include "sim/churn.h"

#include <algorithm>
#include <stdexcept>

#include "support/rng.h"

namespace fed {

DeviceRegistry::DeviceRegistry(std::size_t population, ChurnConfig config,
                               std::size_t min_active, std::uint64_t seed)
    : config_(config), min_active_(min_active), seed_(seed) {
  if (population == 0) {
    throw std::invalid_argument("DeviceRegistry: empty population");
  }
  if (min_active_ > population) {
    throw std::invalid_argument(
        "DeviceRegistry: min_active exceeds the population");
  }
  active_.assign(population, 1);
  departing_.assign(population, 0);
  rebuild_active_ids();
}

void DeviceRegistry::begin_round(std::uint64_t round) {
  if (!config_.any()) return;
  // One stream per (round, device); a single uniform draw decides the
  // device's transition, so arrivals and departures never perturb each
  // other and the schedule is independent of every other subsystem.
  // Pass 1: arrivals (a device that arrives cannot depart the same round).
  std::vector<std::uint8_t> arrived(active_.size(), 0);
  for (std::size_t k = 0; k < active_.size(); ++k) {
    if (active_[k]) continue;
    Rng rng(seed_, {static_cast<std::uint64_t>(StreamKind::kChurn), round,
                    static_cast<std::uint64_t>(k)});
    if (rng.uniform() < config_.arrive) {
      active_[k] = 1;
      arrived[k] = 1;
      ++total_arrivals_;
    }
  }
  // Pass 2: departure draws over the devices active before this round,
  // capped in ascending id order so the population never drops below the
  // floor (the floor counts post-arrival actives, so an arrival can
  // "make room" for a departure — still a pure function of the draws).
  std::size_t live = 0;
  for (std::size_t k = 0; k < active_.size(); ++k) live += active_[k] ? 1u : 0u;
  const std::size_t floor = std::max<std::size_t>(min_active_, 1);
  departing_ids_.clear();
  for (std::size_t k = 0; k < active_.size() && live > floor; ++k) {
    if (!active_[k] || arrived[k]) continue;
    Rng rng(seed_, {static_cast<std::uint64_t>(StreamKind::kChurn), round,
                    static_cast<std::uint64_t>(k)});
    if (rng.uniform() < config_.depart) {
      departing_[k] = 1;
      departing_ids_.push_back(k);
      --live;
    }
  }
  rebuild_active_ids();
}

void DeviceRegistry::end_round(std::uint64_t round) {
  (void)round;
  if (!config_.any()) return;
  if (departing_ids_.empty()) return;
  for (std::size_t k : departing_ids_) {
    active_[k] = 0;
    departing_[k] = 0;
    ++total_departures_;
  }
  departing_ids_.clear();
  rebuild_active_ids();
}

void DeviceRegistry::rebuild_active_ids() {
  active_ids_.clear();
  for (std::size_t k = 0; k < active_.size(); ++k) {
    if (active_[k]) active_ids_.push_back(k);
  }
}

std::vector<std::uint8_t> DeviceRegistry::pack_active() const {
  std::vector<std::uint8_t> packed((active_.size() + 7) / 8, 0);
  for (std::size_t k = 0; k < active_.size(); ++k) {
    if (active_[k]) packed[k / 8] |= static_cast<std::uint8_t>(1u << (k % 8));
  }
  return packed;
}

void DeviceRegistry::restore(std::span<const std::uint8_t> packed_active,
                             std::uint64_t arrivals,
                             std::uint64_t departures) {
  if (packed_active.size() != (active_.size() + 7) / 8) {
    throw std::invalid_argument(
        "DeviceRegistry: packed active bitmask does not match population");
  }
  for (std::size_t k = 0; k < active_.size(); ++k) {
    active_[k] = (packed_active[k / 8] >> (k % 8)) & 1u;
    departing_[k] = 0;
  }
  departing_ids_.clear();
  total_arrivals_ = arrivals;
  total_departures_ = departures;
  rebuild_active_ids();
}

}  // namespace fed
