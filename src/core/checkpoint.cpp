#include "core/checkpoint.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "core/config.h"
#include "support/csv.h"

namespace fed {

namespace {

// Incremental FNV-1a mixer for the config fingerprint. Doubles mix via
// their bit patterns so the fingerprint is exact, not approximate.
class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      hash_ ^= static_cast<std::uint8_t>(c);
      hash_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::string checkpoint_name(std::uint64_t round) {
  // Zero-padded so lexicographic filename order is round order; 12
  // digits cover any soak we will ever run.
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%012llu.fpc",
                static_cast<unsigned long long>(round));
  return name;
}

// Parses `ckpt-<round>.fpc`; returns false for any other filename,
// including one whose round is not all digits or does not fit in a u64.
bool parse_checkpoint_name(const std::string& name, std::uint64_t& round) {
  constexpr const char* kPrefix = "ckpt-";
  constexpr const char* kSuffix = ".fpc";
  if (name.size() <= 5 + 4 || name.rfind(kPrefix, 0) != 0 ||
      name.substr(name.size() - 4) != kSuffix) {
    return false;
  }
  const char* last = name.data() + name.size() - 4;
  const auto [end, ec] = std::from_chars(name.data() + 5, last, round);
  return ec == std::errc() && end == last;
}

}  // namespace

std::uint64_t config_fingerprint(const TrainerConfig& config,
                                 std::size_t population,
                                 std::size_t parameter_count) {
  // Every trajectory-relevant leaf of the field list, in list order; the
  // solver and the transport by name_of.
  Fingerprint fp;
  visit_config(config, [&fp](const auto& leaf, const ConfigField& f) {
    using T = std::remove_cvref_t<decltype(leaf)>;
    if (!f.trajectory) return;
    if constexpr (std::is_same_v<T, double> || std::is_same_v<T, std::string>) {
      fp.mix(leaf);
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      fp.mix(static_cast<std::uint64_t>(leaf));
    } else {
      fp.mix(name_of(leaf));
    }
  });
  fp.mix(static_cast<std::uint64_t>(population));
  fp.mix(static_cast<std::uint64_t>(parameter_count));
  return fp.value();
}

void save_checkpoint_state(const std::string& path,
                           const CheckpointState& state) {
  const auto slash = path.find_last_of('/');
  if (slash != std::string::npos) ensure_directory(path.substr(0, slash));
  const WireBuffer frame = encode_checkpoint_state(state);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("save_checkpoint_state: cannot open " + tmp);
    }
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
    if (!out) {
      throw std::runtime_error("save_checkpoint_state: write failed: " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("save_checkpoint_state: rename to " + path +
                             " failed: " + ec.message());
  }
}

CheckpointState load_checkpoint_state(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_checkpoint_state: cannot open " + path);
  }
  WireBuffer frame((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return decode_checkpoint_state(frame);
}

std::vector<std::string> list_checkpoints(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::uint64_t round = 0;
    if (parse_checkpoint_name(entry.path().filename().string(), round)) {
      found.emplace_back(round, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [round, path] : found) paths.push_back(std::move(path));
  return paths;
}

std::optional<std::string> latest_checkpoint(const std::string& dir) {
  auto paths = list_checkpoints(dir);
  if (paths.empty()) return std::nullopt;
  return paths.back();
}

CheckpointWriter::CheckpointWriter(CheckpointConfig config)
    : config_(std::move(config)) {
  if (!config_.enabled() || config_.retain == 0) {
    throw std::invalid_argument(
        "CheckpointWriter: config has no directory, zero cadence or zero "
        "retention");
  }
  ensure_directory(config_.dir);
}

CheckpointWriter::WriteInfo CheckpointWriter::write(
    const CheckpointState& state) {
  // next_round is the first round a resume executes, so the file is
  // named for the last *completed* round — the id the trace reports.
  const std::uint64_t completed = state.next_round - 1;
  WriteInfo info;
  info.path = config_.dir + "/" + checkpoint_name(completed);
  save_checkpoint_state(info.path, state);
  std::error_code ec;
  info.bytes = std::filesystem::file_size(info.path, ec);
  auto generations = list_checkpoints(config_.dir);
  while (generations.size() > config_.retain) {
    std::filesystem::remove(generations.front(), ec);
    generations.erase(generations.begin());
  }
  info.generations = generations.size();
  return info;
}

}  // namespace fed
