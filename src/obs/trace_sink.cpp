#include "obs/trace_sink.h"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/config.h"
#include "support/csv.h"

namespace fed {

namespace {

JsonObject run_info_json(const RunInfo& info) {
  JsonObject run;
  run["rounds"] = info.rounds;
  run["first_round"] = info.first_round;
  run["num_clients"] = info.num_clients;
  run["parameter_count"] = info.parameter_count;
  run["threads"] = info.threads;
  run["resumed"] = info.resumed;
  run["config"] = config_to_json(info.config);
  return run;
}

}  // namespace

JsonlTraceSink::JsonlTraceSink(const std::string& path,
                               std::size_t rotate_bytes, OpenMode mode)
    : path_(path), rotate_bytes_(rotate_bytes), out_(nullptr) {
  const auto slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    ensure_directory(path.substr(0, slash));
  }
  if (mode == OpenMode::kAppend) {
    // Continue the crashed run's file: the carried-over bytes count
    // against this generation's rotation budget, and a non-empty file
    // already holds round lines, so rotation stays armed.
    std::error_code ec;
    const auto existing = std::filesystem::file_size(path, ec);
    if (!ec && existing > 0) {
      bytes_written_ = static_cast<std::size_t>(existing);
      round_lines_ = 1;
    }
    file_.open(path, std::ios::app);
  } else {
    file_.open(path, std::ios::trunc);
  }
  if (!file_) {
    throw std::runtime_error("JsonlTraceSink: cannot open " + path);
  }
  out_ = &file_;
}

JsonlTraceSink::JsonlTraceSink(std::ostream& out) : out_(&out) {}

void JsonlTraceSink::emit(const std::string& line) {
  // Roll over before the line that would cross the byte budget, never
  // mid-line — but only once the active generation holds at least one
  // round line, so a budget smaller than header+line degrades to one
  // line per generation instead of rotating forever.
  if (&file_ == out_ && rotate_bytes_ > 0 && round_lines_ > 0 &&
      bytes_written_ + line.size() + 1 > rotate_bytes_) {
    rotate();
  }
  *out_ << line << '\n';
  bytes_written_ += line.size() + 1;
}

void JsonlTraceSink::rotate() {
  file_.close();
  namespace fs = std::filesystem;
  std::error_code ec;  // rotation never throws; a failed shift is dropped
  fs::remove(path_ + "." + std::to_string(kRotatedGenerations), ec);
  for (std::size_t g = kRotatedGenerations; g > 1; --g) {
    fs::rename(path_ + "." + std::to_string(g - 1),
               path_ + "." + std::to_string(g), ec);
  }
  fs::rename(path_, path_ + ".1", ec);
  file_.open(path_, std::ios::trunc);
  if (!file_) {
    throw std::runtime_error("JsonlTraceSink: cannot reopen " + path_);
  }
  ++rotations_;
  bytes_written_ = 0;
  round_lines_ = 0;
  // Every generation starts with the run header so it lints standalone.
  if (!header_line_.empty()) {
    file_ << header_line_ << '\n';
    bytes_written_ = header_line_.size() + 1;
  }
}

void JsonlTraceSink::begin_run(const RunInfo& info) {
  JsonObject line;
  line["run"] = run_info_json(info);
  header_line_ = serialize_json(JsonValue(std::move(line)));
  emit(header_line_);
}

void JsonlTraceSink::write(const RoundMetrics& metrics,
                           const RoundTrace& trace) {
  emit(serialize_json(round_line_to_json(metrics, trace)));
  ++round_lines_;
}

void JsonlTraceSink::end_run(const TrainHistory& history) {
  (void)history;
  out_->flush();
}

}  // namespace fed
