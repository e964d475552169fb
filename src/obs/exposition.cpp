#include "obs/exposition.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace fed {

namespace {

void append_labels(std::string& out, const MetricLabels& labels,
                   const char* extra_key = nullptr,
                   const std::string& extra_value = std::string()) {
  if (labels.empty() && !extra_key) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  if (extra_key) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;  // le bounds come from the formatter, never escaped
    out += '"';
  }
  out += '}';
}

void append_help_and_type(std::string& out, const std::string& name,
                          const MetricsRegistry& registry, const char* type) {
  const auto help = registry.help().find(name);
  if (help != registry.help().end() && !help->second.empty()) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += escape_help_text(help->second);
    out += '\n';
  }
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string escape_help_text(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string format_exposition_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  // Shortest %g that round-trips exactly; tries 1..17 significant digits
  // so 0.5 prints "0.5", not "0.50000000000000000".
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string text_exposition(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, family] : registry.counters()) {
    append_help_and_type(out, name, registry, "counter");
    for (const auto& [labels, counter] : family) {
      out += name;
      append_labels(out, labels);
      out += ' ';
      out += std::to_string(counter.value());
      out += '\n';
    }
  }
  for (const auto& [name, family] : registry.gauges()) {
    append_help_and_type(out, name, registry, "gauge");
    for (const auto& [labels, gauge] : family) {
      out += name;
      append_labels(out, labels);
      out += ' ';
      out += format_exposition_number(gauge.value());
      out += '\n';
    }
  }
  for (const auto& [name, family] : registry.histograms()) {
    append_help_and_type(out, name, registry, "histogram");
    for (const auto& [labels, h] : family) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.buckets().size(); ++i) {
        cumulative += h.buckets()[i];
        out += name;
        out += "_bucket";
        append_labels(out, labels, "le",
                      format_exposition_number(h.bucket_upper_edge(i)));
        out += ' ';
        out += std::to_string(cumulative);
        out += '\n';
      }
      out += name;
      out += "_sum";
      append_labels(out, labels);
      out += ' ';
      out += format_exposition_number(h.sum());
      out += '\n';
      out += name;
      out += "_count";
      append_labels(out, labels);
      out += ' ';
      out += std::to_string(h.count());
      out += '\n';
    }
  }
  return out;
}

namespace {

[[noreturn]] void reject(const std::string& line, const std::string& why) {
  throw std::runtime_error("exposition: " + why + ": " + line);
}

}  // namespace

ExpositionLine parse_exposition_line(const std::string& line) {
  ExpositionLine out;
  if (line.rfind("# TYPE ", 0) == 0) {
    std::istringstream fields(line.substr(7));
    std::string extra;
    if (!(fields >> out.name >> out.type) || (fields >> extra)) {
      reject(line, "malformed TYPE line");
    }
    if (out.type != "counter" && out.type != "gauge" &&
        out.type != "histogram") {
      reject(line, "unknown metric type \"" + out.type + "\"");
    }
    out.kind = ExpositionLine::Kind::kType;
    return out;
  }
  if (line.empty() || line[0] == '#') return out;  // HELP or a comment

  // `name{k="v",...} value` or `name value`; label values use the 0.0.4
  // escapes \\ \" \n, and the value ends the line (no timestamp).
  out.kind = ExpositionLine::Kind::kSample;
  std::size_t i = line.find_first_of("{ ");
  if (i == 0 || i == std::string::npos) {
    reject(line, "sample line lacks a metric name or value");
  }
  out.name = line.substr(0, i);
  if (line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      const std::size_t eq = line.find('=', i);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        reject(line, "malformed label pair (expected k=\"v\")");
      }
      std::string key = line.substr(i, eq - i);
      std::string value;
      std::size_t j = eq + 2;
      for (; j < line.size() && line[j] != '"'; ++j) {
        if (line[j] != '\\') {
          value += line[j];
          continue;
        }
        const char c = ++j < line.size() ? line[j] : '\0';
        if (c == '\\' || c == '"') {
          value += c;
        } else if (c == 'n') {
          value += '\n';
        } else {
          reject(line, std::string("unknown escape \\") + c);
        }
      }
      if (j >= line.size()) reject(line, "unterminated label value");
      out.labels.emplace_back(std::move(key), std::move(value));
      i = j + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) reject(line, "unterminated label set");
    ++i;  // '}'
  }
  if (i >= line.size() || line[i] != ' ') {
    reject(line, "no value after the metric name/labels");
  }
  out.value_text = line.substr(i + 1);
  char* end = nullptr;
  out.value = std::strtod(out.value_text.c_str(), &end);
  if (out.value_text.empty() || *end != '\0') {
    reject(line, "unparseable sample value \"" + out.value_text + "\"");
  }
  return out;
}

std::size_t seed_counters_from_exposition(MetricsRegistry& registry,
                                          const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;  // no prior exposition — nothing to carry over
  std::set<std::string> counter_families;
  std::size_t seeded = 0;
  std::string line;
  while (std::getline(in, line)) {
    ExpositionLine parsed;
    try {
      parsed = parse_exposition_line(line);
    } catch (const std::runtime_error&) {
      continue;
    }
    if (parsed.kind == ExpositionLine::Kind::kType) {
      if (parsed.type == "counter") counter_families.insert(parsed.name);
      continue;
    }
    if (parsed.kind != ExpositionLine::Kind::kSample ||
        !counter_families.contains(parsed.name)) {
      continue;
    }
    // Digits only: a sign, a fraction or an out-of-range total is not a
    // counter value, and the line is skipped.
    std::uint64_t value = 0;
    const std::string& text = parsed.value_text;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || end != last) continue;
    registry.counter(parsed.name, std::move(parsed.labels)).add(value);
    ++seeded;
  }
  return seeded;
}

namespace {

// Creates `path`'s parent directories and opens its `<path>.tmp` staging
// file; throws std::runtime_error when that is impossible.
std::ofstream open_staging_file(const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // open() reports
  }
  std::ofstream out(path + ".tmp", std::ios::trunc);
  if (!out) {
    throw std::runtime_error("exposition: cannot open " + path + ".tmp");
  }
  return out;
}

// The exporter's target, checked once: an unusable path fails at
// construction, like JsonlTraceSink's, not on the first publish.
std::string checked_exposition_path(std::string path) {
  open_staging_file(path).close();
  std::error_code ec;
  std::filesystem::remove(path + ".tmp", ec);
  return path;
}

}  // namespace

void write_text_exposition(const std::string& path,
                           const MetricsRegistry& registry) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out = open_staging_file(path);
    out << text_exposition(registry);
    if (!out) {
      throw std::runtime_error("exposition: write failed for " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("exposition: rename " + tmp + " -> " + path +
                             " failed: " + ec.message());
  }
}

MetricsExporter::MetricsExporter(const MetricsRegistry& registry,
                                 std::string path)
    : registry_(registry),
      path_(checked_exposition_path(std::move(path))),
      worker_([this] { worker_loop(); }) {}

MetricsExporter::~MetricsExporter() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void MetricsExporter::worker_loop() {
  for (;;) {
    std::optional<MetricsRegistry> state;
    {
      MutexLock lock(mu_);
      while (!pending_ && !stop_) cv_.wait(mu_);
      // Drain the pending copy even when stopping, so a request made
      // just before destruction still lands on disk.
      if (!pending_) return;
      state.swap(pending_);
      busy_ = true;
    }
    std::exception_ptr error;
    try {
      write_text_exposition(path_, *state);
    } catch (...) {
      error = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      busy_ = false;
      if (error) {
        if (!error_) error_ = error;
      } else {
        ++writes_;
      }
    }
    cv_.notify_all();
  }
}

void MetricsExporter::request_publish() {
  std::optional<MetricsRegistry> state(registry_);
  {
    MutexLock lock(mu_);
    // Latest wins: a copy the writer has not taken yet is swapped out
    // and freed below, off the lock.
    pending_.swap(state);
  }
  cv_.notify_all();
}

void MetricsExporter::flush() {
  MutexLock lock(mu_);
  while (pending_ || busy_) cv_.wait(mu_);
  if (error_) {
    const std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void MetricsExporter::on_round_end(const RoundMetrics& metrics,
                                   const RoundTrace& trace) {
  (void)metrics;
  (void)trace;
  request_publish();
}

void MetricsExporter::on_run_end(const TrainHistory& history) {
  (void)history;
  request_publish();
  flush();
}

}  // namespace fed
