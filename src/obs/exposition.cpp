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
                          const MetricsSnapshot& snap, const char* type) {
  const auto help = snap.help.find(name);
  if (help != snap.help.end() && !help->second.empty()) {
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

std::string text_exposition(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, samples] : snapshot.counters) {
    append_help_and_type(out, name, snapshot, "counter");
    for (const auto& s : samples) {
      out += name;
      append_labels(out, s.labels);
      out += ' ';
      out += std::to_string(s.value);
      out += '\n';
    }
  }
  for (const auto& [name, samples] : snapshot.gauges) {
    append_help_and_type(out, name, snapshot, "gauge");
    for (const auto& s : samples) {
      out += name;
      append_labels(out, s.labels);
      out += ' ';
      out += format_exposition_number(s.value);
      out += '\n';
    }
  }
  for (const auto& [name, samples] : snapshot.histograms) {
    append_help_and_type(out, name, snapshot, "histogram");
    for (const auto& s : samples) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < s.snapshot.buckets.size(); ++i) {
        cumulative += s.snapshot.buckets[i];
        out += name;
        out += "_bucket";
        append_labels(out, s.labels, "le",
                      format_exposition_number(s.upper_edges[i]));
        out += ' ';
        out += std::to_string(cumulative);
        out += '\n';
      }
      out += name;
      out += "_sum";
      append_labels(out, s.labels);
      out += ' ';
      out += format_exposition_number(s.snapshot.sum);
      out += '\n';
      out += name;
      out += "_count";
      append_labels(out, s.labels);
      out += ' ';
      out += std::to_string(s.snapshot.count);
      out += '\n';
    }
  }
  return out;
}

std::string text_exposition(const MetricsRegistry& registry) {
  return text_exposition(registry.snapshot());
}

namespace {

// Inverse of append_labels/escape_label_value for one `{...}` selector.
// Returns false on any malformed syntax (caller skips the line).
bool parse_label_set(const std::string& text, MetricLabels& out) {
  std::size_t i = 0;
  while (i < text.size()) {
    const auto eq = text.find('=', i);
    if (eq == std::string::npos || eq + 1 >= text.size() ||
        text[eq + 1] != '"') {
      return false;
    }
    std::string key = text.substr(i, eq - i);
    std::string value;
    std::size_t j = eq + 2;
    for (; j < text.size() && text[j] != '"'; ++j) {
      char c = text[j];
      if (c == '\\' && j + 1 < text.size()) {
        ++j;
        c = text[j] == 'n' ? '\n' : text[j];
      }
      value.push_back(c);
    }
    if (j >= text.size()) return false;  // unterminated value
    out.emplace_back(std::move(key), std::move(value));
    i = j + 1;
    if (i < text.size()) {
      if (text[i] != ',') return false;
      ++i;
    }
  }
  return true;
}

}  // namespace

std::size_t seed_counters_from_exposition(MetricsRegistry& registry,
                                          const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;  // no prior exposition — nothing to carry over
  std::set<std::string> counter_families;
  std::size_t seeded = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only `# TYPE <name> counter` matters; HELP and comments skip.
      std::istringstream meta(line);
      std::string hash, kind, name, type;
      if (meta >> hash >> kind >> name >> type && kind == "TYPE" &&
          type == "counter") {
        counter_families.insert(name);
      }
      continue;
    }
    const auto space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) continue;
    std::string selector = line.substr(0, space);
    const std::string value_text = line.substr(space + 1);
    MetricLabels labels;
    const auto brace = selector.find('{');
    if (brace != std::string::npos) {
      if (selector.back() != '}') continue;
      if (!parse_label_set(
              selector.substr(brace + 1, selector.size() - brace - 2),
              labels)) {
        continue;
      }
      selector.resize(brace);
    }
    if (!counter_families.count(selector)) continue;
    // Digits only: a sign, a fraction or an out-of-range total is not a
    // counter value, and the line is skipped.
    std::uint64_t value = 0;
    const char* last = value_text.data() + value_text.size();
    const auto [end, ec] = std::from_chars(value_text.data(), last, value);
    if (ec != std::errc() || end != last) continue;
    registry.counter(selector, std::move(labels)).add(value);
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

MetricsExporter::MetricsExporter(MetricsRegistry& registry, std::string path,
                                 std::size_t every)
    : registry_(registry),
      path_(checked_exposition_path(std::move(path))),
      every_(every ? every : 1),
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
    {
      MutexLock lock(mu_);
      while (!publish_requested_ && !stop_) cv_.wait(mu_);
      // Drain the pending request even when stopping, so a request made
      // just before destruction still lands on disk.
      if (!publish_requested_) return;
      publish_requested_ = false;
      busy_ = true;
    }
    std::exception_ptr error;
    try {
      write_text_exposition(path_, registry_);
    } catch (...) {
      error = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      busy_ = false;
      if (error) {
        if (!error_) error_ = error;
      } else {
        writes_.fetch_add(1, std::memory_order_release);
      }
    }
    cv_.notify_all();
  }
}

void MetricsExporter::request_publish() {
  {
    MutexLock lock(mu_);
    publish_requested_ = true;
  }
  cv_.notify_all();
}

void MetricsExporter::flush() {
  MutexLock lock(mu_);
  while (publish_requested_ || busy_) cv_.wait(mu_);
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
  if (++rounds_seen_ % every_ != 0) return;
  request_publish();
}

void MetricsExporter::on_run_end(const TrainHistory& history) {
  (void)history;
  request_publish();
  flush();
}

}  // namespace fed
