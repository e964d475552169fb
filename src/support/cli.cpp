#include "support/cli.h"

#include <charconv>
#include <stdexcept>

#include "support/log.h"

namespace fed {

namespace {

bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

}  // namespace

namespace {

template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::int64_t> parse_integer(const std::string& text) {
  return parse_whole<std::int64_t>(text);
}

std::optional<double> parse_number(const std::string& text) {
  return parse_whole<double>(text);
}

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> CliFlags::raw(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  read_[name] = true;
  return it->second;
}

std::string CliFlags::get_string(const std::string& name,
                                 const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

std::optional<std::string> CliFlags::get_optional_string(
    const std::string& name) const {
  return raw(name);
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  const std::optional<std::int64_t> value = parse_integer(*v);
  if (!value) {
    throw std::invalid_argument("flag --" + name +
                                " expects an integer, got '" + *v + "'");
  }
  return *value;
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  const std::optional<double> value = parse_number(*v);
  if (!value) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                *v + "'");
  }
  return *value;
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              *v + "'");
}

std::vector<double> CliFlags::get_double_list(
    const std::string& name, std::vector<double> fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  std::vector<double> out;
  std::string cur;
  for (char c : *v + ",") {
    if (c == ',') {
      if (!cur.empty()) {
        const std::optional<double> value = parse_number(cur);
        if (!value) {
          throw std::invalid_argument("flag --" + name +
                                      " expects numbers, got '" + *v + "'");
        }
        out.push_back(*value);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  return out;
}

std::vector<std::string> CliFlags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : values_) {
    if (!read_.contains(name)) out.push_back(name);
  }
  return out;
}

void CliFlags::warn_unused() const {
  for (const std::string& name : unused()) {
    log_warn() << "ignoring unknown flag --" << name;
  }
}

}  // namespace fed
