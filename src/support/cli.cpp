#include "support/cli.h"

#include <stdexcept>

namespace fed {

namespace {

bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

}  // namespace

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
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                *v + "'");
  }
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                *v + "'");
  }
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
        try {
          out.push_back(std::stod(cur));
        } catch (const std::exception&) {
          throw std::invalid_argument("flag --" + name +
                                      " expects numbers, got '" + *v + "'");
        }
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

}  // namespace fed
