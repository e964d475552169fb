#include "core/config.h"

#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "comm/transport.h"

namespace fed {

namespace {

template <typename T>
using LeafType = std::remove_cvref_t<T>;

template <typename T>
constexpr bool kNumeric = std::is_arithmetic_v<T> || std::is_enum_v<T>;

template <typename T>
double as_double(T value) {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<double>(static_cast<std::underlying_type_t<T>>(value));
  } else {
    return static_cast<double>(value);
  }
}

// Integral values up to 2^53 in full ("9007199254740992", not "9.0072e+15").
std::string number_text(double x) {
  if (x == std::trunc(x) && std::abs(x) <= 0x1p53) {
    return std::to_string(static_cast<std::int64_t>(x));
  }
  std::ostringstream out;
  out << x;
  return out.str();
}

std::string range_text(const ConfigField& f) {
  std::string text = f.lo_open ? "(" : "[";
  text += number_text(f.lo) + ", ";
  text += std::isinf(f.hi) ? "inf)" : number_text(f.hi) + "]";
  return text;
}

// "" when `value` is a finite value in f's range; written so NaN fails.
// An integer is held to hi as an integer: as a double, 2^53 + 1 would
// round to 2^53 and pass.
template <typename T>
std::string range_error(const ConfigField& f, T value) {
  const double x = as_double(value);
  bool in_range = (f.lo_open ? x > f.lo : x >= f.lo) && x <= f.hi &&
                  std::isfinite(x);
  std::string text = number_text(x);
  if constexpr (std::is_integral_v<T>) {
    if (!std::isinf(f.hi) && value > static_cast<T>(f.hi)) in_range = false;
    text = std::to_string(value);
  }
  return in_range ? "" : text + " outside " + range_text(f);
}

// A spec leaf's key: its path after the last dot ("faults.drop" -> drop).
std::string key_of(const ConfigField& f) {
  const std::string path = f.path;
  return path.substr(path.rfind('.') + 1);
}

// Parses `text` into `out` and checks it against f's range; throws
// std::invalid_argument "<where>: <why>" otherwise. A count is refused
// when negative, before the cast.
template <typename T>
void assign(const ConfigField& f, const std::string& text, T& out,
            const std::string& where) {
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument(where + ": " + why);
  };
  if constexpr (std::is_same_v<T, double>) {
    const std::optional<double> x = parse_number(text);
    if (!x) fail("expects a number, got '" + text + "'");
    out = *x;
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    const std::optional<std::int64_t> n = parse_integer(text);
    if (!n || *n < 0) fail("expects a count >= 0, got '" + text + "'");
    out = static_cast<T>(*n);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, std::shared_ptr<const Transport>>) {
    try {
      out = make_transport(parse_transport_kind(text));
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  } else {
    throw std::logic_error(std::string("config: no flag reads ") + f.path);
  }
  if constexpr (kNumeric<T>) {
    const std::string bad = range_error(f, out);
    if (!bad.empty()) fail(bad);
  }
}

// Sets the leaves of the `spec` entry from "key=value[,key=value...]";
// keys it does not name become 0, the sub-structs' defaults.
void read_spec(TrainerConfig& config, const ConfigField& spec,
               const std::string& text, const std::string& context) {
  std::map<std::string, std::string> items;
  std::istringstream in(text);
  for (std::string item; std::getline(in, item, ',');) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(context + ": expected key=value, got \"" +
                                  item + "\"");
    }
    items[item.substr(0, eq)] = item.substr(eq + 1);
  }
  std::string keys;
  visit_config(config, [&](auto& leaf, const ConfigField& f) {
    if (f.spec != &spec) return;
    const std::string key = key_of(f);
    keys += (keys.empty() ? "" : ", ") + key;
    leaf = {};
    if (const auto it = items.find(key); it != items.end()) {
      assign(f, it->second, leaf, context + ": " + key);
      items.erase(it);
    }
  });
  if (!items.empty()) {
    throw std::invalid_argument(context + ": unknown key \"" +
                                items.begin()->first + "\" (expected " +
                                keys + ")");
  }
}

// The canonical "key=value,..." form of the `spec` entry: only the
// non-zero leaves, "none" when there is none.
std::string spec_text(const TrainerConfig& config, const ConfigField& spec) {
  std::string text;
  visit_config(config, [&](const auto& leaf, const ConfigField& f) {
    using T = LeafType<decltype(leaf)>;
    if constexpr (kNumeric<T>) {
      if (f.spec != &spec || !(leaf > T{})) return;
      if (!text.empty()) text += ",";
      text += key_of(f) + "=" + number_text(as_double(leaf));
    }
  });
  return text.empty() ? "none" : text;
}

bool offers(FlagFilter offered, const std::string& flag) {
  return !flag.empty() && (offered == nullptr || offered(flag));
}

}  // namespace

void validate(const TrainerConfig& config) {
  visit_config(config, [](const auto& leaf, const ConfigField& f) {
    using T = LeafType<decltype(leaf)>;
    if constexpr (kNumeric<T>) {
      const std::string bad = range_error(f, leaf);
      if (!bad.empty()) {
        throw std::invalid_argument("TrainerConfig: " + std::string(f.path) +
                                    ": " + bad);
      }
    }
  });
}

JsonValue config_to_json(const TrainerConfig& config) {
  JsonObject out;
  visit_config(config, [&](const auto& leaf, const ConfigField& f) {
    using T = LeafType<decltype(leaf)>;
    const std::string path = f.path;
    JsonObject* node = &out;
    std::size_t start = 0;
    for (std::size_t dot; (dot = path.find('.', start)) != std::string::npos;
         start = dot + 1) {
      JsonValue& child = (*node)[path.substr(start, dot - start)];
      if (!child.is_object()) child = JsonObject{};
      node = &child.as_object();
    }
    JsonValue& value = (*node)[path.substr(start)];
    if constexpr (std::is_enum_v<T>) {
      value = to_string(leaf);
    } else if constexpr (kNumeric<T> || std::is_same_v<T, std::string>) {
      value = JsonValue(leaf);
    } else {
      value = name_of(leaf);
    }
  });
  return JsonValue(std::move(out));
}

std::string name_of(const std::shared_ptr<const LocalSolver>& solver) {
  return solver ? solver->name() : "sgd";
}

std::string name_of(const std::shared_ptr<const Transport>& transport) {
  return transport ? transport->name() : "inprocess";
}

void read_config_flags(const CliFlags& flags, TrainerConfig& config,
                       FlagFilter offered) {
  const ConfigField* read = nullptr;  // the spec flag last read
  visit_config(config, [&](auto& leaf, const ConfigField& f) {
    const std::string flag = f.spec ? f.spec->flag : f.flag;
    if (!offers(offered, flag) || (f.spec && f.spec == read)) return;
    const auto text = flags.get_optional_string(flag);
    if (!text) return;
    if (f.spec) {
      read = f.spec;
      read_spec(config, *f.spec, *text, "flag --" + flag);
    } else {
      assign(f, *text, leaf, "flag --" + flag);
    }
  });
}

std::string config_flags_help(const TrainerConfig& defaults,
                              FlagFilter offered) {
  std::ostringstream out;
  const auto line = [&out](const std::string& name, const std::string& what) {
    out << "  " << std::left << std::setw(23) << name << " " << what << "\n";
  };
  const ConfigField* open_spec = nullptr;
  visit_config(defaults, [&](const auto& leaf, const ConfigField& f) {
    using T = LeafType<decltype(leaf)>;
    const std::string flag = f.spec ? f.spec->flag : f.flag;
    if (!offers(offered, flag)) return;
    std::string what = f.doc;
    std::string shown;
    if constexpr (std::is_enum_v<T>) {
      shown = to_string(leaf);
    } else if constexpr (kNumeric<T>) {
      what += ", in " + range_text(f);
      // A default outside the range (a figure's rounds 0) is the driver's.
      shown = range_error(f, leaf).empty()
                  ? number_text(as_double(leaf))
                  : "set by the driver";
    } else if constexpr (std::is_same_v<T, std::string>) {
      shown = leaf.empty() ? "\"\"" : leaf;
    } else {
      shown = name_of(leaf);
    }
    if (f.spec == nullptr) {
      line("--" + flag, what + " (default " + shown + ")");
      return;
    }
    if (open_spec != f.spec) {
      open_spec = f.spec;
      line("--" + flag + " K=V,...", std::string(f.spec->doc) + " (default " +
                                         spec_text(defaults, *f.spec) + ")");
    }
    line("    " + key_of(f), what);
  });
  return out.str();
}

FaultProfile parse_fault_profile(const std::string& spec) {
  TrainerConfig config;
  read_spec(config, kFaultsSpec, spec, "fault profile");
  return config.faults;
}

std::string to_string(const FaultProfile& profile) {
  TrainerConfig config;
  config.faults = profile;
  return spec_text(config, kFaultsSpec);
}

ChurnConfig parse_churn_config(const std::string& spec) {
  TrainerConfig config;
  read_spec(config, kChurnSpec, spec, "churn config");
  return config.churn;
}

std::string to_string(const ChurnConfig& churn) {
  TrainerConfig config;
  config.churn = churn;
  return spec_text(config, kChurnSpec);
}

}  // namespace fed
