// Minimal typed command-line flag parser for the bench drivers and
// examples: --name=value or --name value; bools accept bare --flag.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fed {

// Whole-string number parses, shared by the getters below and by
// key=value specs: nullopt for an empty or malformed value, one with
// trailing characters ("2x"), or one out of the type's range.
std::optional<std::int64_t> parse_integer(const std::string& text);
std::optional<double> parse_number(const std::string& text);

class CliFlags {
 public:
  CliFlags(int argc, const char* const* argv);

  // Typed accessors; return fallback when the flag is absent. Throws
  // std::invalid_argument on a malformed value.
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  // Presence-carrying variant for flags with no sensible default, e.g.
  // --trace-out <path>: nullopt when the flag is absent.
  std::optional<std::string> get_optional_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;
  // Comma-separated list of doubles, e.g. --mus=0,0.01,1.
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> fallback) const;

  bool has(const std::string& name) const { return values_.contains(name); }

  // Positional (non --flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  // Flags seen but never read; useful to warn on typos.
  std::vector<std::string> unused() const;
  // Logs "ignoring unknown flag --<name>" for each of unused(); call it
  // once every flag the program takes has been read.
  void warn_unused() const;

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> read_;
};

}  // namespace fed
