// Tests for the one config field list (core/config.h). Each test walks
// the list itself, so a new field is covered the day it is added.

#include "core/config.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/observer.h"
#include "support/log.h"
#include "test_util.h"

namespace fed {
namespace {

using testing::config_leaves;
using testing::ConfigLeaf;
using testing::edit_config_leaf;

// A --faults/--churn leaf's key: its path after the last dot.
std::string key_of(const ConfigLeaf& leaf) {
  return leaf.path.substr(leaf.path.rfind('.') + 1);
}

std::string number(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

// The text of a value outside `leaf`'s range below it, or "" if none.
std::string below_range(const ConfigLeaf& leaf) {
  const ConfigField& f = leaf.field;
  if (leaf.real) return number(f.lo_open ? f.lo : f.lo - 1);
  return f.lo >= 1 ? number(f.lo - 1) : "";
}

// The value just above `leaf`'s range, or "" if none; a count's as an
// integer, since as a double 2^53 + 1 rounds back to 2^53.
std::string above_range(const ConfigLeaf& leaf) {
  const double hi = leaf.field.hi;
  if (std::isinf(hi)) return "";
  return leaf.real ? number(hi + 1)
                   : std::to_string(static_cast<std::uint64_t>(hi) + 1);
}

class ConfigTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(1.0, 1.0, 5);
      c.num_devices = 8;
      c.min_samples = 10;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig valid_config() {
    TrainerConfig c;
    c.rounds = 2;
    c.devices_per_round = 4;
    c.systems.epochs = 1;
    return c;
  }

  // read_config_flags over one "--<flag>=<value>" argument.
  static void parse(const std::string& arg, TrainerConfig& config) {
    const char* argv[] = {"prog", arg.c_str()};
    read_config_flags(CliFlags(2, argv), config);
  }

  // The argument that gives `leaf` the value `value`.
  static std::string arg_for(const ConfigLeaf& leaf, const std::string& value) {
    if (!leaf.spec_flag.empty()) {
      return "--" + leaf.spec_flag + "=" + key_of(leaf) + "=" + value;
    }
    return "--" + std::string(leaf.field.flag) + "=" + value;
  }
};

TEST_F(ConfigTest, ParserRejectsEveryBadFlagValueNamingTheFlag) {
  std::size_t flags = 0;
  for (const ConfigLeaf& leaf : config_leaves()) {
    if (*leaf.field.flag == '\0' && leaf.spec_flag.empty()) continue;
    ++flags;
    const std::string flag =
        "--" + (leaf.spec_flag.empty() ? std::string(leaf.field.flag)
                                       : leaf.spec_flag);
    std::vector<std::string> bad;
    if (leaf.real) bad = {"nan", "inf", "0.5x", "x"};
    if (leaf.count) bad = {"-1", "3x", "1.5", ""};
    if (leaf.path == "transport") bad = {"carrier-pigeon", "serializedx"};
    for (const std::string& value : {below_range(leaf), above_range(leaf)}) {
      if ((leaf.real || leaf.count) && !value.empty()) bad.push_back(value);
    }
    if (leaf.path != "checkpoint.dir") {
      EXPECT_FALSE(bad.empty()) << leaf.path << " has no bad value to test";
    }
    for (const std::string& value : bad) {
      TrainerConfig config = valid_config();
      const std::string arg = arg_for(leaf, value);
      try {
        parse(arg, config);
        ADD_FAILURE() << arg << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
            << arg << ": " << e.what();
      }
    }
  }
  EXPECT_EQ(flags, 19u);  // 15 flags; --faults has 4 keys, --churn 2
}

TEST_F(ConfigTest, ParserReadsEveryFlagIntoItsLeaf) {
  TrainerConfig config = valid_config();
  const char* argv[] = {"prog",           "--rounds=7",
                        "--stragglers=0.9", "--faults=corrupt=0.25",
                        "--churn",        "depart=0.25,arrive=0.5",
                        "--retries=16",   "--transport=serialized",
                        "--checkpoint-dir", "ckpt"};
  read_config_flags(CliFlags(10, argv), config);
  EXPECT_EQ(config.rounds, 7u);
  EXPECT_EQ(config.systems.straggler_fraction, 0.9);
  EXPECT_EQ(config.faults.corrupt, 0.25);
  EXPECT_EQ(config.churn.depart, 0.25);
  EXPECT_EQ(config.churn.arrive, 0.5);
  EXPECT_EQ(config.recovery.max_retries, 16u);
  EXPECT_EQ(name_of(config.transport), "serialized");
  EXPECT_EQ(config.checkpoint.dir, "ckpt");
  EXPECT_EQ(config.systems.epochs, 1u);  // no flag given: left as it was

  // A spec flag replaces its whole sub-struct; a flag the driver does not
  // offer stays unread.
  config.faults.drop = 0.5;
  const char* more[] = {"prog", "--faults=duplicate=0.1", "--mu=3"};
  const CliFlags flags(3, more);
  read_config_flags(flags, config,
                    [](std::string_view flag) { return flag != "mu"; });
  EXPECT_EQ(config.faults.drop, 0.0);
  EXPECT_EQ(config.faults.duplicate, 0.1);
  EXPECT_EQ(config.mu, 0.0);
  EXPECT_EQ(flags.unused(), std::vector<std::string>{"mu"});
}

TEST_F(ConfigTest, TrainerRejectsEveryOutOfRangeLeafBeforeAnyHook) {
  LogisticRegression model(data().input_dim, data().num_classes);
  ASSERT_NO_THROW(Trainer(model, data(), valid_config()));
  std::size_t ranged = 0;
  for (const ConfigLeaf& leaf : config_leaves()) {
    std::vector<std::string> bad;
    if (leaf.real) bad = {"nan", "inf", "-inf"};
    for (const std::string& value : {below_range(leaf), above_range(leaf)}) {
      if ((leaf.real || leaf.count) && !value.empty()) bad.push_back(value);
    }
    if (bad.empty()) continue;
    ++ranged;
    for (const std::string& value : bad) {
      TrainerConfig config = valid_config();
      edit_config_leaf(config, leaf.path, [&](auto& v) {
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_enum_v<T>) {
          v = static_cast<T>(std::stoi(value));
        } else if constexpr (std::is_floating_point_v<T>) {
          v = std::stod(value);
        } else if constexpr (std::is_arithmetic_v<T>) {
          v = static_cast<T>(std::stoull(value));  // exactly, past 2^53
        }
      });
      // The constructor throws, so no observer can be registered, let
      // alone see on_run_start or a round.
      try {
        Trainer trainer(model, data(), config);
        ADD_FAILURE() << leaf.path << "=" << value << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(leaf.path), std::string::npos)
            << e.what();
      }
    }
  }
  // 11 doubles, 9 bounded counts and 3 enums. Among them are the values
  // that once got past the constructor: straggler fraction 2 or NaN,
  // epochs 0 and batch 0 (refused only inside round 1), faults.drop 2
  // (refused after on_run_start), learning rate NaN (ran to the end with
  // every update rejected) and -1 (diverged), and seed 2^53 + 1, which a
  // run header would record as 2^53.
  EXPECT_EQ(ranged, 23u);
}

TEST_F(ConfigTest, RunHeaderConfigHoldsEveryLeaf) {
  TrainerConfig config = valid_config();
  config.transport = make_transport(TransportKind::kSerialized);
  config.seed = std::uint64_t{1} << 53;  // the largest seed it holds exactly
  const JsonValue json = config_to_json(config);
  const std::vector<ConfigLeaf> leaves = config_leaves();
  EXPECT_LE(leaves.size(), 31u) << "a new settable field: is it needed?";
  for (const ConfigLeaf& leaf : leaves) {
    const JsonValue* node = &json;
    std::string rest = leaf.path;
    for (std::size_t dot; (dot = rest.find('.')) != std::string::npos;) {
      node = &node->at(rest.substr(0, dot));
      rest = rest.substr(dot + 1);
    }
    EXPECT_TRUE(node->contains(rest)) << leaf.path;
  }
  EXPECT_EQ(json.at("algorithm").as_string(), "FedProx");
  EXPECT_EQ(json.at("solver").as_string(), "sgd");
  EXPECT_EQ(json.at("transport").as_string(), "serialized");
  EXPECT_EQ(json.at("systems").at("epochs").as_count(), 1u);
  EXPECT_EQ(json.at("seed").as_count(), std::uint64_t{1} << 53);
}

TEST_F(ConfigTest, HelpListsEveryOfferedFlagWithItsDefault) {
  const std::string help = config_flags_help(valid_config());
  for (const ConfigLeaf& leaf : config_leaves()) {
    const std::string name =
        leaf.spec_flag.empty() ? std::string(leaf.field.flag) : key_of(leaf);
    if (!name.empty()) {
      EXPECT_NE(help.find(name), std::string::npos) << name;
    }
  }
  EXPECT_NE(help.find("--rounds"), std::string::npos);
  EXPECT_NE(help.find("(default 2)"), std::string::npos);
  const std::string figure = config_flags_help(
      valid_config(), [](std::string_view flag) { return flag != "mu"; });
  EXPECT_EQ(figure.find("--mu "), std::string::npos);
}

TEST_F(ConfigTest, SpecsParseAndPrintOverTheirEntries) {
  const ChurnConfig churn = parse_churn_config("depart=0.5,arrive=0.25");
  EXPECT_EQ(churn.depart, 0.5);
  EXPECT_EQ(to_string(churn), "arrive=0.25,depart=0.5");
  EXPECT_EQ(to_string(parse_fault_profile(to_string(FaultProfile{
                .drop = 0.5, .delay_ms = 20}))),
            "drop=0.5,delay_ms=20");
  EXPECT_THROW(parse_churn_config("arrive=0.5x"), std::invalid_argument);
  EXPECT_THROW(parse_churn_config("depart=2"), std::invalid_argument);
}

}  // namespace
}  // namespace fed
