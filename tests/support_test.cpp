#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/log.h"
#include "support/threadpool.h"

namespace fed {
namespace {

// ---- CliFlags ----

TEST(CliFlags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--rounds=50", "--mu", "0.1", "--verbose"};
  CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_int("rounds", 0), 50);
  EXPECT_DOUBLE_EQ(flags.get_double("mu", 0.0), 0.1);
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(CliFlags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, argv);
  EXPECT_EQ(flags.get_int("rounds", 7), 7);
  EXPECT_EQ(flags.get_string("name", "x"), "x");
  EXPECT_FALSE(flags.get_bool("flag", false));
}

TEST(CliFlags, MalformedValueThrows) {
  const char* argv[] = {"prog",         "--rounds=abc",  "--crash-at=5,x",
                        "--mus=1e999",  "--seed=2x",     "--mu=0.5x",
                        "--shards=-1",  "--retries=-1",  "--epochs=3"};
  CliFlags flags(9, argv);
  EXPECT_THROW(flags.get_int("rounds", 0), std::invalid_argument);
  // Trailing characters are refused, not cut off ("2x" is not 2).
  EXPECT_THROW(flags.get_int("seed", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_double("mu", 0.0), std::invalid_argument);
  // A count flag refuses a negative value before the cast to size_t.
  for (const char* count : {"--shards=-1", "--retries=-1", "--epochs=-3"}) {
    const char* one[] = {"prog", count};
    TrainerConfig config;
    EXPECT_THROW(read_config_flags(CliFlags(2, one), config),
                 std::invalid_argument)
        << count;
  }
  EXPECT_EQ(flags.get_int("epochs", 20), 3);
  EXPECT_FALSE(parse_integer("1.5").has_value());
  EXPECT_FALSE(parse_number("").has_value());
  // A list entry that is no number, or out of range, is the same error.
  EXPECT_THROW(flags.get_double_list("crash-at", {}), std::invalid_argument);
  EXPECT_THROW(flags.get_double_list("mus", {}), std::invalid_argument);
}

TEST(CliFlags, DoubleListParsing) {
  const char* argv[] = {"prog", "--mus=0,0.01,1"};
  CliFlags flags(2, argv);
  const auto mus = flags.get_double_list("mus", {});
  ASSERT_EQ(mus.size(), 3u);
  EXPECT_DOUBLE_EQ(mus[1], 0.01);
}

TEST(CliFlags, PositionalAndUnused) {
  const char* argv[] = {"prog", "data.csv", "--typo=1"};
  CliFlags flags(3, argv);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "data.csv");
  EXPECT_EQ(flags.unused().size(), 1u);
}

TEST(CliFlags, NegativeNumberAsValue) {
  const char* argv[] = {"prog", "--mu=-0.5"};
  CliFlags flags(2, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("mu", 0.0), -0.5);
}

// ---- CSV ----

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/fedprox_test_csv/out.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.write_row({"1", "x,y"});
    csv.write_row({"2.5", "3"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");  // comma cell gets quoted
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,3");
  std::filesystem::remove_all("/tmp/fedprox_test_csv");
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvWriter csv("/tmp/fedprox_test_csv2/out.csv", {"a", "b"});
  EXPECT_THROW(csv.write_row({"only-one"}), std::invalid_argument);
  std::filesystem::remove_all("/tmp/fedprox_test_csv2");
}

TEST(Csv, EscapesQuotes) {
  const std::string path = "/tmp/fedprox_test_csv3/out.csv";
  {
    CsvWriter csv(path, {"a"});
    csv.write_row({"say \"hi\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"say \"\"hi\"\"\"");
  std::filesystem::remove_all("/tmp/fedprox_test_csv3");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.add_row({"long-name", "1"});
  t.add_row({"x", "22"});
  const std::string render = t.render();
  EXPECT_NE(render.find("long-name  1"), std::string::npos);
  EXPECT_NE(render.find("---------"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
}

// ---- ThreadPool ----

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(100);
  pool.parallel_for(100, [&](std::size_t i) { visits[i]++; });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   8,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SeveralThrowingIndicesRunEveryIndexAndRethrowTheLowest) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> visits(kN);
  const auto fn = [&](std::size_t i) {
    visits[i]++;
    if (i == 7 || i == 64 || i == 199) {
      throw std::runtime_error(std::to_string(i));
    }
  };
  for (int rep = 0; rep < 20; ++rep) {
    for (auto& v : visits) v = 0;
    try {
      pool.parallel_for(kN, fn);
      ADD_FAILURE() << "no exception rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7");
    }
    for (auto& v : visits) ASSERT_EQ(v.load(), 1);
  }
  // The pool stays usable after a failed call.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPoolTest, FreeParallelForRunsOnTheCallerWithoutAPoolOrASecondIndex) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const auto record = [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  };
  parallel_for(nullptr, 5, record);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  ThreadPool pool(2);
  order.clear();
  parallel_for(&pool, 1, record);
  EXPECT_EQ(order, (std::vector<std::size_t>{0}));
  std::vector<std::atomic<int>> visits(50);
  parallel_for(&pool, visits.size(), [&](std::size_t i) { visits[i]++; });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, TenThousandBackToBackCalls) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  std::size_t expected = 0;
  for (std::size_t call = 0; call < 10000; ++call) {
    const std::size_t n = call % 5;  // includes empty calls
    expected += n;
    pool.parallel_for(n, [&](std::size_t) { ++total; });
    ASSERT_EQ(total.load(), expected) << "call " << call;
  }
}

TEST(ThreadPoolTest, ConcurrentCallersOnASharedPool) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 50;
  const auto caller = [&pool](std::vector<int>& visits) {
    for (int call = 0; call < 300; ++call) {
      pool.parallel_for(kN, [&](std::size_t i) { visits[i]++; });
    }
  };
  std::vector<int> a(kN, 0), b(kN, 0);
  std::thread ta(caller, std::ref(a));
  std::thread tb(caller, std::ref(b));
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(a[i], 300);
    EXPECT_EQ(b[i], 300);
  }
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

// ---- Logging ----

TEST(Log, LevelFiltering) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kOff);
  log_info() << "should not crash or print";
  set_log_level(original);
  SUCCEED();
}

}  // namespace
}  // namespace fed
