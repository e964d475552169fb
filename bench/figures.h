// The paper's figures (and two ablations) as rows of one table, and the
// loop that runs a row. Each training driver in bench/CMakeLists.txt is
// figure_main.cpp built with its row's name; the tests take their
// configs from the same rows.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

namespace fed::bench {

// The variants that share one series table and one CSV dataset tag
// (e.g. "synthetic_iid@50% stragglers").
struct Section {
  std::string tag;
  std::vector<VariantSpec> specs;
};

// A figure's output beyond its series tables and CSV.
class Report {
 public:
  Report() = default;
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;
  virtual ~Report() = default;
  // Called after each section's series tables.
  virtual void section(const std::string& tag,
                       const std::vector<VariantResult>& results) = 0;
  virtual void finish() {}  // after the last section
};

struct Figure {
  std::string name;  // driver binary and CSV file name
  std::string title;
  std::string description;
  std::vector<std::string> workloads;
  std::vector<Section> (*sections)(const Workload&, const BenchOptions&);
  std::vector<Metric> metrics;  // series tables printed per section
  std::unique_ptr<Report> (*report)(const BenchOptions&) = nullptr;
};

const std::vector<Figure>& figures();
// The row named `name`; throws std::out_of_range for an unknown name.
const Figure& figure(const std::string& name);

// Banner, CSV, --trace-out/--metrics-out capture, then every section of
// every workload: run the variants, print the series, append the CSV
// rows. Returns the process exit code.
int run_figure(const Figure& figure, const BenchOptions& options);

}  // namespace fed::bench
