// CSV + aligned-table writers for experiment output. Bench drivers write
// one CSV per figure (so results can be re-plotted) and print a readable
// table to stdout (the paper's "rows/series").

#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace fed {

// Streams rows to a CSV file. Values are quoted only when necessary.
class CsvWriter {
 public:
  // Creates/truncates `path`; parent directories are created if missing.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  void write_row(const std::vector<std::string>& cells);

  const std::string& path() const { return path_; }

 private:
  static std::string escape(const std::string& cell);

  std::string path_;
  std::ofstream out_;
  std::size_t columns_;
};

// Accumulates rows and prints them as an aligned monospace table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  // Renders to the given stream (default precision already applied by
  // the caller; this class only aligns).
  std::string render() const;

  static std::string fmt(double v, int precision = 4);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Ensures a directory exists (recursively). Throws on failure.
void ensure_directory(const std::string& path);

}  // namespace fed
