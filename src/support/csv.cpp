#include "support/csv.h"

#include <filesystem>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace fed {

void ensure_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    throw std::runtime_error("cannot create directory " + path + ": " +
                             ec.message());
  }
}

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : path_(path), columns_(header.size()) {
  auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) ensure_directory(parent.string());
  out_.open(path, std::ios::trunc);
  if (!out_) throw std::runtime_error("cannot open " + path + " for writing");
  write_row(header);
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  if (cells.size() != columns_) {
    throw std::invalid_argument("CSV row has " + std::to_string(cells.size()) +
                                " cells, expected " + std::to_string(columns_));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
  out_.flush();
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("table row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::fmt(double v, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << v;
  return ss.str();
}

std::string TablePrinter::render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) width[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  }
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out << (i ? "  " : "") << std::left << std::setw(static_cast<int>(width[i]))
          << row[i];
    }
    out << '\n';
  };
  emit(header_);
  std::vector<std::string> rule;
  for (std::size_t w : width) rule.push_back(std::string(w, '-'));
  emit(rule);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace fed
