#include "common/table.hpp"

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/check.hpp"

namespace asyncdr {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  ASYNCDR_EXPECTS(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  ASYNCDR_EXPECTS(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::left << std::setw(static_cast<int>(widths[c]))
         << row[c];
    }
    os << " |\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|" : "|") << std::string(widths[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

// asyncdr-sema: allow(DR004) Table is a designated report renderer; print()
// existing so front-ends don't each reimplement the flush.
void Table::print() const { std::cout << render() << std::flush; }

std::string Table::to_cell(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << v;
  return os.str();
}

std::string Table::to_cell(std::size_t v) { return std::to_string(v); }
std::string Table::to_cell(int v) { return std::to_string(v); }
std::string Table::to_cell(long v) { return std::to_string(v); }
std::string Table::to_cell(unsigned v) { return std::to_string(v); }
std::string Table::to_cell(long long v) { return std::to_string(v); }
std::string Table::to_cell(unsigned long long v) { return std::to_string(v); }

}  // namespace asyncdr
