#include "util/table.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace grunt {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::AddRow(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::AddRow: cell count mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::Int(std::int64_t v) { return std::to_string(v); }

void Table::Print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << " " << std::left << std::setw(static_cast<int>(widths[c]))
         << row[c] << " |";
    }
    os << "\n";
  };
  auto print_sep = [&] {
    os << "+";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << "+";
    }
    os << "\n";
  };
  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

std::string Table::ToString() const {
  std::ostringstream os;
  Print(os);
  return os.str();
}

}  // namespace grunt
