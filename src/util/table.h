#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace grunt {

/// Renders paper-style ASCII tables to a stream. Benches use this to print
/// the same rows the paper's tables report.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must have the same number of cells as the header.
  void AddRow(std::vector<std::string> cells);

  /// Convenience cell formatters.
  static std::string Num(double v, int precision = 1);
  static std::string Int(std::int64_t v);

  void Print(std::ostream& os) const;
  std::string ToString() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace grunt
