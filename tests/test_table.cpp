#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace grunt {
namespace {

TEST(Table, RejectsEmptyHeaderAndMismatchedRows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
  EXPECT_NO_THROW(t.AddRow({"1", "2"}));
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, FormattersRenderNumbers) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(3.14159, 0), "3");
  EXPECT_EQ(Table::Int(-42), "-42");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.AddRow({"long-name-here", "1"});
  t.AddRow({"x", "22"});
  const std::string out = t.ToString();
  // Every data line has the same width (padded to the widest cell).
  std::istringstream is(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
  EXPECT_NE(out.find("long-name-here"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
}

}  // namespace
}  // namespace grunt
