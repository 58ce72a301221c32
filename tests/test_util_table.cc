/** @file Tests for table rendering. */

#include <sstream>

#include <gtest/gtest.h>

#include "util/table.hh"

using pgss::util::Table;

TEST(Table, AlignsColumns)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"bbbb", "22.5"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("bbbb"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, RowCountTracksRows)
{
    Table t;
    t.setHeader({"x"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({"1"});
    t.addRow({"2"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableDeathTest, MismatchedRowWidthPanics)
{
    Table t;
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Table, EmptyTablePrintsNothing)
{
    Table t;
    std::ostringstream os;
    t.print(os);
    EXPECT_TRUE(os.str().empty());
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmtPercent(0.1234, 1), "12.3%");
    EXPECT_EQ(Table::fmtCount(1234567), "1,234,567");
    EXPECT_EQ(Table::fmtCount(999), "999");
    EXPECT_EQ(Table::fmtCount(0), "0");
    EXPECT_EQ(Table::fmtSci(123000.0, 1), "1.2e+05");
}
