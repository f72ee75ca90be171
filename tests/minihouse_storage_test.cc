// Tests for columnar storage: Column, Table, Database, block I/O accounting.

#include <gtest/gtest.h>

#include <chrono>

#include "minihouse/column.h"
#include "minihouse/database.h"
#include "minihouse/io_stats.h"
#include "minihouse/table.h"

namespace bytecard::minihouse {
namespace {

using namespace std::chrono_literals;

TEST(ColumnTest, IntColumnBasics) {
  Column col(DataType::kInt64);
  for (int64_t i = 0; i < 10; ++i) col.AppendInt(i * 2);
  EXPECT_EQ(col.num_rows(), 10);
  EXPECT_EQ(col.NumericAt(3), 6);
  EXPECT_EQ(col.DoubleAt(3), 6.0);
}

TEST(ColumnTest, StringColumnInternsDictionary) {
  Column col(DataType::kString);
  col.AppendString("beta");
  col.AppendString("alpha");
  col.AppendString("beta");
  EXPECT_EQ(col.num_rows(), 3);
  EXPECT_EQ(col.dictionary().size(), 2u);
  EXPECT_EQ(col.NumericAt(0), col.NumericAt(2));
  EXPECT_NE(col.NumericAt(0), col.NumericAt(1));
}

TEST(ColumnTest, PresortedDictionaryPreservesOrder) {
  Column col(DataType::kString);
  col.SetDictionary({"AA", "BB", "CC"});
  col.AppendCode(2);
  col.AppendCode(0);
  EXPECT_EQ(col.NumericAt(0), 2);
  EXPECT_EQ(col.NumericAt(1), 0);
  // Codes ordered like the strings: "AA" < "CC".
  EXPECT_LT(col.NumericAt(1), col.NumericAt(0));
}

TEST(ColumnTest, OrderedCodePreservesDoubleOrder) {
  const double values[] = {-1e9, -3.5, -0.0, 0.0, 1e-12, 2.25, 7e18};
  for (size_t i = 0; i + 1 < std::size(values); ++i) {
    EXPECT_LE(Column::OrderedCodeOf(values[i]),
              Column::OrderedCodeOf(values[i + 1]))
        << values[i] << " vs " << values[i + 1];
  }
}

TEST(ColumnTest, FloatColumnNumericViewMatchesOrderedCode) {
  Column col(DataType::kFloat64);
  col.AppendDouble(1.5);
  col.AppendDouble(-2.0);
  EXPECT_EQ(col.NumericAt(0), Column::OrderedCodeOf(1.5));
  EXPECT_EQ(col.NumericAt(1), Column::OrderedCodeOf(-2.0));
  EXPECT_GT(col.NumericAt(0), col.NumericAt(1));
}

TEST(ColumnTest, BlockReadChargesIo) {
  Column col(DataType::kInt64);
  const int64_t rows = kBlockRows * 2 + 100;
  for (int64_t i = 0; i < rows; ++i) col.AppendInt(i);
  EXPECT_EQ(col.num_blocks(), 3);
  EXPECT_EQ(col.BlockRowCount(0), kBlockRows);
  EXPECT_EQ(col.BlockRowCount(2), 100);

  // Issuing a read charges it; fetching the values charges nothing more.
  IoStats io;
  col.IssueRead(0, &io);
  col.IssueRead(2, &io);
  EXPECT_EQ(io.blocks_read, 2);
  EXPECT_EQ(io.rows_scanned, kBlockRows + 100);
  std::vector<int64_t> block;
  col.FetchBlock(0, &block, &io);
  EXPECT_EQ(block.size(), static_cast<size_t>(kBlockRows));
  col.FetchBlock(2, &block, &io);
  EXPECT_EQ(io.blocks_read, 2);
  EXPECT_EQ(io.rows_scanned, kBlockRows + 100);
  EXPECT_EQ(block.size(), 100u);
  EXPECT_EQ(block[0], kBlockRows * 2);
}

TEST(ColumnTest, NullIoStatsSkipsAccounting) {
  Column col(DataType::kInt64);
  col.AppendInt(1);
  std::vector<int64_t> block;
  col.IssueRead(0, nullptr);  // must not crash
  col.FetchBlock(0, &block, nullptr);
  EXPECT_EQ(block.size(), 1u);
}

TEST(ColumnTest, IssueReadReturnsLandingTimeWithoutWaiting) {
  Column col(DataType::kInt64);
  col.AppendInt(1);
  // Detached: no simulated storage, so the read has already landed.
  EXPECT_EQ(col.IssueRead(0, nullptr), std::chrono::steady_clock::time_point{});

  StorageProfile profile;
  profile.block_latency_nanos = std::chrono::nanoseconds(10s).count();
  col.AttachStorage(&profile, nullptr);
  const auto before = std::chrono::steady_clock::now();
  const auto landed = col.IssueRead(0, nullptr);
  const auto after = std::chrono::steady_clock::now();
  EXPECT_GE(landed - before, 10s);
  EXPECT_LT(after - before, 10s);  // issuing never waits
}

TEST(TableTest, SealValidatesRowCounts) {
  TableSchema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Table table("t", schema);
  table.mutable_column(0)->AppendInt(1);
  table.mutable_column(1)->AppendInt(2);
  ASSERT_TRUE(table.Seal().ok());
  EXPECT_EQ(table.num_rows(), 1);

  table.mutable_column(0)->AppendInt(3);  // now mismatched
  EXPECT_FALSE(table.Seal().ok());
}

TEST(TableTest, FindColumn) {
  TableSchema schema({{"x", DataType::kInt64}, {"y", DataType::kFloat64}});
  Table table("t", schema);
  EXPECT_TRUE(table.FindColumn("y").ok());
  EXPECT_FALSE(table.FindColumn("z").ok());
  EXPECT_EQ(table.FindColumnIndex("x"), 0);
  EXPECT_EQ(table.FindColumnIndex("nope"), -1);
}

TEST(DatabaseTest, AddAndFind) {
  Database db;
  auto table = std::make_unique<Table>(
      "t1", TableSchema({{"a", DataType::kInt64}}));
  table->mutable_column(0)->AppendInt(5);
  ASSERT_TRUE(table->Seal().ok());
  ASSERT_TRUE(db.AddTable(std::move(table)).ok());

  EXPECT_TRUE(db.FindTable("t1").ok());
  EXPECT_FALSE(db.FindTable("t2").ok());
  EXPECT_EQ(db.num_tables(), 1);
  EXPECT_EQ(db.TotalRows(), 1);
  EXPECT_EQ(db.TableNames(), std::vector<std::string>{"t1"});
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database db;
  auto t1 = std::make_unique<Table>("t", TableSchema());
  auto t2 = std::make_unique<Table>("t", TableSchema());
  ASSERT_TRUE(db.AddTable(std::move(t1)).ok());
  const Status status = db.AddTable(std::move(t2));
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(IoStatsTest, Accumulates) {
  IoStats a;
  a.AddBlock(100, 8);
  IoStats b;
  b.AddBlock(50, 8);
  a += b;
  EXPECT_EQ(a.blocks_read, 2);
  EXPECT_EQ(a.rows_scanned, 150);
  EXPECT_EQ(a.bytes_read, 150 * 8);
}

}  // namespace
}  // namespace bytecard::minihouse
