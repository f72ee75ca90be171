// Tests for columnar storage: Column, Table, Database, block I/O accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

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

  // Special values keep their exact bits and ordered codes through every
  // storage state: unsealed, sealed (a full block plus a partial tail
  // block), after an append re-opens the tail block, and after a second
  // Seal. Block 0 holds runs of 512 equal values, so it seals RLE-encoded;
  // the tail cycles row by row and seals plain.
  using limits = std::numeric_limits<double>;
  const double specials[] = {-0.0,
                             0.0,
                             limits::infinity(),
                             -limits::infinity(),
                             limits::quiet_NaN(),
                             limits::denorm_min(),
                             limits::lowest(),
                             limits::max()};
  Table table("t", TableSchema({{"f", DataType::kFloat64}}));
  Column* f = table.mutable_column(0);
  std::vector<double> expected;
  auto append = [&](int64_t rows, int64_t run) {
    for (int64_t i = 0; i < rows; ++i) {
      const double v = specials[(i / run) % std::size(specials)];
      f->AppendDouble(v);
      expected.push_back(v);
    }
  };
  auto check = [&](const char* state, bool sealed) {
    SCOPED_TRACE(state);
    ASSERT_EQ(f->num_rows(), static_cast<int64_t>(expected.size()));
    int64_t lo = INT64_MAX;
    int64_t hi = INT64_MIN;
    for (size_t i = 0; i < expected.size(); ++i) {
      const int64_t code = Column::OrderedCodeOf(expected[i]);
      EXPECT_EQ(std::bit_cast<uint64_t>(f->DoubleAt(i)),
                std::bit_cast<uint64_t>(expected[i]))
          << "row " << i;
      EXPECT_EQ(f->NumericAt(i), code) << "row " << i;
      lo = std::min(lo, code);
      hi = std::max(hi, code);
    }
    for (int64_t b = 0; b < f->num_blocks(); ++b) {
      const Column::BlockView view = f->ViewBlock(b, nullptr);
      const std::span<const int64_t> block = view.values;
      ASSERT_EQ(static_cast<int64_t>(block.size()), f->BlockRowCount(b));
      for (size_t i = 0; i < block.size(); ++i) {
        EXPECT_EQ(block[i],
                  Column::OrderedCodeOf(expected[b * kBlockRows + i]))
            << "block " << b << " row " << i;
      }
    }
    if (sealed) {
      ASSERT_TRUE(f->domain().valid);
      EXPECT_EQ(f->domain().min, lo);
      EXPECT_EQ(f->domain().max, hi);
    }
  };

  append(kBlockRows, 512);
  append(5, 1);
  check("unsealed", false);
  ASSERT_TRUE(table.Seal().ok());
  ASSERT_EQ(f->num_encoded_blocks(), 2);
  EXPECT_EQ(f->encoded_block(0)->encoding(), BlockEncoding::kRle);
  check("sealed", true);
  append(7, 1);
  EXPECT_EQ(f->num_encoded_blocks(), 1);  // the tail block was re-opened
  check("tail re-opened", false);
  ASSERT_TRUE(table.Seal().ok());
  EXPECT_EQ(f->num_encoded_blocks(), 2);
  check("sealed again", true);
}

TEST(ColumnTest, BlockReadChargesIo) {
  Column col(DataType::kInt64);
  const int64_t rows = kBlockRows * 2 + 100;
  for (int64_t i = 0; i < rows; ++i) col.AppendInt(i);
  EXPECT_EQ(col.num_blocks(), 3);
  EXPECT_EQ(col.BlockRowCount(0), kBlockRows);
  EXPECT_EQ(col.BlockRowCount(2), 100);

  // Issuing a read charges it; viewing the values charges nothing more.
  IoStats io;
  col.IssueRead(0, &io);
  col.IssueRead(2, &io);
  EXPECT_EQ(io.blocks_read, 2);
  EXPECT_EQ(io.rows_scanned, kBlockRows + 100);
  EXPECT_EQ(col.ViewBlock(0, &io).values.size(),
            static_cast<size_t>(kBlockRows));
  const Column::BlockView view = col.ViewBlock(2, &io);
  const std::span<const int64_t> block = view.values;
  EXPECT_EQ(io.blocks_read, 2);
  EXPECT_EQ(io.rows_scanned, kBlockRows + 100);
  EXPECT_EQ(block.size(), 100u);
  EXPECT_EQ(block[0], kBlockRows * 2);
}

TEST(ColumnTest, NullIoStatsSkipsAccounting) {
  Column col(DataType::kInt64);
  col.AppendInt(1);
  col.IssueRead(0, nullptr);  // must not crash
  EXPECT_EQ(col.ViewBlock(0, nullptr).values.size(), 1u);
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
  a.AddBlock(100);
  IoStats b;
  b.AddBlock(50);
  a += b;
  EXPECT_EQ(a.blocks_read, 2);
  EXPECT_EQ(a.rows_scanned, 150);
}

}  // namespace
}  // namespace bytecard::minihouse
