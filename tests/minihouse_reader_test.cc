// Single-stage vs multi-stage reader: correctness equivalence and the I/O
// profiles that drive the paper's materialization strategy (§5.1, Fig. 6a).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "minihouse/reader.h"
#include "minihouse/table.h"

namespace bytecard::minihouse {
namespace {

// A 3-column table spanning several blocks where column "sel" is highly
// selective and clustered (early blocks only), so multi-stage can skip
// blocks.
std::unique_ptr<Table> MakeTable(int64_t rows) {
  TableSchema schema({{"sel", DataType::kInt64},
                      {"mid", DataType::kInt64},
                      {"payload", DataType::kInt64}});
  auto table = std::make_unique<Table>("t", schema);
  Rng rng(5);
  for (int64_t i = 0; i < rows; ++i) {
    // "sel" == 1 only in the first half-block worth of rows.
    table->mutable_column(0)->AppendInt(i < kBlockRows / 2 ? 1 : 0);
    table->mutable_column(1)->AppendInt(rng.UniformInt(0, 9));
    table->mutable_column(2)->AppendInt(i);
  }
  EXPECT_TRUE(table->Seal().ok());
  return table;
}

Conjunction SelectiveFilter() {
  ColumnPredicate pred;
  pred.column = 0;
  pred.column_name = "sel";
  pred.op = CompareOp::kEq;
  pred.operand = 1;
  return {pred};
}

TEST(ReaderTest, BothReadersAgreeOnResults) {
  auto table = MakeTable(kBlockRows * 4);
  const Conjunction filters = SelectiveFilter();

  ScanOptions single;
  single.reader = ReaderKind::kSingleStage;
  ScanOptions multi;
  multi.reader = ReaderKind::kMultiStage;

  IoStats io1;
  IoStats io2;
  const ScanResult r1 = ScanTable(*table, filters, {2}, single, &io1);
  const ScanResult r2 = ScanTable(*table, filters, {2}, multi, &io2);

  EXPECT_EQ(r1.row_ids, r2.row_ids);
  ASSERT_EQ(r1.materialized.size(), 1u);
  EXPECT_EQ(r1.materialized[0], r2.materialized[0]);
  EXPECT_EQ(r1.rows_matched(), kBlockRows / 2);
}

TEST(ReaderTest, MultiStageSavesIoOnSelectiveFilters) {
  auto table = MakeTable(kBlockRows * 8);
  const Conjunction filters = SelectiveFilter();

  IoStats io_single;
  IoStats io_multi;
  ScanOptions single;
  single.reader = ReaderKind::kSingleStage;
  single.features.prune_blocks = false;  // counts below model unpruned I/O
  ScanOptions multi;
  multi.reader = ReaderKind::kMultiStage;
  multi.features.prune_blocks = false;
  ScanTable(*table, filters, {1, 2}, single, &io_single);
  ScanTable(*table, filters, {1, 2}, multi, &io_multi);

  // Single-stage: 3 columns x 8 blocks = 24. Multi-stage: filter column over
  // all 8 blocks + 3 columns over the single surviving block = 11.
  EXPECT_EQ(io_single.blocks_read, 24);
  EXPECT_EQ(io_multi.blocks_read, 8 + 3);
}

TEST(ReaderTest, MultiStageCostsMoreOnNonSelectiveFilters) {
  auto table = MakeTable(kBlockRows * 4);
  // Filter matching everything: "sel >= 0".
  ColumnPredicate pred;
  pred.column = 0;
  pred.op = CompareOp::kGe;
  pred.operand = 0;
  const Conjunction filters = {pred};

  IoStats io_single;
  IoStats io_multi;
  ScanOptions single;
  single.reader = ReaderKind::kSingleStage;
  ScanOptions multi;
  multi.reader = ReaderKind::kMultiStage;
  ScanTable(*table, filters, {2}, single, &io_single);
  ScanTable(*table, filters, {2}, multi, &io_multi);

  // The regression the paper's dynamic reader selection avoids: with nothing
  // eliminated, multi-stage re-reads for materialization.
  EXPECT_GT(io_multi.blocks_read, io_single.blocks_read);
}

TEST(ReaderTest, FilterOrderControlsStageSequence) {
  auto table = MakeTable(kBlockRows * 4);
  // Two filters: a useless one on "mid" and the selective one on "sel".
  ColumnPredicate useless;
  useless.column = 1;
  useless.op = CompareOp::kGe;
  useless.operand = 0;
  Conjunction filters = {useless, SelectiveFilter()[0]};

  // Unpruned I/O: zone maps would skip the same blocks under either order.
  ScanOptions selective_first;
  selective_first.reader = ReaderKind::kMultiStage;
  selective_first.filter_order = {1, 0};
  selective_first.features.prune_blocks = false;
  ScanOptions useless_first;
  useless_first.reader = ReaderKind::kMultiStage;
  useless_first.filter_order = {0, 1};
  useless_first.features.prune_blocks = false;

  IoStats io_good;
  IoStats io_bad;
  const ScanResult good =
      ScanTable(*table, filters, {2}, selective_first, &io_good);
  const ScanResult bad =
      ScanTable(*table, filters, {2}, useless_first, &io_bad);

  EXPECT_EQ(good.row_ids, bad.row_ids);  // order never changes results
  EXPECT_LT(io_good.blocks_read, io_bad.blocks_read);
}

TEST(ReaderTest, EmptyFiltersFallBackToSingleStage) {
  auto table = MakeTable(kBlockRows);
  ScanOptions multi;
  multi.reader = ReaderKind::kMultiStage;
  IoStats io;
  const ScanResult result = ScanTable(*table, {}, {0}, multi, &io);
  EXPECT_EQ(result.rows_matched(), table->num_rows());
}

TEST(ReaderTest, EmptyTable) {
  TableSchema schema({{"a", DataType::kInt64}});
  Table table("empty", schema);
  ASSERT_TRUE(table.Seal().ok());
  IoStats io;
  const ScanResult result = ScanTable(table, {}, {0}, ScanOptions(), &io);
  EXPECT_EQ(result.rows_matched(), 0);
  EXPECT_EQ(io.blocks_read, 0);
}

TEST(ReaderTest, OutputColumnAlsoFilterColumnNotDoubleCharged) {
  auto table = MakeTable(kBlockRows);
  const Conjunction filters = SelectiveFilter();
  IoStats io;
  ScanOptions single;
  single.reader = ReaderKind::kSingleStage;
  ScanTable(*table, filters, {0}, single, &io);  // output == filter column
  EXPECT_EQ(io.blocks_read, 1);  // one block, one column, read once
}

}  // namespace
}  // namespace bytecard::minihouse
