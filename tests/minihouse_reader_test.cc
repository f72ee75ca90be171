// Single-stage vs multi-stage reader: correctness equivalence and the I/O
// profiles that drive the paper's materialization strategy (§5.1, Fig. 6a).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bloom.h"
#include "common/rng.h"
#include "minihouse/decode_cache.h"
#include "minihouse/reader.h"
#include "minihouse/table.h"

namespace bytecard::minihouse {
namespace {

using namespace std::chrono_literals;

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
  // With a 50 ms block latency: the output column is fetched from the
  // filter's read, so the scan neither charges nor waits out a second read.
  StorageProfile profile;
  profile.block_latency_nanos = std::chrono::nanoseconds(50ms).count();
  auto table = MakeTable(kBlockRows);
  table->AttachStorage(&profile, nullptr);
  const Conjunction filters = SelectiveFilter();
  IoStats io;
  ScanOptions single;
  single.reader = ReaderKind::kSingleStage;
  const auto start = std::chrono::steady_clock::now();
  ScanTable(*table, filters, {0}, single, &io);  // output == filter column
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(io.blocks_read, 1);  // one block, one column, read once
  EXPECT_GE(elapsed, 50ms);
  EXPECT_LT(elapsed, 90ms);
}

// The single-stage chain issues one read per distinct column a block needs:
// a column with two predicates is read once, and so is a SIP column that is
// also filtered — so arming SIP on a probe scan, whose SIP column is an
// output column, adds no read.
TEST(ReaderTest, SingleStageReadsEachColumnOnce) {
  auto table = MakeTable(kBlockRows * 2);
  ColumnPredicate mid_low;
  mid_low.column = 1;
  mid_low.op = CompareOp::kGe;
  mid_low.operand = 2;
  ColumnPredicate mid_high = mid_low;
  mid_high.op = CompareOp::kLe;
  mid_high.operand = 7;
  const Conjunction range = {mid_low, mid_high};
  ScanOptions single;
  single.reader = ReaderKind::kSingleStage;
  single.features.prune_blocks = false;
  ScanOptions multi = single;
  multi.reader = ReaderKind::kMultiStage;

  IoStats io;
  const ScanResult one_pass = ScanTable(*table, range, {2}, single, &io);
  EXPECT_EQ(io.blocks_read, 2 * 2);  // "mid" and "payload", once per block
  EXPECT_EQ(one_pass.row_ids,
            ScanTable(*table, range, {2}, multi, nullptr).row_ids);

  BloomFilter bloom(64);
  for (int64_t k = 0; k < 5; ++k) bloom.Add(k);
  single.sip = SemiJoinFilter{1, &bloom};
  multi.sip = single.sip;
  IoStats sip_io;
  const ScanResult sipped = ScanTable(*table, range, {1, 2}, single, &sip_io);
  EXPECT_EQ(sip_io.blocks_read, 2 * 2);
  EXPECT_EQ(sipped.row_ids,
            ScanTable(*table, range, {1, 2}, multi, nullptr).row_ids);
  EXPECT_LT(sipped.rows_matched(), one_pass.rows_matched());
}

// The multi-stage chain gives each filter column one stage, at its first
// predicate's place in the filter order, and applies all of that column's
// predicates there: `mid >= 2 AND mid <= 7` reads what `mid BETWEEN 2 AND 7`
// reads.
TEST(ReaderTest, MultiStageReadsEachFilterColumnOnce) {
  auto table = MakeTable(kBlockRows * 2);
  ColumnPredicate mid_low;
  mid_low.column = 1;
  mid_low.op = CompareOp::kGe;
  mid_low.operand = 2;
  ColumnPredicate mid_high = mid_low;
  mid_high.op = CompareOp::kLe;
  mid_high.operand = 7;
  ColumnPredicate mid_between = mid_low;
  mid_between.op = CompareOp::kBetween;
  mid_between.operand2 = 7;
  ScanOptions multi;
  multi.reader = ReaderKind::kMultiStage;
  multi.features.prune_blocks = false;

  IoStats range_io;
  IoStats between_io;
  const ScanResult range =
      ScanTable(*table, {mid_low, mid_high}, {2}, multi, &range_io);
  const ScanResult between =
      ScanTable(*table, {mid_between}, {2}, multi, &between_io);
  EXPECT_EQ(range.rows_matched(), 4917);
  EXPECT_EQ(range.row_ids, between.row_ids);
  EXPECT_EQ(range.materialized, between.materialized);
  // "mid" in its stage, then "mid" and "payload" to materialize, per block.
  EXPECT_EQ(range_io.blocks_read, 2 * 3);
  EXPECT_EQ(between_io.blocks_read, 2 * 3);

  // With "sel" ordered between them, the "mid" stage runs first and holds
  // both range predicates; "sel" empties block 1 in the second stage, so
  // only block 0 reads its three columns to materialize.
  IoStats split_io;
  const Conjunction split = {mid_low, SelectiveFilter()[0], mid_high};
  multi.filter_order = {0, 1, 2};
  const ScanResult split_result =
      ScanTable(*table, split, {2}, multi, &split_io);
  EXPECT_EQ(split_result.rows_matched(),
            ScanTable(*table, split, {2}, ScanOptions(), nullptr)
                .rows_matched());
  EXPECT_EQ(split_io.blocks_read, 2 + 2 + 3);
}

// Read-ahead overlaps the reads of up to kReadAheadBlocks blocks: a scan of
// N blocks whose chains have S stages waits at least
// ceil(N / kReadAheadBlocks) * S block latencies, since every read waits its
// full latency from its issue, and well under one latency per block and
// stage, the least a scan that reads one block at a time waits. The upper
// bounds leave room for sanitizer builds.
TEST(ReaderTest, ReadAheadOverlapsLatency) {
  StorageProfile profile;
  profile.block_latency_nanos = std::chrono::nanoseconds(20ms).count();
  constexpr int64_t kBlocks = 17;
  auto table = MakeTable(kBlockRows * kBlocks);
  table->AttachStorage(&profile, nullptr);
  // Predicates every row passes: no block is pruned and none dies.
  ColumnPredicate mid_any;
  mid_any.column = 1;
  mid_any.op = CompareOp::kGe;
  mid_any.operand = 0;
  ColumnPredicate sel_any = mid_any;
  sel_any.column = 0;
  const int64_t rounds = (kBlocks + kReadAheadBlocks - 1) / kReadAheadBlocks;

  ScanOptions single;
  single.reader = ReaderKind::kSingleStage;
  IoStats io_single;
  auto start = std::chrono::steady_clock::now();
  const ScanResult one_pass =
      ScanTable(*table, {mid_any}, {0, 2}, single, &io_single);
  const auto single_elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(one_pass.rows_matched(), table->num_rows());
  EXPECT_EQ(io_single.blocks_read, kBlocks * 3);
  EXPECT_GE(single_elapsed, rounds * 20ms);
  EXPECT_LT(single_elapsed, 255ms);  // 3/4 of one latency per block

  ScanOptions multi;
  multi.reader = ReaderKind::kMultiStage;
  IoStats io_multi;
  start = std::chrono::steady_clock::now();
  const ScanResult staged =
      ScanTable(*table, {mid_any, sel_any}, {2}, multi, &io_multi);
  const auto multi_elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(staged.row_ids, one_pass.row_ids);
  // Two filter stages, then three columns to materialize, over 17 blocks.
  EXPECT_EQ(io_multi.blocks_read, kBlocks * 2 + kBlocks * 3);
  EXPECT_GE(multi_elapsed, rounds * 3 * 20ms);
  EXPECT_LT(multi_elapsed, 765ms);  // 3/4 of one latency per block and stage

  // One block: no stage is issued before the previous one has run, so its
  // three stages wait in turn.
  auto one_block = MakeTable(kBlockRows);
  one_block->AttachStorage(&profile, nullptr);
  start = std::chrono::steady_clock::now();
  ScanTable(*one_block, {mid_any, sel_any}, {2}, multi, nullptr);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 3 * 20ms);
}

// --- Reader identity ---------------------------------------------------------
// One query over every reader configuration: single- and multi-stage, SIP on
// and off, zone-map pruning on and off, dop 1 and 4. Every configuration must
// return the row-wise oracle's rows, and its IoStats must equal the values
// pinned in kIdentityIo.
//
// The table has 19 full blocks plus an appended partial tail (block 19):
// - blocks 0-7: no row passes SIP ("k" holds a key the Bloom filter
//   rejects) or the first multi-stage filter ("g" alternates 0 and 9 against
//   BETWEEN 3 AND 5, which its zone map cannot rule out), so their chains
//   end at their first stage while later blocks' reads are in flight;
// - blocks 8-15 and 17: "f" >= 2000 against f < 1000, so zone maps prune
//   them, eight in a row;
// - blocks 16, 18 and 19 keep some rows; with pruning on, the read-ahead
//   admits block 18 past the pruned block 17.
// The appended tail re-opens the first Seal's partial block 19, and the
// second Seal re-encodes it. dop 4 splits the 20 blocks into five 4-block
// morsels.

constexpr int64_t kIdentityFullBlocks = 19;
constexpr int64_t kIdentityTailRows = 1500;
enum IdentityColumn { kKey = 0, kF = 1, kG = 2, kPlain = 3, kRuns = 4 };

BloomFilter IdentityBloom() {
  BloomFilter bloom(200);
  for (int64_t k = 0; k < 200; ++k) bloom.Add(k);
  return bloom;
}

int64_t RejectedKey(const BloomFilter& bloom) {
  int64_t key = 1000;
  while (bloom.MayContain(key)) ++key;
  return key;
}

void AppendIdentityRows(Table* table, int64_t begin, int64_t end,
                        int64_t rejected_key, Rng* rng) {
  for (int64_t r = begin; r < end; ++r) {
    const int64_t b = r / kBlockRows;
    const bool dead = b < 8;
    const bool pruned = (b >= 8 && b < 16) || b == 17;
    table->mutable_column(kKey)->AppendInt(dead ? rejected_key
                                                : (r * 7) % 400);
    table->mutable_column(kF)->AppendDouble(
        pruned ? 2000.0 + static_cast<double>(r % 1000) * 0.5
               : static_cast<double>(rng->UniformInt(0, 1499)));
    table->mutable_column(kG)->AppendInt(dead ? (r % 2) * 9
                                              : rng->UniformInt(0, 9));
    table->mutable_column(kPlain)->AppendInt(
        static_cast<int64_t>(rng->Next()));
    table->mutable_column(kRuns)->AppendInt(r / 64);
  }
}

// Builds the identity table, attached to `profile` and `cache` (which must
// outlive it).
std::unique_ptr<Table> MakeIdentityTable(const BloomFilter& bloom,
                                         const StorageProfile* profile,
                                         DecodeCache* cache) {
  auto table = std::make_unique<Table>(
      "identity", TableSchema({{"k", DataType::kInt64},
                               {"f", DataType::kFloat64},
                               {"g", DataType::kInt64},
                               {"p", DataType::kInt64},
                               {"q", DataType::kInt64}}));
  Rng rng(1601);
  const int64_t sealed = kIdentityFullBlocks * kBlockRows;
  const int64_t key = RejectedKey(bloom);
  AppendIdentityRows(table.get(), 0, sealed, key, &rng);
  EXPECT_TRUE(table->Seal().ok());
  AppendIdentityRows(table.get(), sealed, sealed + kIdentityTailRows, key,
                     &rng);
  EXPECT_TRUE(table->Seal().ok());
  table->AttachStorage(profile, cache);
  return table;
}

Conjunction IdentityFilters() {
  ColumnPredicate f_below;
  f_below.column = kF;
  f_below.op = CompareOp::kLt;
  f_below.operand = Column::OrderedCodeOf(1000.0);
  ColumnPredicate g_between;
  g_between.column = kG;
  g_between.op = CompareOp::kBetween;
  g_between.operand = 3;
  g_between.operand2 = 5;
  return {f_below, g_between};
}

// Output columns: a plain block, a filter column, the SIP column and an
// RLE column.
const std::vector<int> kIdentityOutputs = {kPlain, kG, kKey, kRuns};

struct IdentityIo {
  const char* config;  // reader/sip/prune
  int64_t rows_matched;
  int64_t blocks_read;
  int64_t rows_scanned;
  int64_t blocks_pruned;
  int64_t encoded_blocks;
  int64_t decode_cache_hits;
  int64_t decode_cache_evictions;
};

// Pinned: how a reader orders or overlaps its reads must not move them. dop 1,
// dop 4 and an opened pipeline give the same values. Every fetch counts its
// decode-cache traffic: under single-stage SIP the output fetch of "k" hits
// the decode the SIP test made, once per unpruned block (20, or 11 of them).
const IdentityIo kIdentityIo[] = {
    {"single/nosip/noprune", 1942, 100, 396620, 0, 100, 0, 0},
    {"single/nosip/prune", 1942, 55, 212300, 9, 55, 0, 0},
    {"single/sip/noprune", 969, 100, 396620, 0, 100, 20, 0},
    {"single/sip/prune", 969, 55, 212300, 9, 55, 11, 0},
    {"multi/nosip/noprune", 1942, 47, 174340, 0, 47, 0, 0},
    {"multi/nosip/prune", 1942, 29, 100612, 9, 29, 0, 0},
    {"multi/sip/noprune", 969, 59, 220896, 0, 59, 3, 0},
    {"multi/sip/prune", 969, 32, 110304, 9, 32, 3, 0},
};

std::string IdentityConfig(ReaderKind reader, bool sip, bool prune) {
  std::string config =
      reader == ReaderKind::kSingleStage ? "single" : "multi";
  config += sip ? "/sip" : "/nosip";
  config += prune ? "/prune" : "/noprune";
  return config;
}

TEST(ReaderTest, IdentityAcrossReadersAndSwitches) {
  const BloomFilter bloom = IdentityBloom();
  const Conjunction filters = IdentityFilters();
  for (ReaderKind reader :
       {ReaderKind::kSingleStage, ReaderKind::kMultiStage}) {
    for (bool sip : {false, true}) {
      for (bool prune : {false, true}) {
        const std::string config = IdentityConfig(reader, sip, prune);
        const IdentityIo* expected = nullptr;
        for (const IdentityIo& row : kIdentityIo) {
          if (config == row.config) expected = &row;
        }
        // dop 1 and 4 through ScanTable; dop 0 opens a ScanPipeline and, for
        // the single-stage reader, arms SIP only after opening, as a probe
        // scan opened before its join's build side ran.
        for (int dop : {1, 4, 0}) {
          SCOPED_TRACE(config + " dop " + std::to_string(dop));
          StorageProfile profile;
          DecodeCache cache;  // default budget, fresh per scan
          auto table = MakeIdentityTable(bloom, &profile, &cache);
          ASSERT_EQ(table->num_rows(),
                    kIdentityFullBlocks * kBlockRows + kIdentityTailRows);

          // Row-wise oracle.
          ScanResult oracle;
          oracle.materialized.resize(kIdentityOutputs.size());
          for (int64_t r = 0; r < table->num_rows(); ++r) {
            bool keep =
                !sip || bloom.MayContain(table->column(kKey).NumericAt(r));
            for (const ColumnPredicate& pred : filters) {
              keep = keep &&
                     pred.Matches(table->column(pred.column).NumericAt(r));
            }
            if (!keep) continue;
            oracle.row_ids.push_back(r);
            for (size_t c = 0; c < kIdentityOutputs.size(); ++c) {
              oracle.materialized[c].push_back(
                  table->column(kIdentityOutputs[c]).NumericAt(r));
            }
          }

          ScanOptions options;
          options.reader = reader;
          options.filter_order = {1, 0};  // g first, then f
          if (sip) options.sip = SemiJoinFilter{kKey, &bloom};
          options.features.prune_blocks = prune;
          options.dop = dop;
          IoStats io;
          ScanResult result;
          if (dop > 0) {
            result = ScanTable(*table, filters, kIdentityOutputs, options, &io);
            EXPECT_EQ(result.dop_used, dop);
          } else {
            const bool arm_late = reader == ReaderKind::kSingleStage;
            ScanOptions opened = options;
            if (arm_late) opened.sip = SemiJoinFilter();
            ScanPipeline pipeline(*table, filters, kIdentityOutputs, opened, 0,
                                  table->num_blocks(), &io);
            if (arm_late) pipeline.ArmSip(options.sip);
            result = pipeline.Drain(&io);
          }
          EXPECT_EQ(result.row_ids, oracle.row_ids);
          EXPECT_EQ(result.materialized, oracle.materialized);

          ASSERT_NE(expected, nullptr);
          EXPECT_EQ(result.rows_matched(), expected->rows_matched);
          EXPECT_EQ(io.blocks_read, expected->blocks_read);
          EXPECT_EQ(io.rows_scanned, expected->rows_scanned);
          EXPECT_EQ(io.blocks_pruned, expected->blocks_pruned);
          EXPECT_EQ(io.encoded_blocks, expected->encoded_blocks);
          EXPECT_EQ(io.decode_cache_hits, expected->decode_cache_hits);
          EXPECT_EQ(io.decode_cache_evictions,
                    expected->decode_cache_evictions);
        }
      }
    }
  }
}

}  // namespace
}  // namespace bytecard::minihouse
