// Tests for encoded block storage (DESIGN.md §12): encodings and their
// round-trips, zone maps, the bounded decode cache, dictionary re-sorting at
// Seal, domain derivation from zone maps, and zone-map pruning through the
// scan path.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "minihouse/column.h"
#include "minihouse/database.h"
#include "minihouse/decode_cache.h"
#include "minihouse/encoded_block.h"
#include "minihouse/executor.h"
#include "minihouse/io_stats.h"
#include "minihouse/optimizer.h"
#include "minihouse/predicate.h"
#include "minihouse/reader.h"
#include "minihouse/table.h"

namespace bytecard::minihouse {
namespace {

std::vector<int64_t> DecodeAll(const EncodedBlock& block) {
  std::vector<int64_t> out;
  block.Decode(&out);
  return out;
}

// --- EncodedBlock ----------------------------------------------------------

TEST(EncodedBlockTest, ConstantBlockPicksRleAndRoundTrips) {
  std::vector<int64_t> values(1000, 42);
  const EncodedBlock block = EncodedBlock::Encode(values.data(), 1000);
  EXPECT_EQ(block.encoding(), BlockEncoding::kRle);
  EXPECT_EQ(block.NumRuns(), 1);
  EXPECT_EQ(block.zone().min, 42);
  EXPECT_EQ(block.zone().max, 42);
  EXPECT_EQ(block.zone().run_count, 1);
  EXPECT_EQ(block.zone().rows, 1000);
  EXPECT_LT(block.EncodedBytes(), 8 * 1000);
  EXPECT_EQ(DecodeAll(block), values);
}

TEST(EncodedBlockTest, NarrowRangePicksForAndRoundTrips) {
  Rng rng(7);
  std::vector<int64_t> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back(1000000 + rng.UniformInt(0, 255));
  }
  const EncodedBlock block =
      EncodedBlock::Encode(values.data(), static_cast<int64_t>(values.size()));
  EXPECT_EQ(block.encoding(), BlockEncoding::kFor);
  // 8-bit deltas: ~1 byte/row instead of 8.
  EXPECT_LT(block.EncodedBytes(), 8 * 4096 / 4);
  EXPECT_EQ(DecodeAll(block), values);
}

TEST(EncodedBlockTest, WideRandomDataPicksPlain) {
  Rng rng(11);
  std::vector<int64_t> values;
  for (int i = 0; i < 512; ++i) {
    // Full 64-bit span: FOR would need 64-bit deltas (no saving) and RLE
    // would need one run per row (worse than plain).
    values.push_back(static_cast<int64_t>(rng.Next()));
  }
  values[0] = INT64_MIN;
  values[1] = INT64_MAX;
  const EncodedBlock block =
      EncodedBlock::Encode(values.data(), static_cast<int64_t>(values.size()));
  EXPECT_EQ(block.encoding(), BlockEncoding::kPlain);
  EXPECT_NE(block.PlainData(), nullptr);
  EXPECT_EQ(DecodeAll(block), values);
}

TEST(EncodedBlockTest, ValueAtMatchesDecodeForEveryEncoding) {
  Rng rng(13);
  std::vector<int64_t> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.UniformInt(0, 5));
  for (const BlockEncoding enc :
       {BlockEncoding::kPlain, BlockEncoding::kRle, BlockEncoding::kFor}) {
    const EncodedBlock block = EncodedBlock::EncodeAs(
        enc, values.data(), static_cast<int64_t>(values.size()));
    ASSERT_EQ(block.encoding(), enc);
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(block.ValueAt(static_cast<int64_t>(i)), values[i])
          << "encoding " << static_cast<int>(enc) << " row " << i;
    }
  }
}

// --- Property tests: encode → decode identity ------------------------------

std::vector<int64_t> RandomBlock(Rng* rng, int shape, int64_t rows) {
  std::vector<int64_t> values;
  values.reserve(rows);
  int64_t run_value = rng->UniformInt(-1000, 1000);
  for (int64_t i = 0; i < rows; ++i) {
    switch (shape) {
      case 0:  // constant
        values.push_back(-77);
        break;
      case 1:  // short runs
        if (rng->UniformInt(0, 3) == 0) {
          run_value = rng->UniformInt(-1000, 1000);
        }
        values.push_back(run_value);
        break;
      case 2:  // narrow range far from zero
        values.push_back(123456789 + rng->UniformInt(0, 1023));
        break;
      case 3:  // full-width values, including extremes
        if (i == 0) values.push_back(INT64_MIN);
        else if (i == 1) values.push_back(INT64_MAX);
        else values.push_back(static_cast<int64_t>(
            (static_cast<uint64_t>(rng->UniformInt(0, INT32_MAX)) << 32) ^
            static_cast<uint64_t>(rng->UniformInt(0, INT32_MAX))));
        break;
      default:  // mixed sign, medium spread
        values.push_back(rng->UniformInt(-100000, 100000));
        break;
    }
  }
  return values;
}

TEST(EncodingPropertyTest, RandomRoundTripEveryEncoding) {
  Rng rng(101);
  // Block-boundary sizes matter: 1 row, partial blocks, exactly kBlockRows.
  const int64_t sizes[] = {1, 7, 100, kBlockRows - 1, kBlockRows};
  for (int iter = 0; iter < 40; ++iter) {
    const int shape = iter % 5;
    const int64_t rows = sizes[iter % std::size(sizes)];
    const std::vector<int64_t> values = RandomBlock(&rng, shape, rows);
    // The auto-chosen encoding round-trips…
    const EncodedBlock chosen = EncodedBlock::Encode(values.data(), rows);
    ASSERT_EQ(DecodeAll(chosen), values)
        << "shape " << shape << " rows " << rows << " enc "
        << static_cast<int>(chosen.encoding());
    // …and so does every forced encoding, even where Encode would not pick
    // it (e.g. FOR at full 64-bit width on extreme spans).
    for (const BlockEncoding enc :
         {BlockEncoding::kPlain, BlockEncoding::kRle, BlockEncoding::kFor}) {
      const EncodedBlock forced =
          EncodedBlock::EncodeAs(enc, values.data(), rows);
      ASSERT_EQ(DecodeAll(forced), values)
          << "shape " << shape << " rows " << rows << " forced "
          << static_cast<int>(enc);
    }
  }
}

// One of the block's own values (half the time) or a neighbour of it, so
// that a bound lands on, or just beside, a stored value.
int64_t StoredOperand(Rng* rng, const std::vector<int64_t>& values) {
  const int64_t v = values[rng->UniformInt(
      0, static_cast<int64_t>(values.size()) - 1)];
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return v == INT64_MIN ? v : v - 1;
    case 1:
      return v == INT64_MAX ? v : v + 1;
    default:
      return v;
  }
}

// A random predicate over a block holding `values`. About half of its
// operands, BETWEEN bounds and IN-list entries are stored values or their
// neighbours; the rest are uniform over a medium range, where a bound almost
// never equals a stored value.
ColumnPredicate RandomPredicate(Rng* rng, const std::vector<int64_t>& values) {
  auto stored = [&] { return rng->UniformInt(0, 1) == 0; };
  ColumnPredicate pred;
  pred.column = 0;
  const int op = static_cast<int>(rng->UniformInt(0, 7));
  pred.op = static_cast<CompareOp>(op);
  if (stored()) {
    // Both bounds from the block, in order: a range between stored values.
    pred.operand = StoredOperand(rng, values);
    pred.operand2 = StoredOperand(rng, values);
    if (pred.operand > pred.operand2) std::swap(pred.operand, pred.operand2);
  } else {
    pred.operand = rng->UniformInt(-100000, 100000);
    pred.operand2 = pred.operand + rng->UniformInt(-10, 50000);
  }
  for (int i = 0; i < 5; ++i) {
    pred.in_list.push_back(stored() ? StoredOperand(rng, values)
                                    : rng->UniformInt(-100000, 100000));
  }
  return pred;
}

TEST(EncodingPropertyTest, PredicateOverEncodedMatchesDecoded) {
  Rng rng(202);
  for (int iter = 0; iter < 240; ++iter) {
    const int shape = iter % 5;
    const int64_t rows = 1 + rng.UniformInt(0, kBlockRows - 1);
    const std::vector<int64_t> values = RandomBlock(&rng, shape, rows);
    const ColumnPredicate pred = RandomPredicate(&rng, values);
    // The row-wise oracle: ColumnPredicate::Matches on each value.
    std::vector<uint8_t> expected;
    for (int64_t v : values) expected.push_back(pred.Matches(v) ? 1 : 0);
    for (const BlockEncoding enc :
         {BlockEncoding::kPlain, BlockEncoding::kRle, BlockEncoding::kFor}) {
      const EncodedBlock block =
          EncodedBlock::EncodeAs(enc, values.data(), rows);
      std::vector<uint8_t> got(rows, 1);
      EvaluateOnEncodedBlock(pred, block, &got);
      ASSERT_EQ(got, expected)
          << "iter " << iter << " enc " << static_cast<int>(enc) << " op "
          << CompareOpName(pred.op) << " operand " << pred.operand;
    }
  }
}

TEST(ZoneMapTest, MayMatchNeverPrunesAMatchingRow) {
  Rng rng(303);
  for (int iter = 0; iter < 80; ++iter) {
    const int64_t rows = 1 + rng.UniformInt(0, 500);
    const std::vector<int64_t> values = RandomBlock(&rng, iter % 5, rows);
    const EncodedBlock block = EncodedBlock::Encode(values.data(), rows);
    const ColumnPredicate pred = RandomPredicate(&rng, values);
    const bool any_match =
        std::any_of(values.begin(), values.end(),
                    [&](int64_t v) { return pred.Matches(v); });
    if (any_match) {
      // Soundness: a block holding a matching row must never be prunable.
      EXPECT_TRUE(ZoneMapMayMatch(pred, block.zone()))
          << CompareOpName(pred.op) << " " << pred.operand;
    }
  }
}

// --- DecodeCache -----------------------------------------------------------

TEST(DecodeCacheTest, LruEvictsAndCountsWithinBudget) {
  // Budget fits two ~1000-row entries (8064 bytes each incl. overhead).
  DecodeCache cache(2 * (1000 * 8 + 64));
  const char* col = "col";
  int64_t evicted = 0;
  for (int64_t b = 0; b < 3; ++b) {
    EXPECT_EQ(cache.Lookup(col, b), nullptr);
    cache.Insert(col, b, std::vector<int64_t>(1000, b), &evicted);
  }
  // Third insert evicted block 0 (LRU).
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_LE(cache.ResidentBytes(), cache.budget_bytes());
  EXPECT_EQ(cache.Lookup(col, 0), nullptr);  // evicted
  auto ref = cache.Lookup(col, 2);
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->at(0), 2);
  EXPECT_EQ(cache.hits(), 1);

  // An entry larger than the whole budget is returned but never cached.
  auto big = cache.Insert(col, 99, std::vector<int64_t>(100000, 7), nullptr);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(cache.Lookup(col, 99), nullptr);

  // Invalidation drops only the named column's entries.
  cache.Insert("other", 0, std::vector<int64_t>(10, 1), nullptr);
  cache.InvalidateColumn(col);
  EXPECT_EQ(cache.Lookup(col, 2), nullptr);
  EXPECT_NE(cache.Lookup("other", 0), nullptr);
}

TEST(DecodeCacheTest, ShrinkingBudgetEvictsImmediately) {
  DecodeCache cache(1 << 20);
  for (int64_t b = 0; b < 8; ++b) {
    cache.Insert("c", b, std::vector<int64_t>(1000, b), nullptr);
  }
  EXPECT_GT(cache.ResidentBytes(), 0);
  cache.SetBudgetBytes(0);
  EXPECT_EQ(cache.ResidentBytes(), 0);
}

// A view of a FOR block holds the decode it shares with the cache: the
// entry can be evicted (budget to 0) or dropped (the column invalidated)
// while the view is alive, and its values stay those of the source.
TEST(DecodeCacheTest, ViewOutlivesEviction) {
  DecodeCache cache(1 << 20);
  Column col(DataType::kInt64);
  col.AttachStorage(nullptr, &cache);
  std::vector<int64_t> source;
  for (int64_t i = 0; i < kBlockRows; ++i) {
    source.push_back(1'000'000'000 + i * 7919 % 1000);
    col.AppendInt(source.back());
  }
  col.SealStorage();
  ASSERT_EQ(col.encoded_block(0)->encoding(), BlockEncoding::kFor);

  IoStats io;
  const Column::BlockView missed = col.ViewBlock(0, &io);  // decoded, cached
  const Column::BlockView hit = col.ViewBlock(0, &io);
  EXPECT_EQ(io.decode_cache_hits, 1);
  EXPECT_EQ(hit.values.data(), missed.values.data());
  cache.SetBudgetBytes(0);
  EXPECT_EQ(cache.ResidentBytes(), 0);
  cache.SetBudgetBytes(1 << 20);
  const Column::BlockView recached = col.ViewBlock(0, &io);
  EXPECT_GT(cache.ResidentBytes(), 0);
  cache.InvalidateColumn(&col);
  EXPECT_EQ(cache.ResidentBytes(), 0);
  EXPECT_EQ(io.decode_cache_hits, 1);
  EXPECT_EQ(io.decode_cache_evictions, 0);

  for (const Column::BlockView* view : {&missed, &hit, &recached}) {
    ASSERT_EQ(view->values.size(), source.size());
    for (size_t i = 0; i < source.size(); ++i) {
      ASSERT_EQ(view->values[i], source[i]) << "row " << i;
    }
  }
}

// --- Dictionary sealing (the AppendString footgun) -------------------------

TEST(DictionarySealTest, UnsortedInsertionOrderResortedAtSeal) {
  auto table = std::make_unique<Table>(
      "t", TableSchema({{"country", DataType::kString}}));
  Column* col = table->mutable_column(0);
  // Insertion order is not string order: pre-fix, codes would be
  // {zebra:0, apple:1, mango:2} and code-range predicates would lie.
  col->AppendString("zebra");
  col->AppendString("apple");
  col->AppendString("mango");
  col->AppendString("apple");
  ASSERT_TRUE(table->Seal().ok());
  // Dictionary sorted, codes remapped to match string order.
  EXPECT_EQ(col->dictionary(),
            (std::vector<std::string>{"apple", "mango", "zebra"}));
  EXPECT_EQ(col->NumericAt(0), 2);  // zebra
  EXPECT_EQ(col->NumericAt(1), 0);  // apple
  EXPECT_EQ(col->NumericAt(2), 1);  // mango
  EXPECT_EQ(col->NumericAt(3), 0);  // apple
  // The regression: a range predicate in code space now matches string
  // order — country > "mango" must select exactly the zebra row.
  ColumnPredicate pred;
  pred.column = 0;
  pred.op = CompareOp::kGt;
  pred.operand = 1;  // code of "mango"
  IoStats io;
  ScanResult scan = ScanTable(*table, {pred}, {0}, ScanOptions{}, &io);
  ASSERT_EQ(scan.rows_matched(), 1);
  EXPECT_EQ(scan.row_ids[0], 0);
  // Re-sealing is idempotent: already sorted, nothing remaps.
  ASSERT_TRUE(table->Seal().ok());
  EXPECT_EQ(col->NumericAt(0), 2);
}

TEST(DictionarySealTest, AppendStringAfterSealRemapsAgain) {
  auto table = std::make_unique<Table>(
      "t", TableSchema({{"s", DataType::kString}}));
  Column* col = table->mutable_column(0);
  col->AppendString("bb");
  col->AppendString("dd");
  ASSERT_TRUE(table->Seal().ok());
  // "aa" interns with a code past the sorted range; the next Seal re-sorts.
  col->AppendString("aa");
  ASSERT_TRUE(table->Seal().ok());
  EXPECT_EQ(col->dictionary(),
            (std::vector<std::string>{"aa", "bb", "dd"}));
  EXPECT_EQ(col->NumericAt(0), 1);
  EXPECT_EQ(col->NumericAt(1), 2);
  EXPECT_EQ(col->NumericAt(2), 0);
}

// --- Domain from zone maps (PR-7 specialization contract) ------------------

TEST(DomainFromZoneMapTest, SealedDomainMatchesBruteForce) {
  Rng rng(404);
  for (int iter = 0; iter < 10; ++iter) {
    // Enough rows for several blocks, values spanning shapes.
    const int64_t rows = kBlockRows * 2 + rng.UniformInt(1, kBlockRows);
    auto encoded = std::make_unique<Table>(
        "enc", TableSchema({{"v", DataType::kInt64}}));
    int64_t lo = INT64_MAX;
    int64_t hi = INT64_MIN;
    for (int64_t i = 0; i < rows; ++i) {
      const int64_t v = RandomBlock(&rng, iter % 5, 1)[0];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      encoded->mutable_column(0)->AppendInt(v);
    }
    ASSERT_TRUE(encoded->Seal().ok());
    // The zone-map fold sees exactly what a brute-force pass over the values
    // sees: the specialization layer keys off these bounds.
    const ColumnDomain& de = encoded->domain(0);
    ASSERT_TRUE(de.valid);
    EXPECT_EQ(de.min, lo);
    EXPECT_EQ(de.max, hi);
  }
}

// --- Scans over encoded storage --------------------------------------------

// A clustered table: `key` ascends 0..rows-1 (strong zone-map locality),
// `noise` is uniform (no locality).
std::unique_ptr<Table> ClusteredTable(int64_t rows, Rng* rng) {
  auto table = std::make_unique<Table>(
      "c", TableSchema({{"key", DataType::kInt64},
                        {"noise", DataType::kInt64}}));
  for (int64_t i = 0; i < rows; ++i) {
    table->mutable_column(0)->AppendInt(i);
    table->mutable_column(1)->AppendInt(rng->UniformInt(0, 1000));
  }
  EXPECT_TRUE(table->Seal().ok());
  return table;
}

TEST(EncodedScanTest, PruningSkipsBlocksAndPreservesResults) {
  Rng rng(505);
  auto table = ClusteredTable(kBlockRows * 8, &rng);
  ColumnPredicate pred;
  pred.column = 0;
  pred.op = CompareOp::kBetween;
  pred.operand = 10;
  pred.operand2 = 200;  // entirely inside block 0

  ScanOptions no_prune;
  no_prune.features.prune_blocks = false;
  IoStats io_off;
  ScanResult base = ScanTable(*table, {pred}, {0, 1}, no_prune, &io_off);
  EXPECT_EQ(io_off.blocks_pruned, 0);

  ScanOptions prune = no_prune;
  prune.features.prune_blocks = true;
  IoStats io_on;
  ScanResult pruned = ScanTable(*table, {pred}, {0, 1}, prune, &io_on);

  // Identical rows, strictly less I/O, 7 of 8 blocks pruned.
  EXPECT_EQ(pruned.row_ids, base.row_ids);
  EXPECT_EQ(pruned.materialized, base.materialized);
  EXPECT_EQ(base.rows_matched(), 191);
  EXPECT_EQ(io_on.blocks_pruned, 7);
  EXPECT_LT(io_on.blocks_read, io_off.blocks_read);
  EXPECT_GT(io_on.encoded_blocks, 0);

  // Planned leg: OptimizerOptions::features.prune_blocks reaches the scans.
  struct UniformEstimator : CardinalityEstimator {
    std::string Name() const override { return "uniform"; }
    double EstimateSelectivity(const Table&, const Conjunction&) override {
      return 1.0;
    }
    double EstimateJoinCardinality(const BoundQuery&,
                                   const std::vector<int>&) override {
      return 1.0;
    }
    double EstimateGroupNdv(const BoundQuery&) override { return 1.0; }
  } estimator;
  BoundQuery query;
  BoundTableRef ref;
  ref.table = table.get();
  ref.filters = {pred};
  query.tables = {ref};
  query.group_by = {{0, 0}};
  query.aggs = {{AggFunc::kCountStar, -1, -1}, {AggFunc::kSum, 0, 1}};
  OptimizerOptions unpruned;
  unpruned.features.prune_blocks = false;
  auto planned_off = PlanAndExecute(query, Optimizer(unpruned), &estimator);
  auto planned_on = PlanAndExecute(query, Optimizer(), &estimator);
  ASSERT_TRUE(planned_off.ok()) << planned_off.status().ToString();
  ASSERT_TRUE(planned_on.ok()) << planned_on.status().ToString();
  EXPECT_EQ(planned_on.value().agg.num_groups, 191);
  EXPECT_EQ(planned_on.value().agg.group_keys,
            planned_off.value().agg.group_keys);
  EXPECT_EQ(planned_on.value().agg.agg_values,
            planned_off.value().agg.agg_values);
  EXPECT_EQ(planned_off.value().stats.io.blocks_pruned, 0);
  EXPECT_GT(planned_on.value().stats.io.blocks_pruned, 0);
}

TEST(EncodedScanTest, AllBlocksPrunedReadsNothing) {
  Rng rng(506);
  auto table = ClusteredTable(kBlockRows * 4, &rng);
  ColumnPredicate pred;
  pred.column = 0;
  pred.op = CompareOp::kGt;
  pred.operand = kBlockRows * 100;  // beyond every zone map
  ScanOptions options;
  options.features.prune_blocks = true;
  for (const ReaderKind reader :
       {ReaderKind::kSingleStage, ReaderKind::kMultiStage}) {
    options.reader = reader;
    IoStats io;
    ScanResult result = ScanTable(*table, {pred}, {0}, options, &io);
    EXPECT_EQ(result.rows_matched(), 0);
    EXPECT_EQ(io.blocks_read, 0);
    EXPECT_EQ(io.blocks_pruned, 4);
  }
}

TEST(EncodedScanTest, EncodedScansMatchRowWiseOracle) {
  Rng rng(607);
  const int64_t rows = kBlockRows * 3 + 777;
  auto table = std::make_unique<Table>(
      "t", TableSchema({{"a", DataType::kInt64},
                        {"b", DataType::kInt64},
                        {"f", DataType::kFloat64}}));
  // The appended values in numeric form, column-major: the oracle's input.
  std::vector<std::vector<int64_t>> values(3);
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t a = i / 100;
    const int64_t b = rng.UniformInt(0, 1 << 20);
    const double f = static_cast<double>(rng.UniformInt(-500, 500)) / 8.0;
    table->mutable_column(0)->AppendInt(a);
    table->mutable_column(1)->AppendInt(b);
    table->mutable_column(2)->AppendDouble(f);
    values[0].push_back(a);
    values[1].push_back(b);
    values[2].push_back(Column::OrderedCodeOf(f));
  }
  ASSERT_TRUE(table->Seal().ok());
  // Runs of 100 seal RLE, a 21-bit spread FOR, and f's ordered codes, which
  // span both signs, plain.
  const BlockEncoding encodings[] = {BlockEncoding::kRle, BlockEncoding::kFor,
                                     BlockEncoding::kPlain};
  for (int c = 0; c < 3; ++c) {
    ASSERT_EQ(table->column(c).num_encoded_blocks(), 4);
    EXPECT_EQ(table->column(c).encoded_block(0)->encoding(), encodings[c]);
  }

  // One filter per encoding: RLE run skipping, the FOR unpack-then-kernel
  // path and the in-place plain kernel. The f range's bounds are values the
  // column holds, so an off-by-one at either end drops rows.
  ColumnPredicate p1;
  p1.column = 0;
  p1.op = CompareOp::kBetween;
  p1.operand = 20;
  p1.operand2 = 60;
  ColumnPredicate p2;
  p2.column = 1;
  p2.op = CompareOp::kLt;
  p2.operand = 1 << 19;
  ColumnPredicate p3;
  p3.column = 2;
  p3.op = CompareOp::kBetween;
  p3.operand = Column::OrderedCodeOf(0.0);
  p3.operand2 = Column::OrderedCodeOf(40.0);
  const Conjunction filters = {p1, p2, p3};

  // Row-wise oracle: ColumnPredicate::Matches over the appended values.
  std::vector<int64_t> oracle_ids;
  std::vector<std::vector<int64_t>> oracle_rows(3);
  for (int64_t r = 0; r < rows; ++r) {
    bool keep = true;
    for (const ColumnPredicate& pred : filters) {
      keep = keep && pred.Matches(values[pred.column][r]);
    }
    if (!keep) continue;
    oracle_ids.push_back(r);
    for (int c = 0; c < 3; ++c) oracle_rows[c].push_back(values[c][r]);
  }
  ASSERT_FALSE(oracle_ids.empty());

  for (const ReaderKind reader :
       {ReaderKind::kSingleStage, ReaderKind::kMultiStage}) {
    for (const bool prune : {false, true}) {
      for (const int dop : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "reader " << static_cast<int>(reader) << " prune "
                     << prune << " dop " << dop);
        ScanOptions options;
        options.reader = reader;
        options.features.prune_blocks = prune;
        options.dop = dop;
        IoStats io;
        const ScanResult result =
            ScanTable(*table, filters, {0, 1, 2}, options, &io);
        ASSERT_EQ(result.row_ids, oracle_ids);
        ASSERT_EQ(result.materialized, oracle_rows);
        EXPECT_GT(io.blocks_read, 0);
        EXPECT_EQ(io.encoded_blocks, io.blocks_read);  // every block sealed
      }
    }
  }
}

TEST(EncodedScanTest, DecodeCacheServesRepeatedMaterialization) {
  Rng rng(708);
  Database db;
  auto table = std::make_unique<Table>(
      "t", TableSchema({{"k", DataType::kInt64}}));
  // Runs of 50 → RLE blocks, so materialization must decode.
  for (int64_t i = 0; i < kBlockRows * 4; ++i) {
    table->mutable_column(0)->AppendInt(i / 50);
  }
  ASSERT_TRUE(table->Seal().ok());
  ASSERT_EQ(table->column(0).encoded_block(0)->encoding(),
            BlockEncoding::kRle);
  ASSERT_TRUE(db.AddTable(std::move(table)).ok());
  const Table* t = db.FindTable("t").value();

  IoStats io1;
  ScanResult first = ScanTable(*t, {}, {0}, ScanOptions{}, &io1);
  EXPECT_EQ(io1.decode_cache_hits, 0);  // cold
  IoStats io2;
  ScanResult second = ScanTable(*t, {}, {0}, ScanOptions{}, &io2);
  EXPECT_EQ(io2.decode_cache_hits, 4);  // every block now resident
  EXPECT_EQ(first.materialized, second.materialized);
  EXPECT_GT(db.decode_cache()->ResidentBytes(), 0);

  // A tiny budget forces evictions but never wrong results.
  db.SetDecodeCacheBytes(kBlockRows * 8 + 64);  // one block
  IoStats io3;
  ScanResult third = ScanTable(*t, {}, {0}, ScanOptions{}, &io3);
  EXPECT_EQ(first.materialized, third.materialized);
  EXPECT_GT(io3.decode_cache_evictions, 0);
  EXPECT_LE(db.decode_cache()->ResidentBytes(), kBlockRows * 8 + 64);
}

TEST(EncodedScanTest, AppendAfterSealReopensTailBlock) {
  auto table = std::make_unique<Table>(
      "t", TableSchema({{"v", DataType::kInt64},
                        {"f", DataType::kFloat64}}));
  const int64_t rows = kBlockRows + 100;  // block 1 partial
  for (int64_t i = 0; i < rows; ++i) {
    table->mutable_column(0)->AppendInt(i);
    table->mutable_column(1)->AppendDouble(i * 0.5);
  }
  ASSERT_TRUE(table->Seal().ok());
  EXPECT_EQ(table->column(0).num_encoded_blocks(), 2);
  // Appends re-open the partial tail block transparently.
  table->mutable_column(0)->AppendInt(-5);
  table->mutable_column(1)->AppendDouble(-2.25);
  EXPECT_EQ(table->column(0).num_rows(), rows + 1);
  EXPECT_EQ(table->column(0).NumericAt(rows), -5);
  EXPECT_EQ(table->column(1).DoubleAt(rows), -2.25);
  // Pre-existing rows still read correctly from both storage tiers.
  EXPECT_EQ(table->column(0).NumericAt(0), 0);
  EXPECT_EQ(table->column(0).NumericAt(rows - 1), rows - 1);
  EXPECT_EQ(table->column(1).DoubleAt(3), 1.5);
  ASSERT_TRUE(table->Seal().ok());
  EXPECT_EQ(table->column(0).num_encoded_blocks(), 2);
  EXPECT_EQ(table->column(0).NumericAt(rows), -5);
  // Domain picked up the appended values via the re-stamped zone maps.
  EXPECT_EQ(table->domain(0).min, -5);
  EXPECT_EQ(table->domain(0).max, rows - 1);
}

TEST(EncodedScanTest, AppendInvalidatesOnlyTailBlockCacheEntry) {
  // Ingest-reseal regression (DESIGN.md §13): appending a batch must not
  // disturb the decode-cache entries (or zone maps) of already-sealed
  // blocks — only the re-opened partial tail block drops out, and it does so
  // via invalidation, never counted as a capacity eviction.
  Database db;
  auto built = std::make_unique<Table>(
      "t", TableSchema({{"k", DataType::kInt64}}));
  const int64_t rows = kBlockRows * 3 + 100;  // 3 full blocks + partial tail
  for (int64_t i = 0; i < rows; ++i) {
    built->mutable_column(0)->AppendInt(i / 50);  // runs → RLE blocks
  }
  ASSERT_TRUE(built->Seal().ok());
  ASSERT_TRUE(db.AddTable(std::move(built)).ok());
  const Table* table = db.FindTable("t").value();
  ASSERT_EQ(table->column(0).num_encoded_blocks(), 4);

  // Warm the cache, then prove all four blocks are resident.
  IoStats warm;
  ScanTable(*table, {}, {0}, ScanOptions{}, &warm);
  IoStats hot;
  ScanResult before = ScanTable(*table, {}, {0}, ScanOptions{}, &hot);
  ASSERT_EQ(hot.decode_cache_hits, 4);
  const int64_t evictions_before = db.decode_cache()->evictions();

  // One ingest batch: append to the tail and reseal.
  Table* mutable_table = db.FindMutableTable("t").value();
  for (int64_t i = 0; i < 100; ++i) {
    mutable_table->mutable_column(0)->AppendInt((rows + i) / 50);
  }
  ASSERT_TRUE(mutable_table->Seal().ok());

  // The three untouched blocks still serve from cache; only the rewritten
  // tail re-decodes. The eviction counter is pinned: invalidation is not
  // eviction.
  IoStats after;
  ScanResult grown = ScanTable(*table, {}, {0}, ScanOptions{}, &after);
  EXPECT_EQ(after.decode_cache_hits, 3);
  EXPECT_EQ(db.decode_cache()->evictions(), evictions_before);
  EXPECT_EQ(grown.materialized[0].size(), before.materialized[0].size() + 100);
  // Zone maps re-stamped across the reseal keep the domain exact.
  EXPECT_EQ(table->domain(0).min, 0);
  EXPECT_EQ(table->domain(0).max, (rows + 99) / 50);
}

TEST(EncodedScanTest, ZoneMapSelectivityBoundIsSoundAndTight) {
  Rng rng(809);
  auto table = ClusteredTable(kBlockRows * 8, &rng);
  ColumnPredicate pred;
  pred.column = 0;
  pred.op = CompareOp::kLt;
  pred.operand = kBlockRows;  // exactly block 0
  const double bound = ZoneMapSelectivityBound(*table, {pred});
  EXPECT_DOUBLE_EQ(bound, 1.0 / 8.0);
  // Sound: the bound never undercuts the true selectivity.
  IoStats io;
  ScanResult result = ScanTable(*table, {pred}, {0}, ScanOptions{}, &io);
  EXPECT_GE(bound, static_cast<double>(result.rows_matched()) /
                       static_cast<double>(table->num_rows()));
  // No filters / raw tables → no information → 1.0.
  EXPECT_DOUBLE_EQ(ZoneMapSelectivityBound(*table, {}), 1.0);
}

}  // namespace
}  // namespace bytecard::minihouse
