#include "minihouse/reader.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <thread>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common/logging.h"
#include "common/thread_pool.h"

namespace bytecard::minihouse {

namespace {

// Morsel granularity: contiguous block ranges of this size, so each drainer
// claims a few morsels over the scan and load balances without work
// stealing.
constexpr int64_t kScanMorselBlocks = 4;

// True when some filter's zone-map test proves block `b` holds no matching
// row. A block without zone maps (unsealed, appended tail) never prunes.
bool BlockPrunedByZoneMaps(const Table& table, const Conjunction& filters,
                           int64_t b) {
  for (const ColumnPredicate& pred : filters) {
    const ZoneMap* zone = table.column(pred.column).zone_map(b);
    if (zone != nullptr && !ZoneMapMayMatch(pred, *zone)) return true;
  }
  return false;
}

// Sleeps until `t`. Linux may wake a sleeping thread up to its timer slack
// late: 50 us by default, a quarter of a 200 us block latency, and more or
// less of it from one run to the next. The slack is cut to 1 ns for the
// sleep and restored after it.
void SleepUntil(std::chrono::steady_clock::time_point t) {
#if defined(__linux__)
  const int slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::this_thread::sleep_until(t);
  if (slack > 0) {
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack), 0, 0, 0);
  }
#else
  std::this_thread::sleep_until(t);
#endif
}

// The SIP test over one block whose SIP-column read has landed: clears the
// selection of every row whose key the Bloom filter rejects.
void ApplySip(const Table& table, const SemiJoinFilter& sip, int64_t b,
              std::vector<int64_t>* scratch, std::vector<uint8_t>* selection,
              IoStats* io) {
  table.column(sip.column).FetchBlock(b, scratch, io);
  for (size_t i = 0; i < selection->size(); ++i) {
    if ((*selection)[i] != 0 && !sip.bloom->MayContain((*scratch)[i])) {
      (*selection)[i] = 0;
    }
  }
}

// One filter predicate over one block whose read has landed. A sealed block
// is evaluated in its encoded form, with no decode (or decode-cache
// traffic); a raw-tail block is fetched and run through the kernels.
void ApplyFilter(const Table& table, const ColumnPredicate& pred, int64_t b,
                 std::vector<int64_t>* scratch,
                 std::vector<uint8_t>* selection, IoStats* io) {
  const Column& col = table.column(pred.column);
  if (const EncodedBlock* encoded = col.encoded_block(b)) {
    EvaluateOnEncodedBlock(pred, *encoded, selection);
  } else {
    col.FetchBlock(b, scratch, io);
    EvaluateOnBlock(pred, *scratch, selection);
  }
}

// Appends block `b`'s selected rows: their ids and the output columns'
// values, fetched into `out_blocks`.
void EmitRows(int64_t b, const std::vector<uint8_t>& selection,
              const std::vector<std::vector<int64_t>>& out_blocks,
              ScanResult* result) {
  const int64_t base = b * kBlockRows;
  for (size_t i = 0; i < selection.size(); ++i) {
    if (selection[i] == 0) continue;
    result->row_ids.push_back(base + static_cast<int64_t>(i));
    for (size_t c = 0; c < out_blocks.size(); ++c) {
      result->materialized[c].push_back(out_blocks[c][i]);
    }
  }
}

// One stage of a block's chain: the reads of the block it issues and, once
// they have landed, the tests it applies. The last stage of a chain also
// fetches the tuple columns and emits the block's selected rows.
struct ChainStage {
  std::vector<int> reads;    // columns whose read of the block it issues
  bool sip = false;          // applies the SIP Bloom filter
  std::vector<int> filters;  // applies these predicates, by conjunct index
};

// The chain of stages every unpruned block of a scan runs, built once per
// scan from the reader choice.
struct ScanChain {
  std::vector<ChainStage> stages;
  // Fetched by the last stage: the output columns, then (multi-stage) the
  // filter columns that tuple reconstruction re-reads.
  std::vector<int> tuple_columns;
  // Per tuple column: whether its fetch reports decode-cache traffic.
  std::vector<uint8_t> tuple_charged;
};

// Single-stage: one stage issues every read a one-pass reader charges — the
// SIP column, one read per filter predicate, and each output column not
// already read for one of those roles — then applies SIP (first, when
// present) and every predicate, and builds tuples in the same pass, before
// knowing what survived. An output column already read for another role is
// fetched from that read: it reports no decode-cache traffic for this
// second fetch, as it reports no second read.
//
// Multi-stage: the SIP stage first (the semi-join filter is typically the
// most selective predicate available), then one stage per filter in the
// chosen order, then materialization. A block whose candidate set empties
// runs no further stage. Materialization reads every needed column —
// output columns AND filter columns (their values are part of the tuple).
// This re-read of filter columns is exactly why multi-stage loses to
// single-stage on non-selective predicates (paper §5.1.2).
ScanChain BuildChain(const Conjunction& filters,
                     const std::vector<int>& output_columns,
                     const ScanOptions& options) {
  const bool has_sip = options.sip.bloom != nullptr && options.sip.column >= 0;
  ScanChain chain;
  chain.tuple_columns = output_columns;
  if (options.reader == ReaderKind::kSingleStage ||
      (filters.empty() && !has_sip)) {
    ChainStage stage;
    stage.sip = has_sip;
    if (has_sip) stage.reads.push_back(options.sip.column);
    for (size_t f = 0; f < filters.size(); ++f) {
      stage.reads.push_back(filters[f].column);
      stage.filters.push_back(static_cast<int>(f));
    }
    const size_t test_reads = stage.reads.size();
    for (int column : output_columns) {
      const auto tests_end = stage.reads.begin() + test_reads;
      const bool already_read =
          std::find(stage.reads.begin(), tests_end, column) != tests_end;
      if (!already_read) stage.reads.push_back(column);
      chain.tuple_charged.push_back(!already_read);
    }
    chain.stages.push_back(std::move(stage));
    return chain;
  }

  std::vector<int> order = options.filter_order;
  if (order.empty()) {
    order.resize(filters.size());
    std::iota(order.begin(), order.end(), 0);
  }
  BC_CHECK(order.size() == filters.size());
  if (has_sip) chain.stages.push_back({{options.sip.column}, true, {}});
  for (int f : order) chain.stages.push_back({{filters[f].column}, false, {f}});
  for (const ColumnPredicate& pred : filters) {
    if (std::find(chain.tuple_columns.begin(), chain.tuple_columns.end(),
                  pred.column) == chain.tuple_columns.end()) {
      chain.tuple_columns.push_back(pred.column);
    }
  }
  chain.stages.push_back({chain.tuple_columns, false, {}});
  chain.tuple_charged.assign(chain.tuple_columns.size(), 1);
  return chain;
}

// The read-ahead pipeline over one scan range (DESIGN.md §12). Each
// unpruned block runs `chain` one stage at a time: a stage's reads are
// issued as soon as the previous stage has run and left the block a
// candidate row, and up to kReadAheadBlocks blocks' chains are in flight at
// once. The slots are visited round robin, which is the order their stages
// were issued in: a block that retires hands its slot to the next unpruned
// block of the range, whose first stage is then the newest. So every wait
// is for the oldest read in flight and, since every stage has the same
// latency and every chain emits in its last stage, blocks retire and emit
// their rows in block order. The reads are those of a block-by-block scan:
// none past the range end, none for a pruned block, and no later stage for
// a block an earlier stage emptied.
void ScanRange(const Table& table, const Conjunction& filters,
               const ScanOptions& options, const ScanChain& chain,
               int64_t block_begin, int64_t block_end, ScanResult* result,
               IoStats* io) {
  struct Slot {
    int64_t block = -1;  // -1 once the range has no block left for the slot
    size_t stage = 0;
    std::chrono::steady_clock::time_point landed{};
    std::vector<uint8_t> selection;
  };
  std::array<Slot, kReadAheadBlocks> slots;
  std::vector<int64_t> scratch;
  std::vector<std::vector<int64_t>> out_blocks(result->materialized.size());

  auto issue = [&](Slot& slot) {
    slot.landed = {};
    for (int column : chain.stages[slot.stage].reads) {
      slot.landed = std::max(slot.landed,
                             table.column(column).IssueRead(slot.block, io));
    }
  };
  // Starts the range's next unpruned block in `slot`; false when none is
  // left. Pruned blocks are skipped before any read is issued.
  int64_t next = block_begin;
  auto admit = [&](Slot& slot) {
    slot.block = -1;
    while (next < block_end) {
      const int64_t b = next++;
      if (options.features.prune_blocks &&
          BlockPrunedByZoneMaps(table, filters, b)) {
        if (io != nullptr) ++io->blocks_pruned;
        continue;
      }
      slot.block = b;
      slot.stage = 0;
      slot.selection.assign(table.column(0).BlockRowCount(b), 1);
      issue(slot);
      return true;
    }
    return false;
  };
  // Runs `slot`'s stage, whose reads have landed; true when the block has a
  // next stage to issue.
  auto run_stage = [&](Slot& slot) {
    const ChainStage& stage = chain.stages[slot.stage];
    if (stage.sip) {
      ApplySip(table, options.sip, slot.block, &scratch, &slot.selection, io);
    }
    for (int f : stage.filters) {
      ApplyFilter(table, filters[f], slot.block, &scratch, &slot.selection,
                  io);
    }
    if (slot.stage + 1 < chain.stages.size()) {
      return std::any_of(slot.selection.begin(), slot.selection.end(),
                         [](uint8_t v) { return v != 0; });
    }
    for (size_t c = 0; c < chain.tuple_columns.size(); ++c) {
      std::vector<int64_t>* dest =
          c < out_blocks.size() ? &out_blocks[c] : &scratch;
      table.column(chain.tuple_columns[c])
          .FetchBlock(slot.block, dest, chain.tuple_charged[c] ? io : nullptr);
    }
    EmitRows(slot.block, slot.selection, out_blocks, result);
    return false;
  };

  int live = 0;
  for (Slot& slot : slots) live += admit(slot) ? 1 : 0;
  for (size_t s = 0; live > 0; s = (s + 1) % slots.size()) {
    Slot& slot = slots[s];
    if (slot.block < 0) continue;
    if (slot.landed > std::chrono::steady_clock::now()) {
      SleepUntil(slot.landed);
    }
    if (run_stage(slot)) {
      ++slot.stage;
      issue(slot);
    } else if (!admit(slot)) {
      --live;
    }
  }
}

}  // namespace

ScanResult ScanTable(const Table& table, const Conjunction& filters,
                     const std::vector<int>& output_columns,
                     const ScanOptions& options, IoStats* io) {
  ScanResult result;
  result.materialized.resize(output_columns.size());
  if (table.num_rows() == 0) return result;

  const ScanChain chain = BuildChain(filters, output_columns, options);
  const int64_t num_blocks = (table.num_rows() + kBlockRows - 1) / kBlockRows;
  const int dop =
      static_cast<int>(std::clamp<int64_t>(options.dop, 1, num_blocks));
  if (dop <= 1) {
    ScanRange(table, filters, options, chain, 0, num_blocks, &result, io);
    return result;
  }

  // Morsel-parallel scan: contiguous block-range morsels drained from a
  // shared counter, per-worker IoStats, results concatenated in block order
  // (so output is bit-identical to a serial scan).
  const int64_t morsels = std::max<int64_t>(
      dop, (num_blocks + kScanMorselBlocks - 1) / kScanMorselBlocks);
  std::vector<ScanResult> parts(morsels);
  std::vector<IoStats> worker_io(dop);
  common::ParallelMorsels(common::ThreadPool::Global(), morsels, dop,
                          options.morsel_policy, [&](int64_t m, int slot) {
                            parts[m].materialized.resize(
                                output_columns.size());
                            const int64_t b0 = num_blocks * m / morsels;
                            const int64_t b1 = num_blocks * (m + 1) / morsels;
                            ScanRange(table, filters, options, chain, b0, b1,
                                      &parts[m], &worker_io[slot]);
                          });

  int64_t total_rows = 0;
  for (const ScanResult& part : parts) total_rows += part.rows_matched();
  result.row_ids.reserve(total_rows);
  for (auto& col : result.materialized) col.reserve(total_rows);
  for (ScanResult& part : parts) {
    result.row_ids.insert(result.row_ids.end(), part.row_ids.begin(),
                          part.row_ids.end());
    for (size_t c = 0; c < result.materialized.size(); ++c) {
      result.materialized[c].insert(result.materialized[c].end(),
                                    part.materialized[c].begin(),
                                    part.materialized[c].end());
    }
  }
  if (io != nullptr) {
    for (const IoStats& w : worker_io) *io += w;
  }
  result.dop_used = dop;
  result.parallel_tasks = morsels;
  return result;
}

}  // namespace bytecard::minihouse
