#include "minihouse/reader.h"

#include <algorithm>
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

// Read window: a scan range is walked in windows of up to this many
// unpruned blocks. A reader issues the reads of a whole window (one stage of
// it, for the multi-stage reader) and waits once, so their storage
// latencies overlap (DESIGN.md §12). Reads in flight per drainer stay below
// this many times the columns one stage reads. One block keeps a dop-1
// scan's time set mostly by storage latency: with wider windows it waits
// less and its time is mostly CPU work, which follows the host's speed from
// one run to the next (DESIGN.md §12).
constexpr int64_t kReadWindowBlocks = 1;

// True when some filter's zone-map test proves block `b` holds no matching
// row. A block without zone maps (raw storage, appended tail) never prunes.
bool BlockPrunedByZoneMaps(const Table& table, const Conjunction& filters,
                           int64_t b) {
  for (const ColumnPredicate& pred : filters) {
    const ZoneMap* zone = table.column(pred.column).zone_map(b);
    if (zone != nullptr && !ZoneMapMayMatch(pred, *zone)) return true;
  }
  return false;
}

// Fills `window` with the next blocks of [*next, end) that zone maps do not
// prune, up to kReadWindowBlocks of them, and advances *next past them.
// Pruned blocks are skipped before any read is issued. Both readers form
// their windows here, so they skip exactly the same blocks and reader
// choice stays a pure cost decision.
void NextWindow(const Table& table, const Conjunction& filters,
                const ScanOptions& options, int64_t* next, int64_t end,
                std::vector<int64_t>* window, IoStats* io) {
  window->clear();
  while (*next < end &&
         static_cast<int64_t>(window->size()) < kReadWindowBlocks) {
    const int64_t b = (*next)++;
    if (options.features.prune_blocks &&
        BlockPrunedByZoneMaps(table, filters, b)) {
      if (io != nullptr) ++io->blocks_pruned;
      continue;
    }
    window->push_back(b);
  }
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

// The block reads one reader has in flight: Issue starts a read, Await
// blocks until every read issued since the last Await has landed.
class InFlightReads {
 public:
  void Issue(const Column& column, int64_t b, IoStats* io) {
    landed_ = std::max(landed_, column.IssueRead(b, io));
  }
  void Await() {
    if (landed_ > std::chrono::steady_clock::now()) SleepUntil(landed_);
    landed_ = {};
  }

 private:
  std::chrono::steady_clock::time_point landed_{};
};

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

// One filter predicate over one block whose read has landed. On encoded
// storage with the kernel path enabled, the predicate evaluates directly
// over the encoded block, with no decode (or decode-cache traffic).
// Otherwise the block is fetched (decoding through the cache when sealed)
// and evaluated over the values. Selections are byte-identical across all
// paths.
void ApplyFilter(const Table& table, const ColumnPredicate& pred, int64_t b,
                 const ScanOptions& options, std::vector<int64_t>* scratch,
                 std::vector<uint8_t>* selection, ScanResult* result,
                 IoStats* io) {
  const Column& col = table.column(pred.column);
  if (options.features.specialized_predicates) {
    if (const EncodedBlock* encoded = col.encoded_block(b)) {
      EvaluateOnEncodedBlock(pred, *encoded, selection);
    } else {
      col.FetchBlock(b, scratch, io);
      EvaluateOnBlock(pred, *scratch, selection);
    }
    ++result->kernel_blocks;
    return;
  }
  col.FetchBlock(b, scratch, io);
  EvaluateOnBlockGeneric(pred, *scratch, selection);
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

// Single-stage scan over a block range. Per window, it issues every read a
// one-pass reader charges, for every block of the window: the SIP column,
// one read per filter predicate, and each output column not already read
// for one of those roles. It waits once, then evaluates and emits block by
// block.
void SingleStageScanRange(const Table& table, const Conjunction& filters,
                          const std::vector<int>& output_columns,
                          const ScanOptions& options, int64_t block_begin,
                          int64_t block_end, ScanResult* result, IoStats* io) {
  const bool has_sip = options.sip.bloom != nullptr && options.sip.column >= 0;
  // An output column that is also the SIP column or a filter column is
  // fetched from the read issued for that role, so its block is charged
  // once.
  std::vector<uint8_t> already_read(output_columns.size(), 0);
  for (size_t c = 0; c < output_columns.size(); ++c) {
    already_read[c] = has_sip && options.sip.column == output_columns[c];
    for (const ColumnPredicate& pred : filters) {
      if (pred.column == output_columns[c]) already_read[c] = 1;
    }
  }

  std::vector<int64_t> window;
  std::vector<int64_t> scratch;
  std::vector<std::vector<int64_t>> out_blocks(output_columns.size());
  std::vector<uint8_t> selection;
  InFlightReads reads;
  for (int64_t next = block_begin; next < block_end;) {
    NextWindow(table, filters, options, &next, block_end, &window, io);
    for (int64_t b : window) {
      if (has_sip) reads.Issue(table.column(options.sip.column), b, io);
      for (const ColumnPredicate& pred : filters) {
        reads.Issue(table.column(pred.column), b, io);
      }
      for (size_t c = 0; c < output_columns.size(); ++c) {
        if (already_read[c] == 0) {
          reads.Issue(table.column(output_columns[c]), b, io);
        }
      }
    }
    reads.Await();

    for (int64_t b : window) {
      selection.assign(table.column(0).BlockRowCount(b), 1);
      // SIP first when present: one-pass readers interleave it with the
      // other predicates over the same block.
      if (has_sip) ApplySip(table, options.sip, b, &scratch, &selection, io);
      for (const ColumnPredicate& pred : filters) {
        ApplyFilter(table, pred, b, options, &scratch, &selection, result,
                    io);
      }
      // Output columns are fetched unconditionally: the single-stage reader
      // constructs tuples in the same pass, before knowing what survived.
      // A column already read for another role reports no decode-cache
      // traffic for this second fetch, as it reports no second read.
      for (size_t c = 0; c < output_columns.size(); ++c) {
        table.column(output_columns[c])
            .FetchBlock(b, &out_blocks[c], already_read[c] ? nullptr : io);
      }
      EmitRows(b, selection, out_blocks, result);
    }
  }
}

// Multi-stage scan over a block range, stage-major within each window: the
// SIP stage, then the filter stages in the chosen order, then tuple
// reconstruction. Each stage issues its reads for the window's blocks that
// still hold a candidate row and waits once; a block whose candidate set
// empties drops out of the later stages. Stage/block independence makes
// this read exactly the same (stage, block) pairs as a block-major pass over
// the same range, so IoStats totals are unchanged; rows are still emitted in
// block order.
void MultiStageScanRange(const Table& table, const Conjunction& filters,
                         const std::vector<int>& order,
                         const std::vector<int>& materialize_columns,
                         const std::vector<int>& output_columns,
                         const ScanOptions& options, int64_t block_begin,
                         int64_t block_end, ScanResult* result, IoStats* io) {
  const bool has_sip = options.sip.bloom != nullptr && options.sip.column >= 0;
  std::vector<int64_t> window;
  // Per window slot: the block's selection. `live` lists the slots that
  // still hold a candidate row, in block order.
  std::vector<std::vector<uint8_t>> selections(kReadWindowBlocks);
  std::vector<size_t> live;
  std::vector<int64_t> scratch;
  std::vector<std::vector<int64_t>> out_blocks(output_columns.size());
  InFlightReads reads;

  // Issues `column`'s reads for every live block and waits for them.
  auto read_live = [&](const Column& column) {
    for (size_t s : live) reads.Issue(column, window[s], io);
    reads.Await();
  };
  auto drop_dead = [&] {
    std::erase_if(live, [&](size_t s) {
      return std::none_of(selections[s].begin(), selections[s].end(),
                          [](uint8_t v) { return v != 0; });
    });
  };

  for (int64_t next = block_begin; next < block_end;) {
    NextWindow(table, filters, options, &next, block_end, &window, io);
    live.clear();
    for (size_t s = 0; s < window.size(); ++s) {
      selections[s].assign(table.column(0).BlockRowCount(window[s]), 1);
      live.push_back(s);
    }

    // SIP stage first: the semi-join filter is typically the most selective
    // predicate available, so it runs before any filter column.
    if (has_sip) {
      read_live(table.column(options.sip.column));
      for (size_t s : live) {
        ApplySip(table, options.sip, window[s], &scratch, &selections[s], io);
      }
      drop_dead();
    }

    // Filtering stages: each stage reads only the blocks that still hold a
    // candidate row.
    for (size_t stage = 0; !live.empty() && stage < order.size(); ++stage) {
      const ColumnPredicate& pred = filters[order[stage]];
      read_live(table.column(pred.column));
      for (size_t s : live) {
        ApplyFilter(table, pred, window[s], options, &scratch, &selections[s],
                    result, io);
      }
      drop_dead();
    }

    // Materialization stage: tuples are reconstructed for surviving blocks
    // only, but reconstruction touches every needed column — output columns
    // AND filter columns (their values are part of the tuple). This re-read
    // of filter columns is exactly why multi-stage loses to single-stage on
    // non-selective predicates (paper §5.1.2).
    for (size_t s : live) {
      for (int column : materialize_columns) {
        reads.Issue(table.column(column), window[s], io);
      }
    }
    reads.Await();
    for (size_t s : live) {
      for (size_t c = 0; c < materialize_columns.size(); ++c) {
        std::vector<int64_t>* dest =
            c < output_columns.size() ? &out_blocks[c] : &scratch;
        table.column(materialize_columns[c]).FetchBlock(window[s], dest, io);
      }
      EmitRows(window[s], selections[s], out_blocks, result);
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

  const bool has_sip = options.sip.bloom != nullptr && options.sip.column >= 0;
  const bool single_stage = options.reader == ReaderKind::kSingleStage ||
                            (filters.empty() && !has_sip);
  const int64_t num_blocks = (table.num_rows() + kBlockRows - 1) / kBlockRows;

  // Multi-stage plumbing shared by every morsel.
  std::vector<int> order;
  std::vector<int> materialize_columns;
  if (!single_stage) {
    order = options.filter_order;
    if (order.empty()) {
      order.resize(filters.size());
      std::iota(order.begin(), order.end(), 0);
    }
    BC_CHECK(order.size() == filters.size());
    materialize_columns = output_columns;
    for (const ColumnPredicate& pred : filters) {
      if (std::find(materialize_columns.begin(), materialize_columns.end(),
                    pred.column) == materialize_columns.end()) {
        materialize_columns.push_back(pred.column);
      }
    }
  }

  auto scan_range = [&](int64_t b0, int64_t b1, ScanResult* out,
                        IoStats* out_io) {
    if (single_stage) {
      SingleStageScanRange(table, filters, output_columns, options, b0, b1,
                           out, out_io);
    } else {
      MultiStageScanRange(table, filters, order, materialize_columns,
                          output_columns, options, b0, b1, out, out_io);
    }
  };

  const int dop =
      static_cast<int>(std::clamp<int64_t>(options.dop, 1, num_blocks));
  if (dop <= 1) {
    scan_range(0, num_blocks, &result, io);
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
                            scan_range(b0, b1, &parts[m], &worker_io[slot]);
                          });

  int64_t total_rows = 0;
  for (const ScanResult& part : parts) total_rows += part.rows_matched();
  result.row_ids.reserve(total_rows);
  for (auto& col : result.materialized) col.reserve(total_rows);
  for (ScanResult& part : parts) {
    result.kernel_blocks += part.kernel_blocks;
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
