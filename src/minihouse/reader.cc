#include "minihouse/reader.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace bytecard::minihouse {

namespace {

// Morsel granularity: contiguous block ranges of this size, so each drainer
// claims a few morsels over the scan and load balances without work
// stealing.
constexpr int64_t kScanMorselBlocks = 4;

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

// One filter stage over one block. On encoded storage with the kernel path
// enabled, predicates evaluate directly over the encoded block — the block's
// I/O is charged but no decode (or decode-cache traffic) happens. Otherwise
// the block is read (decoding through the cache when sealed) and evaluated
// over the decoded values. Selections are byte-identical across all paths.
void ApplyFilterStage(const Table& table, const ColumnPredicate& pred,
                      int64_t b, const ScanOptions& options,
                      std::vector<int64_t>* scratch,
                      std::vector<uint8_t>* selection, ScanResult* result,
                      IoStats* io) {
  const Column& col = table.column(pred.column);
  if (options.features.specialized_predicates) {
    if (const EncodedBlock* encoded = col.encoded_block(b)) {
      EvaluateOnEncodedBlock(pred, *encoded, selection);
      col.ChargeBlockRead(b, io);
      ++result->kernel_blocks;
      return;
    }
    col.ReadBlock(b, scratch, io);
    EvaluateOnBlock(pred, *scratch, selection);
    ++result->kernel_blocks;
    return;
  }
  col.ReadBlock(b, scratch, io);
  EvaluateOnBlockGeneric(pred, *scratch, selection);
}

void SingleStageScanRange(const Table& table, const Conjunction& filters,
                          const std::vector<int>& output_columns,
                          const ScanOptions& options, int64_t block_begin,
                          int64_t block_end, ScanResult* result, IoStats* io) {
  std::vector<int64_t> block;
  std::vector<std::vector<int64_t>> out_blocks(output_columns.size());
  std::vector<uint8_t> selection;

  for (int64_t b = block_begin; b < block_end; ++b) {
    // Zone-map pruning: skip the whole block before charging any I/O.
    if (options.features.prune_blocks &&
        BlockPrunedByZoneMaps(table, filters, b)) {
      if (io != nullptr) ++io->blocks_pruned;
      continue;
    }
    const int64_t base = b * kBlockRows;
    const int64_t rows = table.column(0).BlockRowCount(b);
    selection.assign(rows, 1);

    // SIP first when present: one-pass readers interleave it with the
    // other predicates over the same block.
    if (options.sip.bloom != nullptr && options.sip.column >= 0) {
      table.column(options.sip.column).ReadBlock(b, &block, io);
      for (int64_t i = 0; i < rows; ++i) {
        if (selection[i] != 0 && !options.sip.bloom->MayContain(block[i])) {
          selection[i] = 0;
        }
      }
    }
    // Apply the filter predicates (directly over encoded blocks when the
    // kernel path allows).
    for (const ColumnPredicate& pred : filters) {
      ApplyFilterStage(table, pred, b, options, &block, &selection, result,
                       io);
    }
    // Read output columns unconditionally: the single-stage reader constructs
    // tuples in the same pass, before knowing what survived.
    for (size_t c = 0; c < output_columns.size(); ++c) {
      // A column can be both a filter and an output column; it is still read
      // once per role in a real one-pass reader only if distinct — here we
      // avoid double-charging by checking membership.
      bool already_read =
          options.sip.bloom != nullptr &&
          options.sip.column == output_columns[c];
      for (const ColumnPredicate& pred : filters) {
        if (pred.column == output_columns[c]) {
          already_read = true;
          break;
        }
      }
      table.column(output_columns[c])
          .ReadBlock(b, &out_blocks[c], already_read ? nullptr : io);
    }
    for (int64_t i = 0; i < rows; ++i) {
      if (selection[i] == 0) continue;
      result->row_ids.push_back(base + i);
      for (size_t c = 0; c < output_columns.size(); ++c) {
        result->materialized[c].push_back(out_blocks[c][i]);
      }
    }
  }
}

// Multi-stage scan over a block range, block-major: every block runs the SIP
// stage, then the filter stages in the chosen order (stopping as soon as the
// block's candidate set empties), then tuple reconstruction for survivors.
// Stage/block independence makes this read exactly the same (stage, block)
// pairs as a stage-major pass over the same range, so IoStats totals are
// unchanged — only the read *order* differs.
void MultiStageScanRange(const Table& table, const Conjunction& filters,
                         const std::vector<int>& order,
                         const std::vector<int>& materialize_columns,
                         const std::vector<int>& output_columns,
                         const ScanOptions& options, int64_t block_begin,
                         int64_t block_end, ScanResult* result, IoStats* io) {
  std::vector<int64_t> block;
  std::vector<uint8_t> selection;
  std::vector<std::vector<int64_t>> out_blocks(output_columns.size());
  std::vector<int64_t> scratch;

  for (int64_t b = block_begin; b < block_end; ++b) {
    // Zone-map pruning, identical to the single-stage reader's: both readers
    // skip exactly the same blocks, so reader choice stays a pure cost
    // decision.
    if (options.features.prune_blocks &&
        BlockPrunedByZoneMaps(table, filters, b)) {
      if (io != nullptr) ++io->blocks_pruned;
      continue;
    }
    const int64_t base = b * kBlockRows;
    const int64_t rows = table.column(0).BlockRowCount(b);
    selection.assign(rows, 1);
    bool alive = true;

    // SIP stage first: the semi-join filter is typically the most selective
    // predicate available, so it runs before any filter column.
    if (options.sip.bloom != nullptr && options.sip.column >= 0) {
      table.column(options.sip.column).ReadBlock(b, &block, io);
      bool any = false;
      for (int64_t i = 0; i < rows; ++i) {
        if (selection[i] != 0 && !options.sip.bloom->MayContain(block[i])) {
          selection[i] = 0;
        }
        any = any || selection[i] != 0;
      }
      alive = any;
    }

    // Filtering stages: each stage runs only while the block holds at least
    // one candidate row.
    for (size_t stage = 0; alive && stage < order.size(); ++stage) {
      const ColumnPredicate& pred = filters[order[stage]];
      ApplyFilterStage(table, pred, b, options, &block, &selection, result,
                       io);
      bool any = false;
      for (uint8_t s : selection) {
        if (s != 0) {
          any = true;
          break;
        }
      }
      alive = any;
    }
    if (!alive) continue;

    // Materialization stage: tuples are reconstructed for surviving blocks
    // only, but reconstruction touches every needed column — output columns
    // AND filter columns (their values are part of the tuple). This re-read
    // of filter columns is exactly why multi-stage loses to single-stage on
    // non-selective predicates (paper §5.1.2).
    for (size_t c = 0; c < materialize_columns.size(); ++c) {
      std::vector<int64_t>* dest =
          c < output_columns.size() ? &out_blocks[c] : &scratch;
      table.column(materialize_columns[c]).ReadBlock(b, dest, io);
    }
    for (int64_t i = 0; i < rows; ++i) {
      if (selection[i] == 0) continue;
      result->row_ids.push_back(base + i);
      for (size_t c = 0; c < output_columns.size(); ++c) {
        result->materialized[c].push_back(out_blocks[c][i]);
      }
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
