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
              std::vector<uint8_t>* selection, IoStats* io) {
  const Column::BlockView keys = table.column(sip.column).ViewBlock(b, io);
  for (size_t i = 0; i < selection->size(); ++i) {
    if ((*selection)[i] != 0 && !sip.bloom->MayContain(keys.values[i])) {
      (*selection)[i] = 0;
    }
  }
}

// One filter predicate over one block whose read has landed. A sealed block
// is evaluated in its encoded form, with no decode (or decode-cache
// traffic); a raw-tail block runs through the kernels in place.
void ApplyFilter(const Table& table, const ColumnPredicate& pred, int64_t b,
                 std::vector<uint8_t>* selection, IoStats* io) {
  const Column& col = table.column(pred.column);
  if (const EncodedBlock* encoded = col.encoded_block(b)) {
    EvaluateOnEncodedBlock(pred, *encoded, selection);
  } else {
    EvaluateOnBlock(pred, col.ViewBlock(b, io).values, selection);
  }
}

// Grows `out` by `n` values and returns where they go.
int64_t* Extend(std::vector<int64_t>* out, size_t n) {
  const size_t at = out->size();
  out->resize(at + n);
  return out->data() + at;
}

}  // namespace

// Single-stage: one stage issues one read per distinct column the block
// needs — the SIP column, the filter columns and the output columns — then
// applies SIP (first, when present) and every predicate, and builds tuples
// in the same pass, before knowing what survived.
//
// Multi-stage: the SIP stage first (the semi-join filter is typically the
// most selective predicate available), then one stage per filter column, at
// its first predicate's place in the chosen order, applying every predicate
// on that column, then materialization. A block whose candidate set empties
// runs no further stage. Materialization reads every needed column —
// output columns AND filter columns (their values are part of the tuple).
// This re-read of filter columns is exactly why multi-stage loses to
// single-stage on non-selective predicates (paper §5.1.2).
ScanPipeline::ScanPipeline(const Table& table, const Conjunction& filters,
                           const std::vector<int>& output_columns,
                           const ScanOptions& options, int64_t block_begin,
                           int64_t block_end, IoStats* io)
    : table_(table),
      filters_(filters),
      sip_(options.sip),
      single_stage_(options.reader == ReaderKind::kSingleStage),
      prune_blocks_(options.features.prune_blocks),
      tuple_columns_(output_columns),
      num_outputs_(output_columns.size()),
      next_(block_begin),
      end_(block_end),
      picked_(kBlockRows) {
  const bool has_sip = sip_.bloom != nullptr && sip_.column >= 0;
  if (single_stage_ || (filters.empty() && !has_sip)) {
    Stage stage;
    stage.sip = has_sip;
    auto read = [&stage](int column) {
      if (std::find(stage.reads.begin(), stage.reads.end(), column) ==
          stage.reads.end()) {
        stage.reads.push_back(column);
      }
    };
    if (has_sip) read(sip_.column);
    for (size_t f = 0; f < filters.size(); ++f) {
      read(filters[f].column);
      stage.filters.push_back(static_cast<int>(f));
    }
    for (int column : output_columns) read(column);
    stages_.push_back(std::move(stage));
  } else {
    std::vector<int> order = options.filter_order;
    if (order.empty()) {
      order.resize(filters.size());
      std::iota(order.begin(), order.end(), 0);
    }
    BC_CHECK(order.size() == filters.size());
    if (has_sip) stages_.push_back({{sip_.column}, true, {}});
    for (int f : order) {
      const int column = filters[f].column;
      auto stage = std::find_if(stages_.begin(), stages_.end(),
                                [column](const Stage& s) {
                                  return !s.sip && s.reads[0] == column;
                                });
      if (stage == stages_.end()) {
        stages_.push_back({{column}, false, {f}});
      } else {
        stage->filters.push_back(f);
      }
    }
    for (const ColumnPredicate& pred : filters) {
      if (std::find(tuple_columns_.begin(), tuple_columns_.end(),
                    pred.column) == tuple_columns_.end()) {
        tuple_columns_.push_back(pred.column);
      }
    }
    stages_.push_back({tuple_columns_, false, {}});
  }
  for (Slot& slot : slots_) live_ += Admit(&slot, io) ? 1 : 0;
}

void ScanPipeline::ArmSip(const SemiJoinFilter& sip) {
  if (sip.bloom == nullptr) return;
  Stage& stage = stages_.front();
  BC_CHECK(single_stage_ && sip_.bloom == nullptr);
  BC_CHECK(std::find(stage.reads.begin(), stage.reads.end(), sip.column) !=
           stage.reads.end());
  sip_ = sip;
  stage.sip = true;
}

void ScanPipeline::Issue(Slot* slot, IoStats* io) {
  slot->landed = {};
  for (int column : stages_[slot->stage].reads) {
    slot->landed = std::max(slot->landed,
                            table_.column(column).IssueRead(slot->block, io));
  }
}

// Starts the range's next unpruned block in `slot`; false when none is left.
// Pruned blocks are skipped before any read is issued.
bool ScanPipeline::Admit(Slot* slot, IoStats* io) {
  slot->block = -1;
  while (next_ < end_) {
    const int64_t b = next_++;
    if (prune_blocks_ && BlockPrunedByZoneMaps(table_, filters_, b)) {
      if (io != nullptr) ++io->blocks_pruned;
      continue;
    }
    slot->block = b;
    slot->stage = 0;
    slot->selection.assign(table_.column(0).BlockRowCount(b), 1);
    Issue(slot, io);
    return true;
  }
  return false;
}

// Runs `slot`'s stage, whose reads have landed; true when the block has a
// next stage to issue.
bool ScanPipeline::RunStage(Slot* slot, ScanResult* result, IoStats* io) {
  const Stage& stage = stages_[slot->stage];
  if (stage.sip) ApplySip(table_, sip_, slot->block, &slot->selection, io);
  for (int f : stage.filters) {
    ApplyFilter(table_, filters_[f], slot->block, &slot->selection, io);
  }
  if (slot->stage + 1 < stages_.size()) {
    return std::any_of(slot->selection.begin(), slot->selection.end(),
                       [](uint8_t v) { return v != 0; });
  }
  Emit(*slot, result, io);
  return false;
}

// Appends the block's selected rows column by column: the offsets of the
// selected rows once, then their ids and each output column's values, one
// gather each, in row order. Every tuple column is viewed, in order, so the
// decode cache sees the lookups of reading the whole tuple; the views of
// the re-read filter columns past the outputs are dropped unused.
void ScanPipeline::Emit(const Slot& slot, ScanResult* result, IoStats* io) {
  const std::vector<uint8_t>& selection = slot.selection;
  uint32_t* picked = picked_.data();
  size_t n = 0;
  for (size_t i = 0; i < selection.size(); ++i) {
    picked[n] = static_cast<uint32_t>(i);
    n += selection[i] != 0 ? 1 : 0;
  }
  const int64_t base = slot.block * kBlockRows;
  int64_t* ids = Extend(&result->row_ids, n);
  for (size_t k = 0; k < n; ++k) ids[k] = base + picked[k];
  for (size_t c = 0; c < tuple_columns_.size(); ++c) {
    const Column::BlockView view =
        table_.column(tuple_columns_[c]).ViewBlock(slot.block, io);
    if (c >= num_outputs_) continue;
    const int64_t* values = view.values.data();
    int64_t* dest = Extend(&result->materialized[c], n);
    for (size_t k = 0; k < n; ++k) dest[k] = values[picked[k]];
  }
}

// The slots are visited round robin, which is the order their stages were
// issued in: a block that retires hands its slot to the next unpruned block
// of the range, whose first stage is then the newest. So every wait is for
// the oldest read in flight and, since every stage has the same latency and
// every chain emits in its last stage, blocks retire and emit their rows in
// block order. The reads are those of a block-by-block scan: none past the
// range end, none for a pruned block, and no later stage for a block an
// earlier stage emptied.
ScanResult ScanPipeline::Drain(IoStats* io) {
  ScanResult result;
  result.materialized.resize(num_outputs_);
  for (size_t s = 0; live_ > 0; s = (s + 1) % slots_.size()) {
    Slot& slot = slots_[s];
    if (slot.block < 0) continue;
    if (slot.landed > std::chrono::steady_clock::now()) {
      SleepUntil(slot.landed);
    }
    if (RunStage(&slot, &result, io)) {
      ++slot.stage;
      Issue(&slot, io);
    } else if (!Admit(&slot, io)) {
      --live_;
    }
  }
  return result;
}

ScanResult ScanTable(const Table& table, const Conjunction& filters,
                     const std::vector<int>& output_columns,
                     const ScanOptions& options, IoStats* io) {
  const int64_t num_blocks = table.num_blocks();
  if (options.dop <= 1 || num_blocks <= 1) {
    return ScanPipeline(table, filters, output_columns, options, 0,
                        num_blocks, io)
        .Drain(io);
  }
  const int dop = static_cast<int>(std::min<int64_t>(options.dop, num_blocks));

  // Morsel-parallel scan: contiguous block-range morsels drained from a
  // shared counter, per-worker IoStats, results concatenated in block order
  // (so output is bit-identical to a serial scan).
  const int64_t morsels = std::max<int64_t>(
      dop, (num_blocks + kScanMorselBlocks - 1) / kScanMorselBlocks);
  std::vector<ScanResult> parts(morsels);
  std::vector<IoStats> worker_io(dop);
  common::ParallelMorsels(
      common::ThreadPool::Global(), morsels, dop, options.morsel_policy,
      [&](int64_t m, int slot) {
        const int64_t b0 = num_blocks * m / morsels;
        const int64_t b1 = num_blocks * (m + 1) / morsels;
        parts[m] = ScanPipeline(table, filters, output_columns, options, b0,
                                b1, &worker_io[slot])
                       .Drain(&worker_io[slot]);
      });

  ScanResult result;
  result.materialized.resize(output_columns.size());
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
