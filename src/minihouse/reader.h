#ifndef BYTECARD_MINIHOUSE_READER_H_
#define BYTECARD_MINIHOUSE_READER_H_

#include <cstdint>
#include <vector>

#include "common/bloom.h"
#include "common/thread_pool.h"
#include "minihouse/io_stats.h"
#include "minihouse/predicate.h"
#include "minihouse/table.h"

namespace bytecard::minihouse {

// Materialization strategy (paper §3.1.2 and §5.1). ByteHouse started with a
// one-stage reader and, with ByteCard's estimates, added a multi-stage reader
// plus a dynamic choice between them.
enum class ReaderKind {
  kSingleStage,  // read every needed column once, filter in one pass
  kMultiStage,   // filter column-by-column, then materialize surviving blocks
};

// Sideways information passing (paper §3.1.2): a join build side publishes a
// Bloom filter of its key values; the probe-side scan applies it to `column`
// as its most selective stage, eliminating non-joining rows (and, in the
// multi-stage reader, whole blocks) before other columns are even read.
struct SemiJoinFilter {
  int column = -1;
  const BloomFilter* bloom = nullptr;  // not owned; must outlive the scan
};

// The execution switches, declared once: OptimizerOptions carries the
// configured value, Optimizer::Plan copies it onto the PhysicalPlan, and the
// DAG compiler hands the plan's copy to every scan. Each switch trades only
// CPU work or I/O; result rows are byte-identical with any combination, and
// the off settings exist for the reference legs that measure them.
struct ExecFeatures {
  // Sideways information passing: a join build side publishes a Bloom
  // filter of its keys into the probe-side scan (paper §3.1.2).
  bool sip = true;
  // Late projection: ProjectOps drop intermediate columns at their last
  // consumer (required-column analysis). I/O is identical either way; off
  // carries every scanned column through every join.
  bool prune_columns = true;
  // Estimate-driven operator kernels (DESIGN.md §11): the DAG compiler swaps
  // in a dense-array aggregate / array-index join when the key column's
  // min/max domain is narrow enough; runtime guards degrade to the generic
  // path on any domain violation.
  bool specialize_ops = true;
  // Zone-map block pruning (DESIGN.md §12): skip a block, before charging
  // any I/O, when some filter's range cannot overlap its min/max. Only
  // blocks_read/blocks_pruned change.
  bool prune_blocks = true;
};

struct ScanOptions {
  ReaderKind reader = ReaderKind::kSingleStage;
  // For the multi-stage reader: evaluation order as indices into the filter
  // conjunction. Empty means textual order.
  std::vector<int> filter_order;
  // Optional SIP filter; runs before (multi-stage) or alongside
  // (single-stage) the filter conjunction.
  SemiJoinFilter sip;
  // Degree of parallelism: number of concurrent morsel drainers splitting
  // the block range. 1 = serial. Any dop produces identical output rows (in
  // identical order) and identical IoStats totals: morsels are contiguous
  // block ranges merged back in block order, and every block is read by
  // exactly one worker.
  int dop = 1;
  // Scheduling of the scan's helper tasks: the owning query's lane and
  // morsel budget (from its QueryContext). Defaults reproduce standalone
  // behaviour — fast lane, unbudgeted.
  common::MorselPolicy morsel_policy;
  // The plan's switches; a scan honours prune_blocks.
  ExecFeatures features;
};

// Output of a table scan: surviving row ids plus materialized tuples for the
// requested output columns (column-major, one vector per output column).
struct ScanResult {
  std::vector<int64_t> row_ids;
  std::vector<std::vector<int64_t>> materialized;
  // Parallel-execution accounting: drainers actually used and morsels
  // executed through the pool (0 when the scan ran serially).
  int dop_used = 1;
  int64_t parallel_tasks = 0;
  int64_t rows_matched() const {
    return static_cast<int64_t>(row_ids.size());
  }
};

// Read-ahead depth: the blocks whose chains one scan range (one drainer's
// morsel) keeps in flight. Deeper read-ahead hides more of a read's latency
// but leaves a scan CPU-bound, its speed then following the host's from run
// to run. On perfbench's imdb-scan (4-vCPU host, 200 us reads) a request
// spends ~12 ms of CPU on ~250 block reads, ~50 us each: three blocks in
// flight cover most of a read and four all of it, but the fourth block
// saved ~1.4 ms of p50 while its qps spread between runs reached the
// benchmark's bound (DESIGN.md §12).
inline constexpr int kReadAheadBlocks = 3;

// Scans `table` with `filters`, materializing `output_columns`.
//
// Single-stage: every needed column (filter and output) is read exactly once
// per block; all predicates are applied in one pass. I/O is independent of
// selectivity — the right choice when most rows survive.
//
// Multi-stage: stage k reads filter column k only for blocks that still hold
// at least one candidate row; a final materialization stage re-reads all
// needed columns for surviving blocks to build tuples. Very cheap when an
// early column kills whole blocks; for non-selective filters it pays roughly
// one extra pass over the filter columns — the regression the paper's dynamic
// reader selection avoids.
//
// Both readers run each block that zone maps do not prune through a chain
// of stages — one stage for the single-stage reader; SIP, each filter, then
// materialization for the multi-stage reader — and keep up to
// kReadAheadBlocks blocks' chains in flight: a stage's reads are issued as
// soon as the previous stage has run, so their storage latency overlaps the
// evaluation of the blocks ahead (see StorageProfile and DESIGN.md §12).
ScanResult ScanTable(const Table& table, const Conjunction& filters,
                     const std::vector<int>& output_columns,
                     const ScanOptions& options, IoStats* io);

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_READER_H_
