#ifndef BYTECARD_MINIHOUSE_IO_STATS_H_
#define BYTECARD_MINIHOUSE_IO_STATS_H_

#include <atomic>
#include <cstdint>

namespace bytecard::minihouse {

// Rows per storage block. Column I/O is charged at block granularity, the
// same granularity at which a columnar engine issues reads; the multi-stage
// reader saves I/O precisely by skipping blocks whose candidate set is empty.
inline constexpr int64_t kBlockRows = 4096;

// Simulated storage behaviour for one database, owned by the Database and
// shared (read-only) by its columns. Replaces the former process-global
// SetStorageCostFactor / SetStorageBlockLatencyNanos knobs so that benches
// with different latency configs can run concurrently without interfering —
// a requirement once the scheduler keeps N queries in flight.
//
//   cost_factor          > 0: issuing a block read performs that many extra
//                         passes over the block (CPU work that serializes on
//                         the issuing core), emulating an I/O-bound storage
//                         layer.
//   block_latency_nanos  > 0: a block read lands this long after it is
//                         issued (Column::IssueRead), and its values may be
//                         used only then. Unlike the cost factor, reads in
//                         flight at the same time overlap, whether one
//                         reader keeps them in flight (a scan's read-ahead
//                         over its next blocks) or several readers do
//                         (morsel-parallel scans, Fig 5, and concurrent
//                         queries under the scheduler) — the
//                         remote/disk-bound behaviour of a warehouse on
//                         disaggregated storage.
//
// Both default to 0 = pure in-memory. Benches that reproduce latency figures
// set them per database; tests leave them off. Fields are atomic so a bench
// can retune them while queries are in flight.
struct StorageProfile {
  std::atomic<int> cost_factor{0};
  std::atomic<int64_t> block_latency_nanos{0};
};

// Per-query I/O accounting. The executor threads one IoStats through a query;
// Figure 6a reports the blocks_read totals.
struct IoStats {
  int64_t blocks_read = 0;
  int64_t bytes_read = 0;
  int64_t rows_scanned = 0;
  // Encoded-storage accounting (DESIGN.md §12). blocks_pruned counts whole
  // blocks skipped via zone maps before any I/O was charged; encoded_blocks
  // counts block reads served from encoded (sealed) storage; the decode
  // counters track this query's traffic through the bounded decode cache.
  int64_t blocks_pruned = 0;
  int64_t encoded_blocks = 0;
  int64_t decode_cache_hits = 0;
  int64_t decode_cache_evictions = 0;

  void AddBlock(int64_t rows, int64_t bytes_per_row) {
    blocks_read += 1;
    bytes_read += rows * bytes_per_row;
    rows_scanned += rows;
  }

  IoStats& operator+=(const IoStats& other) {
    blocks_read += other.blocks_read;
    bytes_read += other.bytes_read;
    rows_scanned += other.rows_scanned;
    blocks_pruned += other.blocks_pruned;
    encoded_blocks += other.encoded_blocks;
    decode_cache_hits += other.decode_cache_hits;
    decode_cache_evictions += other.decode_cache_evictions;
    return *this;
  }
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_IO_STATS_H_
