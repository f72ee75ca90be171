#ifndef BYTECARD_BYTECARD_FEEDBACK_FEEDBACK_CACHE_H_
#define BYTECARD_BYTECARD_FEEDBACK_FEEDBACK_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bytecard::feedback {

// LRU cache of observed subplan cardinalities, keyed by the canonical
// cross-query fingerprints from minihouse/feedback.h. A hit answers the
// optimizer's question with the *exact* cardinality a previous execution of
// the same subplan produced — no model call, q-error 1 by construction.
//
// Correctness rests entirely on invalidation: a cached actual is only valid
// while the underlying data is. Invalidation is epoch-based per table: every
// entry records the ingest epoch of each base table it reads at Put time,
// and an ingest batch into table T just bumps T's epoch (O(1), no scan).
// Entries whose recorded epoch lags the table's current epoch are stale —
// Lookup drops them lazily, and stats() reports them as invalidated, so the
// observable contract matches the old eager per-table scan exactly. Picking
// up retrained models (ByteCard::RefreshModels) still flushes wholesale
// (InvalidateAll; cheap full drop keeps that rule obviously safe). Other
// snapshot publishes keep the entries: a health flip (demotion or
// re-promotion) or a mined routing table changes no table's data, and an
// incremental delta publish bumps only the ingested table's epoch.
class FeedbackCache {
 public:
  struct Options {
    size_t capacity = 2048;  // entries (LRU eviction)
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t inserts = 0;
    int64_t evictions = 0;    // LRU capacity evictions
    int64_t invalidated = 0;  // entries dropped (or pending-stale) by invalidation
    size_t entries = 0;       // currently cached and live
  };

  FeedbackCache() : FeedbackCache(Options{}) {}
  explicit FeedbackCache(Options options);

  // On hit, refreshes recency and writes the observed cardinality. A stale
  // entry (some base table ingested since Put) is dropped and misses.
  bool Lookup(const std::string& fingerprint, double* actual_rows);

  // Inserts/overwrites the observation, stamped with each base table's
  // current ingest epoch. `tables` scopes per-table invalidation (every base
  // table the subplan reads).
  void Put(const std::string& fingerprint, double actual_rows,
           const std::vector<std::string>& tables);

  // Marks every entry touching `table` stale by bumping its ingest epoch
  // (called on ingest into that table). O(1).
  void InvalidateTable(const std::string& table);

  // Drops everything (called on full snapshot publish).
  void InvalidateAll();

  // Current ingest epoch of `table` (0 if never invalidated).
  uint64_t TableEpoch(const std::string& table) const;

  Stats stats() const;

 private:
  struct Entry {
    double actual_rows = 0.0;
    // Each base table with the epoch observed at Put time.
    std::vector<std::pair<std::string, uint64_t>> tables;
    std::list<std::string>::iterator lru_it;  // position in lru_
  };

  void TouchLocked(Entry* entry, const std::string& fingerprint);
  bool IsStaleLocked(const Entry& entry) const;

  Options options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, uint64_t> table_epochs_;
  std::list<std::string> lru_;  // front = most recently used
  Stats stats_;
};

}  // namespace bytecard::feedback

#endif  // BYTECARD_BYTECARD_FEEDBACK_FEEDBACK_CACHE_H_
