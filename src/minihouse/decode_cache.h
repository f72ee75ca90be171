#ifndef BYTECARD_MINIHOUSE_DECODE_CACHE_H_
#define BYTECARD_MINIHOUSE_DECODE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bytecard::minihouse {

// Bounded LRU cache of decoded blocks, shared by every column of one
// Database (DESIGN.md §12). Sealed columns keep only encoded blocks
// resident; a scan that needs a non-plain block's decoded values (the SIP
// test and materialization) gets them through here, so the decoded working
// set — not the whole table — is what occupies memory, and its size is
// capped by the byte budget. Filters evaluate on the encoded form and
// NumericAt reads one value from it, neither through the cache.
//
// Entries are shared_ptr snapshots: a reader's view (Column::BlockView)
// holds its block alive even if the entry is evicted mid-scan, so eviction
// never invalidates in-flight reads. Thread-safe; concurrent scans on the
// same table share entries. Plain-encoded blocks never enter the cache: a
// view points straight into the encoded form.
class DecodeCache {
 public:
  using BlockRef = std::shared_ptr<const std::vector<int64_t>>;

  static constexpr int64_t kDefaultBudgetBytes = 64 << 20;

  explicit DecodeCache(int64_t budget_bytes = kDefaultBudgetBytes)
      : budget_bytes_(budget_bytes) {}

  DecodeCache(const DecodeCache&) = delete;
  DecodeCache& operator=(const DecodeCache&) = delete;

  // Retunes the budget (evicting down to it if shrunk). Thread-safe.
  void SetBudgetBytes(int64_t bytes);
  int64_t budget_bytes() const;

  // Returns the cached decode of (column, block) or null. Counts a hit or a
  // miss and refreshes LRU position on hit.
  BlockRef Lookup(const void* column, int64_t block);

  // Caches a freshly decoded block and returns a ref to it (the cached copy
  // if another thread raced us in). Blocks larger than the whole budget are
  // returned uncached. `evicted` (optional) receives the number of entries
  // evicted to make room.
  BlockRef Insert(const void* column, int64_t block,
                  std::vector<int64_t> values, int64_t* evicted);

  // Drops every entry of `column`. Called when a column re-seals, unseals
  // its tail for appends, or dies — any event that could reuse a (column,
  // block) key for different contents.
  void InvalidateColumn(const void* column);

  // Drops only (column, block). The append path uses this when it re-opens a
  // partial tail block: every earlier sealed block keeps its bytes (and its
  // cache entry), so an ingest batch does not cold-start the whole column.
  void InvalidateBlock(const void* column, int64_t block);

  // Decoded bytes currently resident.
  int64_t ResidentBytes() const;

  // Lifetime totals (monotonic, process-wide for this cache).
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  using Key = std::pair<const void*, int64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<const void*>()(k.first) * 1000003u ^
             std::hash<int64_t>()(k.second);
    }
  };
  struct Entry {
    Key key;
    BlockRef values;
    int64_t bytes = 0;
  };

  static int64_t EntryBytes(const std::vector<int64_t>& values) {
    // Payload plus per-entry bookkeeping (list node, map slot, control).
    return static_cast<int64_t>(values.size()) * 8 + 64;
  }

  // Evicts LRU entries until resident_bytes_ <= budget. Caller holds mu_.
  int64_t EvictToBudgetLocked();

  mutable std::mutex mu_;
  int64_t budget_bytes_;
  int64_t resident_bytes_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_DECODE_CACHE_H_
