#ifndef BYTECARD_MINIHOUSE_COLUMN_H_
#define BYTECARD_MINIHOUSE_COLUMN_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "minihouse/decode_cache.h"
#include "minihouse/encoded_block.h"
#include "minihouse/io_stats.h"
#include "minihouse/schema.h"

namespace bytecard::minihouse {

// Min/max of a column's numeric domain (int64 value, string dictionary code,
// or ordered double code — the same space predicates operate in). Maintained
// at load/append time by Table::Seal and consumed by the kernel-
// specialization layer: a narrow dense domain lets the compiler swap in a
// counting-sort-style aggregate or an array-index join. `valid` is false for
// empty columns and for kArray columns (element lists have no scalar domain).
struct ColumnDomain {
  int64_t min = 0;
  int64_t max = 0;
  bool valid = false;

  // Number of distinct representable values in [min, max], or -1 when the
  // domain is invalid or the width overflows int64 (either way: too wide to
  // specialize on).
  int64_t Width() const {
    if (!valid) return -1;
    const uint64_t w = static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
    if (w >= static_cast<uint64_t>(INT64_MAX)) return -1;
    return static_cast<int64_t>(w) + 1;
  }

  bool Contains(int64_t v) const { return valid && v >= min && v <= max; }
};

// A single stored column. Storage is columnar and block-partitioned:
// - kInt64 columns store int64 values;
// - kString columns store int64 codes into an ordered dictionary (order-
//   preserving encoding, so range predicates on codes match string order);
// - kFloat64 columns store the ordered int64 codes of their doubles
//   (OrderedCodeOf), from append on;
// - kArray columns store per-row element lists (opaque to the estimators).
//
// Lifecycle: rows append into a raw vector; Table::Seal encodes full scalar
// columns into EncodedBlocks (plain / RLE / frame-of-reference, chosen per
// block by size), releases the raw vector and stamps a per-block ZoneMap.
// Appending to a sealed column transparently re-opens the partial tail
// block; the next Seal re-encodes it. Access for query processing goes
// through the block APIs so that I/O is accounted at block granularity;
// non-plain blocks decode lazily through the owning database's bounded
// DecodeCache.
class Column {
 public:
  Column() : type_(DataType::kInt64) {}
  explicit Column(DataType type) : type_(type) {}

  Column(Column&& other) = default;
  Column& operator=(Column&& other) = default;
  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  // Drops this column's decode-cache entries: its address may be reused, and
  // a stale (column, block) key must never serve another column's data.
  ~Column() {
    if (cache_ != nullptr) cache_->InvalidateColumn(this);
  }

  DataType type() const { return type_; }

  int64_t num_rows() const {
    return type_ == DataType::kArray
               ? static_cast<int64_t>(arrays_.size())
               : sealed_rows_ + static_cast<int64_t>(ints_.size());
  }

  int64_t num_blocks() const {
    return (num_rows() + kBlockRows - 1) / kBlockRows;
  }

  // --- Builders -------------------------------------------------------
  void AppendInt(int64_t v) {
    EnsureAppendable();
    ints_.push_back(v);
  }
  void AppendDouble(double v) {
    EnsureAppendable();
    ints_.push_back(OrderedCodeOf(v));
  }
  void AppendArray(std::vector<int64_t> v) { arrays_.push_back(std::move(v)); }

  // Appends a string value, interning it in the dictionary. Codes reflect
  // insertion order until Seal, which re-sorts the dictionary and re-encodes
  // every stored code so range predicates on codes always match string order.
  void AppendString(const std::string& s);

  // Installs a dictionary for a kString column. Codes appended afterwards
  // index into it. A non-sorted dictionary is re-sorted (and the codes
  // remapped) at Seal.
  void SetDictionary(std::vector<std::string> dict) {
    dict_ = std::move(dict);
  }
  void AppendCode(int64_t code) {
    EnsureAppendable();
    ints_.push_back(code);
  }
  const std::vector<std::string>& dictionary() const { return dict_; }

  // Numeric view of row `i`: the int64 value / string code, or the double
  // value cast through a total order-preserving mapping for kFloat64.
  // Sealed rows are answered from the encoded block without materializing it
  // (O(1) for plain/FOR, O(log runs) for RLE).
  int64_t NumericAt(int64_t i) const {
    if (i >= sealed_rows_) return ints_[i - sealed_rows_];
    return blocks_[i / kBlockRows].ValueAt(i % kBlockRows);
  }

  double DoubleAt(int64_t i) const {
    return type_ == DataType::kFloat64 ? DoubleFromOrderedCode(NumericAt(i))
                                       : static_cast<double>(NumericAt(i));
  }

  // Maps a double to an int64 preserving order (IEEE-754 trick), so that all
  // predicate evaluation and model binning can operate in int64 space.
  static int64_t OrderedCodeOf(double d);

  // Inverse of OrderedCodeOf.
  static double DoubleFromOrderedCode(int64_t code);

  // Appends a value given in the column's numeric domain (int64 value,
  // string code, or ordered double code). Used by the ingestion path, which
  // moves rows around in numeric form.
  void AppendNumeric(int64_t code);

  // --- Block reads with I/O accounting ---------------------------------
  // A block read has two halves, so that a reader can keep several reads in
  // flight and wait once for all of them.
  //
  // IssueRead starts the read of block `b`: it charges one block read to
  // `io` (plus encoded_blocks for a sealed block), runs the attached
  // StorageProfile's cost passes, and returns the time the read lands,
  // block_latency_nanos from now (the epoch, already past, when there is no
  // latency). It does not wait.
  std::chrono::steady_clock::time_point IssueRead(int64_t b,
                                                  IoStats* io) const;

  // Block `b`'s numeric values, copied nowhere: a plain block's and the raw
  // tail's in place, another sealed block's as the decode it shares with
  // the attached DecodeCache (a hit, or a miss decoded once and inserted;
  // a detached column decodes into a block of its own). `hold` keeps a
  // decoded block alive even after the cache evicts it; values in place
  // stay valid until the column is next appended to or sealed, which a
  // query's read latch rules out while it scans.
  struct BlockView {
    std::span<const int64_t> values;
    DecodeCache::BlockRef hold;  // null for values in place
  };

  // Views block `b`. Charges no read; `io` receives only the decode-cache
  // hits and evictions. The caller must not view a block, or evaluate a
  // predicate on its encoded form, before its read has landed.
  BlockView ViewBlock(int64_t b, IoStats* io) const;

  int64_t BlockRowCount(int64_t b) const {
    const int64_t begin = b * kBlockRows;
    const int64_t end = std::min(begin + kBlockRows, num_rows());
    return end > begin ? end - begin : 0;
  }

  // --- Encoded-storage introspection ------------------------------------
  // Sealed block `b`, or nullptr for raw-tail / unsealed blocks.
  const EncodedBlock* encoded_block(int64_t b) const {
    return b < static_cast<int64_t>(blocks_.size()) ? &blocks_[b] : nullptr;
  }

  // Block `b`'s zone map, or nullptr when the block has none (raw tail or
  // unsealed column) — callers must treat "no zone map" as "cannot prune".
  const ZoneMap* zone_map(int64_t b) const {
    return b < static_cast<int64_t>(blocks_.size()) ? &blocks_[b].zone()
                                                    : nullptr;
  }

  int64_t num_encoded_blocks() const {
    return static_cast<int64_t>(blocks_.size());
  }

  // Bytes held by the encoded blocks (0 before the first Seal).
  int64_t EncodedBytes() const;

  // Encodes all raw rows into blocks (re-sorting a string column's
  // dictionary first), then refreshes domain stats. Called by Table::Seal;
  // idempotent.
  void SealStorage();

  // Points this column at its database's simulated-storage config and shared
  // decode cache. Called by Database::AddTable; a detached column (unit
  // tests, builders) reads with no simulated cost and decodes uncached.
  void AttachStorage(const StorageProfile* profile, DecodeCache* cache) {
    storage_ = profile;
    cache_ = cache;
  }

  // Approximate in-memory footprint (used by the size checker).
  int64_t MemoryBytes() const;

  // --- Domain statistics ------------------------------------------------
  // The column's numeric min/max, as of the last RefreshDomainStats. Stale
  // until Table::Seal runs (every build path seals), and deliberately only
  // refreshed there: queries racing an in-progress bulk append must not see
  // half-updated bounds.
  const ColumnDomain& domain() const { return domain_; }

  // Recomputes min/max over all rows: sealed blocks fold their zone maps (no
  // data pass), raw tail rows are scanned. Called by Table::Seal.
  void RefreshDomainStats();

  // Installs explicit bounds. Test seam: sealing refreshes the bounds
  // through RefreshDomainStats, so only tests call this, to simulate the
  // stale stats that trigger the mis-specialization guard.
  void SetDomain(ColumnDomain domain) { domain_ = domain; }

 private:
  // Re-opens a partial sealed tail block for appending: decodes it back into
  // the raw vector and drops it from blocks_. Partial blocks only exist
  // immediately after a Seal (which consumes the whole tail), so the raw
  // vector is empty whenever this fires.
  void EnsureAppendable();

  // Decodes every block back into the raw vector (dictionary re-sort).
  void UnsealAll();

  // Encodes all raw rows into blocks and releases the raw vector.
  void EncodeTail();

  // Sorts dict_ and rewrites every stored code against the sorted order.
  // No-op when already sorted. Requires raw storage (callers UnsealAll).
  void SortDictionaryAndRemap();

  void InvalidateCachedBlocks();

  // Sum of the raw-tail words of block `b` (`rows` rows): what a simulated
  // cost pass over a raw block touches.
  int64_t RawChecksum(int64_t b, int64_t rows) const;

  DataType type_;
  ColumnDomain domain_;
  const StorageProfile* storage_ = nullptr;
  DecodeCache* cache_ = nullptr;
  // Raw (pre-seal / appended-tail) storage: int64 values, string codes or
  // ordered double codes.
  std::vector<int64_t> ints_;
  std::vector<std::vector<int64_t>> arrays_;
  std::vector<std::string> dict_;
  // Sealed storage: rows [0, sealed_rows_) live in encoded blocks; ints_
  // holds rows from sealed_rows_ on.
  std::vector<EncodedBlock> blocks_;
  int64_t sealed_rows_ = 0;
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_COLUMN_H_
