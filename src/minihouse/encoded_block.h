#ifndef BYTECARD_MINIHOUSE_ENCODED_BLOCK_H_
#define BYTECARD_MINIHOUSE_ENCODED_BLOCK_H_

#include <cstdint>
#include <vector>

namespace bytecard::minihouse {

// Physical layout of one sealed block (DESIGN.md §12). Chosen per block at
// Table::Seal by encoded size; every layout round-trips the numeric values
// exactly, so the choice is invisible to query results.
enum class BlockEncoding {
  kPlain,  // raw int64 values
  kRle,    // run-length: (value, run start) pairs — clustered/low-churn data
  kFor,    // frame-of-reference: base + bit-packed unsigned deltas
};

// Per-block statistics captured in the same sealing pass that picks the
// encoding. min/max bound every value in the block (in the column's numeric
// domain), which lets the reader prune a whole block against a predicate
// range before any I/O is charged, and lets estimation sum possibly-matching
// block rows into a cheap selectivity upper bound. run_count is the number of
// equal-value runs — the RLE size driver, and a free clusteredness signal.
struct ZoneMap {
  int64_t min = 0;
  int64_t max = 0;
  int64_t run_count = 0;
  int64_t rows = 0;
};

// One immutable encoded block of up to kBlockRows numeric values (int64
// values, ordered string-dictionary codes, or ordered double codes — the one
// space all predicates operate in). Built at Table::Seal; raw vectors are
// released after encoding, so the encoded blocks ARE the table's resident
// storage. Decoding is explicit (Column::ViewBlock through the decode cache);
// predicates can also evaluate directly on the encoded form (predicate.cc).
class EncodedBlock {
 public:
  // Encodes `rows` values (rows >= 1), picking the smallest layout. Plain
  // wins ties so the zero-copy path is preferred when compression buys
  // nothing.
  static EncodedBlock Encode(const int64_t* values, int64_t rows);

  // Forces a specific layout (property tests exercise every encoder on the
  // same data). kFor may store deltas at full 64-bit width when the value
  // span requires it — larger than plain, but still exact.
  static EncodedBlock EncodeAs(BlockEncoding encoding, const int64_t* values,
                               int64_t rows);

  BlockEncoding encoding() const { return encoding_; }
  const ZoneMap& zone() const { return zone_; }
  int64_t rows() const { return zone_.rows; }

  // Physical footprint of the encoded payload.
  int64_t EncodedBytes() const;

  // Appends nothing; fills `out` (resized) with the decoded values.
  void Decode(std::vector<int64_t>* out) const;

  // Random access without full decode. O(1) for kPlain/kFor, O(log runs)
  // for kRle.
  int64_t ValueAt(int64_t i) const;

  // Zero-copy view for kPlain blocks; nullptr otherwise.
  const int64_t* PlainData() const {
    return encoding_ == BlockEncoding::kPlain ? values_.data() : nullptr;
  }

  // One pass over the encoded payload (the simulated-storage cost hook:
  // compression shrinks the bytes a "disk read" touches, so the simulated
  // CPU cost of a block read shrinks with it).
  int64_t PayloadChecksum() const;

  // RLE internals for run-skipping evaluation: run `r` covers rows
  // [RunStart(r), RunEnd(r)) and holds RunValue(r).
  int64_t NumRuns() const { return static_cast<int64_t>(starts_.size()); }
  int64_t RunStart(int64_t r) const { return starts_[r]; }
  int64_t RunEnd(int64_t r) const {
    return r + 1 < NumRuns() ? starts_[r + 1] : zone_.rows;
  }
  int64_t RunValue(int64_t r) const { return values_[r]; }

 private:
  static EncodedBlock EncodePlain(const int64_t* values, int64_t rows,
                                  const ZoneMap& zone);
  static EncodedBlock EncodeRle(const int64_t* values, int64_t rows,
                                const ZoneMap& zone);
  static EncodedBlock EncodeFor(const int64_t* values, int64_t rows,
                                const ZoneMap& zone);

  BlockEncoding encoding_ = BlockEncoding::kPlain;
  ZoneMap zone_;
  // kPlain: the values. kRle: one value per run.
  std::vector<int64_t> values_;
  // kRle: start row offset of each run (fits: blocks hold <= kBlockRows).
  std::vector<int32_t> starts_;
  // kFor: bit-packed deltas, little-endian within each word.
  std::vector<uint64_t> packed_;
  int64_t for_base_ = 0;
  int for_bits_ = 0;  // delta width, 1..64
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_ENCODED_BLOCK_H_
