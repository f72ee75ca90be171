#include "minihouse/encoded_block.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace bytecard::minihouse {

namespace {

ZoneMap ComputeZone(const int64_t* values, int64_t rows) {
  ZoneMap zone;
  zone.rows = rows;
  zone.min = values[0];
  zone.max = values[0];
  zone.run_count = 1;
  for (int64_t i = 1; i < rows; ++i) {
    zone.min = std::min(zone.min, values[i]);
    zone.max = std::max(zone.max, values[i]);
    if (values[i] != values[i - 1]) ++zone.run_count;
  }
  return zone;
}

// Delta width for frame-of-reference packing: bits to represent max - min in
// the unsigned domain (subtraction wraps correctly for any int64 pair).
int ForBits(const ZoneMap& zone) {
  const uint64_t span =
      static_cast<uint64_t>(zone.max) - static_cast<uint64_t>(zone.min);
  return span == 0 ? 1 : std::bit_width(span);
}

uint64_t ForMask(int bits) {
  return bits >= 64 ? ~0ull : (1ull << bits) - 1;
}

}  // namespace

EncodedBlock EncodedBlock::EncodePlain(const int64_t* values, int64_t rows,
                                       const ZoneMap& zone) {
  EncodedBlock block;
  block.encoding_ = BlockEncoding::kPlain;
  block.zone_ = zone;
  block.values_.assign(values, values + rows);
  return block;
}

EncodedBlock EncodedBlock::EncodeRle(const int64_t* values, int64_t rows,
                                     const ZoneMap& zone) {
  EncodedBlock block;
  block.encoding_ = BlockEncoding::kRle;
  block.zone_ = zone;
  block.values_.reserve(zone.run_count);
  block.starts_.reserve(zone.run_count);
  for (int64_t i = 0; i < rows; ++i) {
    if (i == 0 || values[i] != values[i - 1]) {
      block.values_.push_back(values[i]);
      block.starts_.push_back(static_cast<int32_t>(i));
    }
  }
  return block;
}

EncodedBlock EncodedBlock::EncodeFor(const int64_t* values, int64_t rows,
                                     const ZoneMap& zone) {
  EncodedBlock block;
  block.encoding_ = BlockEncoding::kFor;
  block.zone_ = zone;
  block.for_base_ = zone.min;
  block.for_bits_ = ForBits(zone);
  const int bits = block.for_bits_;
  block.packed_.assign((static_cast<size_t>(rows) * bits + 63) / 64, 0);
  for (int64_t i = 0; i < rows; ++i) {
    const uint64_t delta = static_cast<uint64_t>(values[i]) -
                           static_cast<uint64_t>(block.for_base_);
    const size_t pos = static_cast<size_t>(i) * bits;
    const size_t word = pos / 64;
    const int off = static_cast<int>(pos % 64);
    block.packed_[word] |= delta << off;
    if (off + bits > 64) {
      block.packed_[word + 1] |= delta >> (64 - off);
    }
  }
  return block;
}

EncodedBlock EncodedBlock::Encode(const int64_t* values, int64_t rows) {
  BC_CHECK(rows > 0);
  const ZoneMap zone = ComputeZone(values, rows);
  const int64_t plain_bytes = rows * 8;
  const int64_t rle_bytes = zone.run_count * 12;  // value (8) + start (4)
  const int for_bits = ForBits(zone);
  // A 64-bit delta width degenerates to plain-with-extra-steps; rule it out.
  const int64_t for_bytes =
      for_bits >= 64 ? plain_bytes + 1
                     : 16 + static_cast<int64_t>(
                                (static_cast<size_t>(rows) * for_bits + 63) /
                                64) *
                                8;
  if (rle_bytes <= plain_bytes && rle_bytes <= for_bytes) {
    return EncodeRle(values, rows, zone);
  }
  if (for_bytes < plain_bytes) {
    return EncodeFor(values, rows, zone);
  }
  return EncodePlain(values, rows, zone);
}

EncodedBlock EncodedBlock::EncodeAs(BlockEncoding encoding,
                                    const int64_t* values, int64_t rows) {
  BC_CHECK(rows > 0);
  const ZoneMap zone = ComputeZone(values, rows);
  switch (encoding) {
    case BlockEncoding::kPlain:
      return EncodePlain(values, rows, zone);
    case BlockEncoding::kRle:
      return EncodeRle(values, rows, zone);
    case BlockEncoding::kFor:
      return EncodeFor(values, rows, zone);
  }
  return EncodePlain(values, rows, zone);
}

int64_t EncodedBlock::EncodedBytes() const {
  switch (encoding_) {
    case BlockEncoding::kPlain:
      return static_cast<int64_t>(values_.size()) * 8;
    case BlockEncoding::kRle:
      return static_cast<int64_t>(values_.size()) * 8 +
             static_cast<int64_t>(starts_.size()) * 4;
    case BlockEncoding::kFor:
      return 16 + static_cast<int64_t>(packed_.size()) * 8;
  }
  return 0;
}

void EncodedBlock::Decode(std::vector<int64_t>* out) const {
  const int64_t rows = zone_.rows;
  out->resize(rows);
  switch (encoding_) {
    case BlockEncoding::kPlain:
      std::copy(values_.begin(), values_.end(), out->begin());
      break;
    case BlockEncoding::kRle: {
      for (int64_t r = 0; r < NumRuns(); ++r) {
        std::fill(out->begin() + RunStart(r), out->begin() + RunEnd(r),
                  values_[r]);
      }
      break;
    }
    case BlockEncoding::kFor: {
      const int bits = for_bits_;
      const uint64_t mask = ForMask(bits);
      for (int64_t i = 0; i < rows; ++i) {
        const size_t pos = static_cast<size_t>(i) * bits;
        const size_t word = pos / 64;
        const int off = static_cast<int>(pos % 64);
        uint64_t delta = packed_[word] >> off;
        if (off + bits > 64) {
          delta |= packed_[word + 1] << (64 - off);
        }
        (*out)[i] = static_cast<int64_t>(
            static_cast<uint64_t>(for_base_) + (delta & mask));
      }
      break;
    }
  }
}

int64_t EncodedBlock::PayloadChecksum() const {
  int64_t sum = 0;
  for (int64_t v : values_) sum += v;
  for (int32_t s : starts_) sum += s;
  for (uint64_t w : packed_) sum += static_cast<int64_t>(w);
  return sum;
}

int64_t EncodedBlock::ValueAt(int64_t i) const {
  switch (encoding_) {
    case BlockEncoding::kPlain:
      return values_[i];
    case BlockEncoding::kRle: {
      // Last run whose start is <= i.
      auto it = std::upper_bound(starts_.begin(), starts_.end(),
                                 static_cast<int32_t>(i));
      return values_[(it - starts_.begin()) - 1];
    }
    case BlockEncoding::kFor: {
      const int bits = for_bits_;
      const size_t pos = static_cast<size_t>(i) * bits;
      const size_t word = pos / 64;
      const int off = static_cast<int>(pos % 64);
      uint64_t delta = packed_[word] >> off;
      if (off + bits > 64) {
        delta |= packed_[word + 1] << (64 - off);
      }
      return static_cast<int64_t>(static_cast<uint64_t>(for_base_) +
                                  (delta & ForMask(bits)));
    }
  }
  return 0;
}

}  // namespace bytecard::minihouse
