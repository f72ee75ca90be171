#include "minihouse/column.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <numeric>

#include "common/logging.h"

namespace bytecard::minihouse {

void Column::AppendString(const std::string& s) {
  BC_DCHECK(type_ == DataType::kString);
  EnsureAppendable();
  auto it = std::find(dict_.begin(), dict_.end(), s);
  if (it == dict_.end()) {
    dict_.push_back(s);
    ints_.push_back(static_cast<int64_t>(dict_.size()) - 1);
  } else {
    ints_.push_back(it - dict_.begin());
  }
}

int64_t Column::OrderedCodeOf(double d) {
  const int64_t bits = std::bit_cast<int64_t>(d);
  // Positive doubles (and +0.0) already order correctly as int64; negative
  // doubles order in reverse, so flip their magnitude bits. Result: total
  // order matching double comparison, with -0.0 mapping just below +0.0.
  return bits >= 0 ? bits : bits ^ 0x7fffffffffffffffLL;
}

double Column::DoubleFromOrderedCode(int64_t code) {
  const int64_t bits = code >= 0 ? code : code ^ 0x7fffffffffffffffLL;
  return std::bit_cast<double>(bits);
}

void Column::AppendNumeric(int64_t code) {
  if (type_ == DataType::kArray) {
    arrays_.emplace_back();
    return;
  }
  EnsureAppendable();
  ints_.push_back(code);
}

namespace {
// Sink defeating dead-code elimination of the simulated-storage passes.
std::atomic<int64_t> g_storage_sink{0};
}  // namespace

std::chrono::steady_clock::time_point Column::IssueRead(int64_t b,
                                                        IoStats* io) const {
  const int64_t rows = BlockRowCount(b);
  BC_DCHECK(rows > 0);
  const bool sealed_block = b < static_cast<int64_t>(blocks_.size());
  std::chrono::steady_clock::time_point landed{};
  if (storage_ != nullptr) {
    // Simulated storage cost: extra passes proportional to block volume, so
    // wall-clock tracks blocks_read the way it does on a disk-bound
    // warehouse node. Sealed blocks charge passes over the *encoded*
    // payload — compression shrinks the bytes a read touches, and the
    // simulated CPU cost shrinks with it.
    const int cost = storage_->cost_factor.load(std::memory_order_relaxed);
    for (int pass = 0; pass < cost; ++pass) {
      const int64_t checksum = sealed_block ? blocks_[b].PayloadChecksum()
                                            : RawChecksum(b, rows);
      g_storage_sink.fetch_add(checksum, std::memory_order_relaxed);
    }
    // Simulated storage latency: the read lands this long after it is
    // issued. Reads in flight together overlap their waits.
    const int64_t latency =
        storage_->block_latency_nanos.load(std::memory_order_relaxed);
    if (latency > 0) {
      landed = std::chrono::steady_clock::now() +
               std::chrono::nanoseconds(latency);
    }
  }
  if (io != nullptr) {
    io->AddBlock(rows);
    if (sealed_block) ++io->encoded_blocks;
  }
  return landed;
}

int64_t Column::RawChecksum(int64_t b, int64_t rows) const {
  const int64_t begin = b * kBlockRows - sealed_rows_;
  int64_t checksum = 0;
  for (int64_t i = begin; i < begin + rows; ++i) checksum += ints_[i];
  return checksum;
}

void Column::DecodeThroughCache(int64_t b, std::vector<int64_t>* out,
                                IoStats* io) const {
  const EncodedBlock& block = blocks_[b];
  if (cache_ != nullptr) {
    if (DecodeCache::BlockRef ref = cache_->Lookup(this, b)) {
      out->assign(ref->begin(), ref->end());
      if (io != nullptr) ++io->decode_cache_hits;
      return;
    }
    block.Decode(out);
    cache_->Insert(this, b, *out,
                   io != nullptr ? &io->decode_cache_evictions : nullptr);
    return;
  }
  block.Decode(out);
}

void Column::FetchBlock(int64_t b, std::vector<int64_t>* out,
                        IoStats* io) const {
  const int64_t rows = BlockRowCount(b);
  BC_DCHECK(rows > 0);
  if (b < static_cast<int64_t>(blocks_.size())) {
    if (const int64_t* plain = blocks_[b].PlainData()) {
      out->assign(plain, plain + rows);
    } else {
      DecodeThroughCache(b, out, io);
    }
    return;
  }
  // Raw path: unsealed column or the appended tail past the sealed blocks.
  const int64_t begin = b * kBlockRows - sealed_rows_;
  out->resize(rows);
  std::memcpy(out->data(), ints_.data() + begin, rows * sizeof(int64_t));
}

void Column::EnsureAppendable() {
  if (blocks_.empty() || blocks_.back().rows() == kBlockRows) return;
  // A partial tail block only exists right after a Seal, which consumed the
  // whole raw tail — so the raw vector is empty here.
  BC_CHECK(ints_.empty());
  blocks_.back().Decode(&ints_);
  sealed_rows_ -= blocks_.back().rows();
  blocks_.pop_back();
  // Only the popped block index will be re-encoded with different contents
  // at the next Seal; the earlier sealed blocks are untouched, so their
  // cached decodes (and zone maps) stay valid across the append.
  if (cache_ != nullptr) {
    cache_->InvalidateBlock(this, static_cast<int64_t>(blocks_.size()));
  }
}

void Column::UnsealAll() {
  if (blocks_.empty()) return;
  std::vector<int64_t> all;
  all.reserve(sealed_rows_);
  std::vector<int64_t> tmp;
  for (const EncodedBlock& block : blocks_) {
    block.Decode(&tmp);
    all.insert(all.end(), tmp.begin(), tmp.end());
  }
  all.insert(all.end(), ints_.begin(), ints_.end());
  ints_ = std::move(all);
  blocks_.clear();
  sealed_rows_ = 0;
  InvalidateCachedBlocks();
}

void Column::EncodeTail() {
  const int64_t n = static_cast<int64_t>(ints_.size());
  if (n == 0) return;
  for (int64_t begin = 0; begin < n; begin += kBlockRows) {
    const int64_t rows = std::min<int64_t>(kBlockRows, n - begin);
    blocks_.push_back(EncodedBlock::Encode(ints_.data() + begin, rows));
  }
  sealed_rows_ += n;
  ints_.clear();
  ints_.shrink_to_fit();
}

void Column::SortDictionaryAndRemap() {
  if (std::is_sorted(dict_.begin(), dict_.end())) return;
  // Codes must be rewritten everywhere, so pull any encoded blocks back to
  // raw first (rare: only incremental AppendString builds land here).
  UnsealAll();
  std::vector<int64_t> order(dict_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int64_t a, int64_t b) {
    return dict_[a] < dict_[b];
  });
  std::vector<int64_t> remap(dict_.size());
  std::vector<std::string> sorted;
  sorted.reserve(dict_.size());
  for (size_t new_code = 0; new_code < order.size(); ++new_code) {
    remap[order[new_code]] = static_cast<int64_t>(new_code);
    sorted.push_back(std::move(dict_[order[new_code]]));
  }
  dict_ = std::move(sorted);
  for (int64_t& code : ints_) code = remap[code];
}

void Column::InvalidateCachedBlocks() {
  if (cache_ != nullptr) cache_->InvalidateColumn(this);
}

void Column::SealStorage() {
  if (type_ != DataType::kArray) {
    if (type_ == DataType::kString) SortDictionaryAndRemap();
    EncodeTail();
  }
  RefreshDomainStats();
}

void Column::RefreshDomainStats() {
  domain_ = ColumnDomain{};
  if (type_ == DataType::kArray) return;  // no scalar domain
  if (num_rows() == 0) return;
  bool have = false;
  int64_t lo = 0;
  int64_t hi = 0;
  // Sealed blocks contribute via their zone maps — no data pass.
  for (const EncodedBlock& block : blocks_) {
    const ZoneMap& z = block.zone();
    lo = have ? std::min(lo, z.min) : z.min;
    hi = have ? std::max(hi, z.max) : z.max;
    have = true;
  }
  for (const int64_t v : ints_) {
    lo = have ? std::min(lo, v) : v;
    hi = have ? std::max(hi, v) : v;
    have = true;
  }
  if (have) domain_ = ColumnDomain{lo, hi, true};
}

int64_t Column::EncodedBytes() const {
  int64_t bytes = 0;
  for (const EncodedBlock& block : blocks_) bytes += block.EncodedBytes();
  return bytes;
}

int64_t Column::MemoryBytes() const {
  int64_t bytes =
      EncodedBytes() + static_cast<int64_t>(ints_.size() * sizeof(int64_t));
  for (const auto& a : arrays_) bytes += a.size() * sizeof(int64_t) + 16;
  for (const auto& s : dict_) bytes += static_cast<int64_t>(s.size()) + 16;
  return bytes;
}

}  // namespace bytecard::minihouse
