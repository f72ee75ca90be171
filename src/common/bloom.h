#ifndef BYTECARD_COMMON_BLOOM_H_
#define BYTECARD_COMMON_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bytecard {

// Classic Bloom filter over int64 keys: one bit array, probed at 7 positions
// by double hashing, each a 64-bit `%` of the array size. Used by the
// executor's sideways information passing (paper §3.1.2 lists SIP among
// ByteHouse's classical optimization strategies): the build side of a join
// publishes its key set so probe-side scans can drop non-joining rows — and
// whole blocks — early.
class BloomFilter {
 public:
  // Sized for `expected_keys` at ~10 bits/key (false-positive rate ~1%).
  explicit BloomFilter(int64_t expected_keys) {
    int64_t bits = expected_keys * 10;
    if (bits < 1024) bits = 1024;
    words_.assign(static_cast<size_t>((bits + 63) / 64), 0);
  }

  void Add(int64_t key) {
    const auto [h1, h2] = Hashes(key);
    for (int i = 0; i < kProbes; ++i) {
      const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % NumBits();
      words_[bit >> 6] |= 1ULL << (bit & 63);
    }
  }

  bool MayContain(int64_t key) const {
    const auto [h1, h2] = Hashes(key);
    for (int i = 0; i < kProbes; ++i) {
      const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % NumBits();
      if ((words_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
    }
    return true;
  }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(words_.size() * sizeof(uint64_t));
  }

 private:
  static constexpr int kProbes = 7;

  uint64_t NumBits() const { return words_.size() * 64; }

  static std::pair<uint64_t, uint64_t> Hashes(int64_t key) {
    uint64_t x = static_cast<uint64_t>(key);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    // Second hash must be odd so the probe stride never collapses.
    return {x, (x >> 17) | 1ULL};
  }

  std::vector<uint64_t> words_;
};

}  // namespace bytecard

#endif  // BYTECARD_COMMON_BLOOM_H_
