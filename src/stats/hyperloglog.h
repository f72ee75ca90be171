#ifndef BYTECARD_STATS_HYPERLOGLOG_H_
#define BYTECARD_STATS_HYPERLOGLOG_H_

#include <cstdint>
#include <vector>

#include "common/serde.h"

namespace bytecard::stats {

// Default precision of every HLL sketch in the system. Incremental NDV
// maintenance depends on it being shared: the ingestor's batch sketches merge
// into the maintainer's seeded sketches only when both have the same
// precision.
inline constexpr int kHllPrecision = 12;

// HyperLogLog distinct-count sketch (Flajolet et al. 2007, with the linear-
// counting small-range correction from Heule et al. 2013). This is the
// sketch-based NDV baseline the paper's ByteHouse used before RBX; its known
// weakness — no guarantees under predicates/sampling, staleness under
// updates — is exactly what Figure 6b exploits.
class HyperLogLog {
 public:
  // `precision` p gives 2^p registers; standard error ~ 1.04 / sqrt(2^p).
  explicit HyperLogLog(int precision = kHllPrecision);

  // Both return true when a register grew — i.e. the observation changed the
  // sketch state. Callers that cache derived values (the incremental
  // maintainer's per-bucket distinct counts) use this to skip recomputing
  // Estimate() on the steady-state path where most values are re-sightings.
  bool AddHash(uint64_t hash);
  bool Add(int64_t value) { return AddHash(Mix(static_cast<uint64_t>(value))); }

  double Estimate() const;

  // Merges another sketch built with the same precision; true when any
  // register grew.
  bool Merge(const HyperLogLog& other);

  int precision() const { return precision_; }

  void Serialize(BufferWriter* writer) const;
  static Result<HyperLogLog> Deserialize(BufferReader* reader);

 private:
  static uint64_t Mix(uint64_t x);

  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace bytecard::stats

#endif  // BYTECARD_STATS_HYPERLOGLOG_H_
