#ifndef BYTECARD_MINIHOUSE_JOIN_H_
#define BYTECARD_MINIHOUSE_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "minihouse/relation.h"

namespace bytecard::minihouse {

// Flat open-addressing multimap from join-key hash to build rows: one cache
// line of slot metadata per probe instead of the pointer-chasing of
// unordered_multimap buckets. Slots are linear-probed on the cached hash;
// build rows sharing a hash chain through `next_`, in ascending row order, so
// probes emit matches deterministically.
class JoinHashTable {
 public:
  JoinHashTable(const Relation& build, const std::vector<int>& keys);

  size_t slot_count() const { return slots_.size(); }

  static uint64_t HashRowKeys(const Relation& rel, const std::vector<int>& keys,
                              int64_t row);

  // Invokes fn(build_row) for every build row whose key hash equals `hash`,
  // in ascending build-row order. Callers still verify key equality: distinct
  // keys can collide on the full 64-bit hash (and then share a chain).
  template <typename Fn>
  void ForEachMatch(uint64_t hash, Fn&& fn) const {
    const size_t mask = slots_.size() - 1;
    size_t s = static_cast<size_t>(hash) & mask;
    while (slots_[s] >= 0) {
      if (slot_hashes_[s] == hash) {
        for (int64_t r = slots_[s]; r >= 0; r = next_[r]) fn(r);
        return;
      }
      s = (s + 1) & mask;
    }
  }

 private:
  std::vector<int64_t> slots_;         // head build row per hash, -1 = empty
  std::vector<uint64_t> slot_hashes_;  // cached hash of each occupied slot
  std::vector<int64_t> next_;          // per-build-row chain link, -1 = end
};

// Parallel-execution accounting for one join, reported by HashJoin.
struct JoinRunInfo {
  int dop_used = 1;
  int64_t parallel_tasks = 0;  // probe partitions run through the pool
  // Kernel specialization: whether the array-index join ran, and whether a
  // build-side key outside the assumed domain degraded the whole operator
  // back to the generic hash join (results are identical either way).
  bool specialized = false;
  bool despecialized = false;
};

// Specialization request for HashJoin (DESIGN.md §11): replace the
// JoinHashTable with a direct array index over the build side's key domain
// when that domain is narrow and dense. Only meaningful for single-key
// joins. HashJoin picks the build side at runtime (the smaller input), so
// the compiler supplies the assumed key domain of *both* inputs; the entry
// for the side that ends up building applies. An input with max < min marks
// "no usable domain" (that side never array-builds). The build pass
// validates every key against the assumed domain — one out-of-domain key
// (stale stats) falls the operator back to the hash join.
//
// kArrayJoinBudget bounds the array's memory: a build-key domain wider than
// this many entries never array-builds.
inline constexpr int64_t kArrayJoinBudget = int64_t{1} << 20;

struct ArrayJoinSpec {
  bool enabled = false;
  int64_t left_min = 0;
  int64_t left_max = -1;
  int64_t right_min = 0;
  int64_t right_max = -1;
  int64_t budget = kArrayJoinBudget;  // max array entries (domain width cap)
};

// Hash equi-join of two relations on possibly multiple key pairs
// (left_keys[i] joins right_keys[i]; indices into each relation's columns).
// Builds on the smaller side (always serially); with dop > 1 the probe side
// is split into contiguous partitions probed concurrently and concatenated in
// partition order, so output is identical at any dop. Output carries all
// columns of both inputs. `policy` schedules the probe partitions' helper
// tasks (the owning query's lane and morsel budget).
//
// `spec` (optional) swaps the hash table for an array index over the build
// key's domain when eligible (single key, valid domain within budget).
// Matches are emitted per probe row in ascending build-row order on both
// paths, so output is byte-identical whether the array index engages, is
// ineligible, or falls back on a guard violation.
Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const std::vector<int>& left_keys,
                          const std::vector<int>& right_keys, int dop = 1,
                          JoinRunInfo* info = nullptr,
                          const common::MorselPolicy& policy = {},
                          const ArrayJoinSpec& spec = {});

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_JOIN_H_
