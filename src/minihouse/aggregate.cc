#include "minihouse/aggregate.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_set>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace bytecard::minihouse {

namespace {
int64_t NextPowerOfTwo(int64_t v) {
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

AggregationHashTable::AggregationHashTable(int key_width,
                                           int64_t initial_ndv_hint)
    : key_width_(key_width) {
  BC_CHECK(key_width >= 1);
  int64_t slots = kDefaultInitialSlots;
  if (initial_ndv_hint > 0) {
    // Size so the hint fits under the load-factor ceiling without growth:
    // the growth check is strict (num_groups+1 > ceiling AFTER lookup), so a
    // hint landing exactly on the boundary — e.g. 128 groups in 256 slots at
    // load factor 0.5 — needs exactly ceil(hint / kMaxLoadFactor) slots, and
    // the final insert must not resize. Adding slack beyond the ceiling
    // division doubles the table for every boundary hint.
    slots = NextPowerOfTwo(static_cast<int64_t>(
        std::ceil(static_cast<double>(initial_ndv_hint) / kMaxLoadFactor)));
    slots = std::max<int64_t>(slots, kDefaultInitialSlots);
  }
  slots_.assign(slots, -1);
}

uint64_t AggregationHashTable::HashKey(const int64_t* key, int width) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < width; ++i) {
    uint64_t x = static_cast<uint64_t>(key[i]);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h ^= (x ^ (x >> 31)) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

int64_t AggregationHashTable::FindOrInsert(const int64_t* key) {
  const uint64_t hash = HashKey(key, key_width_);
  uint64_t mask = slots_.size() - 1;
  uint64_t pos = hash & mask;
  for (;;) {
    const int32_t g = slots_[pos];
    if (g < 0) break;  // miss — fall through to insert
    if (hashes_[g] == hash &&
        std::equal(key, key + key_width_, keys_.begin() + g * key_width_)) {
      return g;
    }
    pos = (pos + 1) & mask;
  }
  // Only an actual insert can push the table over the load-factor ceiling:
  // growing before the lookup would let duplicate-heavy streams trigger
  // spurious resizes for keys that are already present.
  if (static_cast<double>(num_groups() + 1) >
      kMaxLoadFactor * static_cast<double>(slots_.size())) {
    Grow();
    mask = slots_.size() - 1;
    pos = hash & mask;
    while (slots_[pos] >= 0) pos = (pos + 1) & mask;
  }
  const int64_t group = num_groups();
  keys_.insert(keys_.end(), key, key + key_width_);
  hashes_.push_back(hash);
  slots_[pos] = static_cast<int32_t>(group);
  return group;
}

void AggregationHashTable::Grow() {
  const size_t new_size = slots_.size() * 2;
  slots_.assign(new_size, -1);
  const uint64_t mask = new_size - 1;
  const int64_t groups = num_groups();
  for (int64_t g = 0; g < groups; ++g) {
    uint64_t pos = hashes_[g] & mask;
    while (slots_[pos] >= 0) pos = (pos + 1) & mask;
    slots_[pos] = static_cast<int32_t>(g);
  }
  ++resize_count_;
}

namespace {

// One partition's accumulation state: a hash table plus per-group
// accumulators for every requested aggregate. The serial path uses a single
// PartialAgg end to end; the parallel path accumulates one per partition and
// merges them into a final one.
struct PartialAgg {
  PartialAgg(int key_width, int64_t ndv_hint, int num_aggs,
             const DenseAggSpec& spec)
      : table(key_width, ndv_hint),
        sums(num_aggs),
        counts(num_aggs),
        distinct(num_aggs) {
    if (spec.enabled && key_width == 1 &&
        spec.domain_max >= spec.domain_min) {
      dense = std::make_unique<DenseKeyIndex>(spec.domain_min,
                                              spec.domain_max);
    }
  }

  // Group index for `key`, preferring the dense-array index. The first key
  // that escapes the assumed domain degrades this partition to the generic
  // hash index: dense-assigned group ids are migrated in id order (the hash
  // table is untouched until then, so ids are reassigned identically) and
  // accumulation continues generic — results are unaffected.
  int64_t FindOrInsert(const int64_t* key) {
    if (dense != nullptr) {
      const int64_t g = dense->FindOrInsert(key[0]);
      if (g != DenseKeyIndex::kOutOfDomain) return g;
      const int64_t groups = dense->num_groups();
      for (int64_t d = 0; d < groups; ++d) {
        const int64_t k = dense->KeyOf(d);
        table.FindOrInsert(&k);
      }
      dense.reset();
      ++despecialized;
    }
    return table.FindOrInsert(key);
  }

  int64_t num_groups() const {
    return dense != nullptr ? dense->num_groups() : table.num_groups();
  }
  int64_t KeyComponent(int64_t g, int c) const {
    return dense != nullptr ? dense->KeyOf(g) : table.KeyComponent(g, c);
  }

  AggregationHashTable table;
  // Engaged instead of `table` while every key stays inside the assumed
  // domain; null when specialization is off or after despecialization.
  std::unique_ptr<DenseKeyIndex> dense;
  int64_t despecialized = 0;
  std::vector<std::vector<double>> sums;
  std::vector<std::vector<int64_t>> counts;
  // Per-group distinct sets for COUNT(DISTINCT .): nested hash tables whose
  // resizes are charged to the same counter (same mechanism, same cost).
  std::vector<std::vector<std::unordered_set<int64_t>>> distinct;
};

void EnsureGroup(const std::vector<AggRequest>& aggs, int64_t g,
                 PartialAgg* part) {
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (static_cast<int64_t>(part->counts[a].size()) <= g) {
      part->counts[a].resize(g + 1, 0);
      part->sums[a].resize(g + 1, 0.0);
      if (aggs[a].func == AggFunc::kCountDistinct) {
        part->distinct[a].resize(g + 1);
      }
    }
  }
}

void AccumulateRange(const std::vector<std::vector<int64_t>>& columns,
                     const std::vector<int>& key_columns,
                     const std::vector<AggRequest>& aggs, int64_t row_begin,
                     int64_t row_end, PartialAgg* part) {
  const int key_width = std::max<int>(1, static_cast<int>(key_columns.size()));
  std::vector<int64_t> key(key_width, 0);
  const int num_aggs = static_cast<int>(aggs.size());

  for (int64_t row = row_begin; row < row_end; ++row) {
    for (size_t k = 0; k < key_columns.size(); ++k) {
      key[k] = columns[key_columns[k]][row];
    }
    const int64_t g = part->FindOrInsert(key.data());
    EnsureGroup(aggs, g, part);
    for (int a = 0; a < num_aggs; ++a) {
      switch (aggs[a].func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          part->counts[a][g] += 1;
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          part->counts[a][g] += 1;
          part->sums[a][g] +=
              static_cast<double>(columns[aggs[a].input_column][row]);
          break;
        case AggFunc::kCountDistinct:
          part->distinct[a][g].insert(columns[aggs[a].input_column][row]);
          break;
      }
    }
  }
}

// Folds `src` into `dst`: every partial group is looked up (or inserted) in
// the destination table and its accumulators combined. Sums and counts add;
// distinct sets union.
void MergePartial(const std::vector<AggRequest>& aggs, int key_width,
                  const PartialAgg& src, PartialAgg* dst) {
  std::vector<int64_t> key(key_width, 0);
  const int64_t src_groups = src.num_groups();
  for (int64_t sg = 0; sg < src_groups; ++sg) {
    for (int c = 0; c < key_width; ++c) {
      key[c] = src.KeyComponent(sg, c);
    }
    // A dense destination despecializes here iff some partition saw an
    // out-of-domain key (its own guard fired, and its hash table now holds
    // that key); the id-preserving migration keeps the merge exact.
    const int64_t g = dst->FindOrInsert(key.data());
    EnsureGroup(aggs, g, dst);
    for (size_t a = 0; a < aggs.size(); ++a) {
      switch (aggs[a].func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
        case AggFunc::kSum:
        case AggFunc::kAvg:
          dst->counts[a][g] += src.counts[a][sg];
          dst->sums[a][g] += src.sums[a][sg];
          break;
        case AggFunc::kCountDistinct:
          dst->distinct[a][g].insert(src.distinct[a][sg].begin(),
                                     src.distinct[a][sg].end());
          break;
      }
    }
  }
}

}  // namespace

AggregateResult HashAggregate(const Relation& input,
                              const std::vector<int>& key_columns,
                              const std::vector<AggRequest>& aggs,
                              int64_t ndv_hint, int dop,
                              const common::MorselPolicy& policy,
                              const DenseAggSpec& spec) {
  const std::vector<std::vector<int64_t>>& columns = input.columns;
  AggregateResult result;
  const int key_width = std::max<int>(1, static_cast<int>(key_columns.size()));
  const int64_t num_rows = input.num_rows();
  const int num_aggs = static_cast<int>(aggs.size());
  dop = static_cast<int>(
      std::clamp<int64_t>(dop, 1, std::max<int64_t>(num_rows, 1)));
  result.specialized = spec.enabled && key_columns.size() == 1 &&
                       spec.domain_max >= spec.domain_min;

  // deque: PartialAgg holds a non-movable hash table, so parts are
  // constructed in place and never relocated.
  std::deque<PartialAgg> parts;
  PartialAgg* final_part = nullptr;

  if (dop <= 1) {
    parts.emplace_back(key_width, ndv_hint, num_aggs, spec);
    AccumulateRange(columns, key_columns, aggs, 0, num_rows, &parts[0]);
    final_part = &parts[0];
    result.resize_count = final_part->table.resize_count();
    result.despecialized_morsels = final_part->despecialized;
  } else {
    for (int p = 0; p < dop; ++p) {
      parts.emplace_back(key_width, ndv_hint, num_aggs, spec);
    }
    common::ParallelMorsels(common::ThreadPool::Global(), dop, dop, policy,
                            [&](int64_t p, int /*slot*/) {
                              AccumulateRange(columns, key_columns, aggs,
                                              num_rows * p / dop,
                                              num_rows * (p + 1) / dop,
                                              &parts[p]);
                            });
    parts.emplace_back(key_width, ndv_hint, num_aggs, spec);
    final_part = &parts.back();
    for (int p = 0; p < dop; ++p) {
      MergePartial(aggs, key_width, parts[p], final_part);
      result.merge_groups += parts[p].num_groups();
      result.resize_count += parts[p].table.resize_count();
      result.despecialized_morsels += parts[p].despecialized;
    }
    result.resize_count += final_part->table.resize_count();
    result.despecialized_morsels += final_part->despecialized;
    result.dop_used = dop;
    result.parallel_tasks = dop;
  }

  result.num_groups = final_part->num_groups();

  result.group_keys.resize(key_columns.size());
  for (size_t k = 0; k < key_columns.size(); ++k) {
    result.group_keys[k].resize(result.num_groups);
    for (int64_t g = 0; g < result.num_groups; ++g) {
      result.group_keys[k][g] =
          final_part->KeyComponent(g, static_cast<int>(k));
    }
  }

  result.agg_values.resize(num_aggs);
  for (int a = 0; a < num_aggs; ++a) {
    result.agg_values[a].resize(result.num_groups, 0.0);
    for (int64_t g = 0; g < result.num_groups; ++g) {
      if (g >= static_cast<int64_t>(final_part->counts[a].size()) &&
          aggs[a].func != AggFunc::kCountDistinct) {
        continue;
      }
      switch (aggs[a].func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          result.agg_values[a][g] =
              static_cast<double>(final_part->counts[a][g]);
          break;
        case AggFunc::kSum:
          result.agg_values[a][g] = final_part->sums[a][g];
          break;
        case AggFunc::kAvg:
          result.agg_values[a][g] =
              final_part->counts[a][g] > 0
                  ? final_part->sums[a][g] / final_part->counts[a][g]
                  : 0.0;
          break;
        case AggFunc::kCountDistinct:
          result.agg_values[a][g] =
              g < static_cast<int64_t>(final_part->distinct[a].size())
                  ? static_cast<double>(final_part->distinct[a][g].size())
                  : 0.0;
          break;
      }
    }
  }
  return result;
}

}  // namespace bytecard::minihouse
