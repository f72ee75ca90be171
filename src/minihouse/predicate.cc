#include "minihouse/predicate.h"

#include <algorithm>

#include "common/logging.h"
#include "minihouse/table.h"

namespace bytecard::minihouse {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kIn:
      return "IN";
    case CompareOp::kBetween:
      return "BETWEEN";
  }
  return "?";
}

bool ColumnPredicate::Matches(int64_t value) const {
  switch (op) {
    case CompareOp::kEq:
      return value == operand;
    case CompareOp::kNe:
      return value != operand;
    case CompareOp::kLt:
      return value < operand;
    case CompareOp::kLe:
      return value <= operand;
    case CompareOp::kGt:
      return value > operand;
    case CompareOp::kGe:
      return value >= operand;
    case CompareOp::kBetween:
      return value >= operand && value <= operand2;
    case CompareOp::kIn:
      return std::find(in_list.begin(), in_list.end(), value) !=
             in_list.end();
  }
  return false;
}

namespace {

// IN lists at or below this size run as an unrolled OR-of-equalities over a
// stack copy; longer lists keep the row-at-a-time find (rare in the
// workloads).
constexpr size_t kInKernelMaxList = 8;

// The branch-free kernel core over raw data, shared by the decoded-block
// entry point and the encoded plain/FOR paths.
void EvaluateKernel(const ColumnPredicate& pred, const int64_t* v, size_t n,
                    uint8_t* sel) {
  // Branch once on the operator, then run a branch-free tight loop per case
  // over raw data — the loop bodies are single compares ANDed into the
  // selection byte, which vectorize cleanly.
  switch (pred.op) {
    case CompareOp::kEq:
      for (size_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] == pred.operand);
      }
      break;
    case CompareOp::kNe:
      for (size_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] != pred.operand);
      }
      break;
    case CompareOp::kLt:
      for (size_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] < pred.operand);
      }
      break;
    case CompareOp::kLe:
      for (size_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] <= pred.operand);
      }
      break;
    case CompareOp::kGt:
      for (size_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] > pred.operand);
      }
      break;
    case CompareOp::kGe:
      for (size_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] >= pred.operand);
      }
      break;
    case CompareOp::kBetween: {
      if (pred.operand > pred.operand2) {
        std::fill(sel, sel + n, static_cast<uint8_t>(0));
        break;
      }
      // Both compares of lo <= v <= hi in one unsigned subtract-compare:
      // v - lo wraps below lo to a huge unsigned value, above span when v
      // exceeds hi.
      const uint64_t lo = static_cast<uint64_t>(pred.operand);
      const uint64_t span = static_cast<uint64_t>(pred.operand2) - lo;
      for (size_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(static_cast<uint64_t>(v[i]) - lo <=
                                       span);
      }
      break;
    }
    case CompareOp::kIn: {
      const size_t list_size = pred.in_list.size();
      if (list_size == 0) {
        std::fill(sel, sel + n, static_cast<uint8_t>(0));
        break;
      }
      if (list_size > kInKernelMaxList) {
        for (size_t i = 0; i < n; ++i) {
          sel[i] &= static_cast<uint8_t>(pred.Matches(v[i]));
        }
        break;
      }
      // Pad the stack copy with the first operand so the inner loop has a
      // fixed trip count (duplicates don't change an OR-of-equalities).
      int64_t list[kInKernelMaxList];
      for (size_t j = 0; j < kInKernelMaxList; ++j) {
        list[j] = pred.in_list[j < list_size ? j : 0];
      }
      for (size_t i = 0; i < n; ++i) {
        uint8_t m = 0;
        for (size_t j = 0; j < kInKernelMaxList; ++j) {
          m |= static_cast<uint8_t>(v[i] == list[j]);
        }
        sel[i] &= m;
      }
      break;
    }
  }
}

}  // namespace

void EvaluateOnBlock(const ColumnPredicate& pred,
                     std::span<const int64_t> values,
                     std::vector<uint8_t>* selection) {
  BC_DCHECK(selection->size() == values.size());
  EvaluateKernel(pred, values.data(), values.size(), selection->data());
}

bool ZoneMapMayMatch(const ColumnPredicate& pred, const ZoneMap& zone) {
  switch (pred.op) {
    case CompareOp::kEq:
      return pred.operand >= zone.min && pred.operand <= zone.max;
    case CompareOp::kNe:
      // Only a constant block (min == max == operand) has no non-equal row.
      return !(zone.min == zone.max && zone.min == pred.operand);
    case CompareOp::kLt:
      return zone.min < pred.operand;
    case CompareOp::kLe:
      return zone.min <= pred.operand;
    case CompareOp::kGt:
      return zone.max > pred.operand;
    case CompareOp::kGe:
      return zone.max >= pred.operand;
    case CompareOp::kBetween:
      return pred.operand <= pred.operand2 && pred.operand <= zone.max &&
             pred.operand2 >= zone.min;
    case CompareOp::kIn:
      for (int64_t v : pred.in_list) {
        if (v >= zone.min && v <= zone.max) return true;
      }
      return false;
  }
  return true;
}

void EvaluateOnEncodedBlock(const ColumnPredicate& pred,
                            const EncodedBlock& block,
                            std::vector<uint8_t>* selection) {
  BC_DCHECK(static_cast<int64_t>(selection->size()) == block.rows());
  switch (block.encoding()) {
    case BlockEncoding::kPlain:
      // Zero-copy: the kernels run straight over the stored values.
      EvaluateKernel(pred, block.PlainData(), selection->size(),
                     selection->data());
      break;
    case BlockEncoding::kRle: {
      // Run skipping: one predicate test per run, then whole-range clears
      // for non-matching runs — work proportional to runs, not rows.
      uint8_t* sel = selection->data();
      for (int64_t r = 0; r < block.NumRuns(); ++r) {
        if (!pred.Matches(block.RunValue(r))) {
          std::fill(sel + block.RunStart(r), sel + block.RunEnd(r),
                    static_cast<uint8_t>(0));
        }
      }
      break;
    }
    case BlockEncoding::kFor: {
      // Unpack into a reusable per-thread scratch (never the decode cache —
      // filter stages must not evict materialization working sets), then run
      // the kernels.
      thread_local std::vector<int64_t> scratch;
      block.Decode(&scratch);
      EvaluateKernel(pred, scratch.data(), scratch.size(), selection->data());
      break;
    }
  }
}

double ZoneMapSelectivityBound(const Table& table,
                               const Conjunction& filters, int64_t* blocks) {
  const int64_t total = table.num_rows();
  const int64_t num_blocks = table.num_blocks();
  if (blocks != nullptr) *blocks = num_blocks;
  if (total == 0 || filters.empty() || table.num_columns() == 0) return 1.0;
  bool any_zones = false;
  int64_t possible = 0;
  int64_t possible_blocks = 0;
  for (int64_t b = 0; b < num_blocks; ++b) {
    bool may = true;
    for (const ColumnPredicate& pred : filters) {
      // Tolerate out-of-schema predicates (test fixtures fabricate them);
      // an unresolvable column simply contributes no pruning information.
      if (pred.column < 0 || pred.column >= table.num_columns()) continue;
      const ZoneMap* zone = table.column(pred.column).zone_map(b);
      if (zone == nullptr) continue;  // no zone map → cannot rule out
      any_zones = true;
      if (!ZoneMapMayMatch(pred, *zone)) {
        may = false;
        break;
      }
    }
    if (may) {
      possible += table.column(0).BlockRowCount(b);
      ++possible_blocks;
    }
  }
  if (!any_zones) return 1.0;
  if (blocks != nullptr) *blocks = possible_blocks;
  return static_cast<double>(possible) / static_cast<double>(total);
}

void EvaluateConjunction(const Conjunction& conjuncts, const Table& table,
                         std::vector<uint8_t>* selection) {
  const int64_t n = table.num_rows();
  if (static_cast<int64_t>(selection->size()) != n) {
    selection->assign(n, 1);
  }
  for (const ColumnPredicate& pred : conjuncts) {
    const Column& col = table.column(pred.column);
    for (int64_t i = 0; i < n; ++i) {
      if ((*selection)[i] != 0 && !pred.Matches(col.NumericAt(i))) {
        (*selection)[i] = 0;
      }
    }
  }
}

}  // namespace bytecard::minihouse
