#ifndef BYTECARD_MINIHOUSE_PREDICATE_H_
#define BYTECARD_MINIHOUSE_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "minihouse/column.h"

namespace bytecard::minihouse {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kIn, kBetween };

const char* CompareOpName(CompareOp op);

// A single filter on one column. All operands are in the column's numeric
// domain (int64 value, string dictionary code, or ordered double code) —
// the analyzer performs the conversion.
struct ColumnPredicate {
  int column = -1;          // index into the owning table's schema
  std::string column_name;  // kept for display and featurization
  CompareOp op = CompareOp::kEq;
  int64_t operand = 0;      // primary operand (low bound for kBetween)
  int64_t operand2 = 0;     // high bound for kBetween
  std::vector<int64_t> in_list;  // operands for kIn

  bool Matches(int64_t value) const;
};

// A conjunction of per-column filters on one table (the only filter shape the
// workloads use; OR queries are rewritten by inclusion-exclusion upstream,
// as in the paper).
using Conjunction = std::vector<ColumnPredicate>;

// Vectorized evaluation over a block of values: clears selection bits for
// non-matching rows. `selection` has one entry per row of the block. These
// are the predicate kernels (DESIGN.md §11): one branch on the operator,
// then a branch-free tight loop over raw int64 data per case (range checks
// via a single unsigned compare, small IN lists unrolled over a local copy)
// — SIMD-friendly and exact, so it needs no runtime guard. Selections are
// byte-identical to ColumnPredicate::Matches applied row by row, the
// reference the tests compare against.
void EvaluateOnBlock(const ColumnPredicate& pred,
                     const std::vector<int64_t>& values,
                     std::vector<uint8_t>* selection);

// True iff some value in [zone.min, zone.max] could satisfy `pred` — the
// block-pruning test (DESIGN.md §12). Sound by construction: it never rules
// out a block that holds a matching row; the reader skips a pruned block
// before charging any I/O. Dictionary codes and ordered double codes share
// the int64 order predicates use, so one range test covers every type.
bool ZoneMapMayMatch(const ColumnPredicate& pred, const ZoneMap& zone);

// Evaluates `pred` directly over encoded data — no decode-cache traffic.
// Plain blocks run the tight-loop kernels in place; RLE blocks test one
// value per run and clear whole run ranges (run skipping); FOR blocks unpack
// into a reusable thread-local scratch and run the kernels. Selections are
// byte-identical to decoding the block and calling EvaluateOnBlock.
void EvaluateOnEncodedBlock(const ColumnPredicate& pred,
                            const EncodedBlock& block,
                            std::vector<uint8_t>* selection);

// Pruning-aware selectivity upper bound from zone maps alone: the fraction
// of the table's rows in blocks that could match every conjunct. 1.0 when
// the table has no zone maps (unsealed) or no filters. The traditional
// estimator and the optimizer clamp their estimates with this — the cheap
// sketch tier of the estimation stack. When `blocks` is non-null it
// receives the number of those blocks: the blocks a scan with pruning on
// reads.
double ZoneMapSelectivityBound(const class Table& table,
                               const Conjunction& filters,
                               int64_t* blocks = nullptr);

// Applies a whole conjunction to a table-sized selection vector.
void EvaluateConjunction(const Conjunction& conjuncts,
                         const class Table& table,
                         std::vector<uint8_t>* selection);

std::string PredicateToString(const ColumnPredicate& pred);

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_PREDICATE_H_
