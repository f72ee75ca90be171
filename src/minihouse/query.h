#ifndef BYTECARD_MINIHOUSE_QUERY_H_
#define BYTECARD_MINIHOUSE_QUERY_H_

#include <algorithm>
#include <string>
#include <vector>

#include "minihouse/predicate.h"
#include "minihouse/table.h"

namespace bytecard::minihouse {

// Aggregate functions supported by the execution engine.
enum class AggFunc {
  kCountStar,
  kCount,          // COUNT(col)
  kCountDistinct,  // COUNT(DISTINCT col)
  kSum,
  kAvg,
};

// A table occurrence in a query with its pushed-down filter conjunction.
struct BoundTableRef {
  const Table* table = nullptr;
  std::string alias;
  Conjunction filters;
};

// Equi-join predicate between two table occurrences (indices into
// BoundQuery::tables).
struct JoinEdge {
  int left_table = -1;
  int left_column = -1;
  int right_table = -1;
  int right_column = -1;
};

struct GroupKeyRef {
  int table = -1;
  int column = -1;
};

struct AggSpecRef {
  AggFunc func = AggFunc::kCountStar;
  int table = -1;   // -1 for COUNT(*)
  int column = -1;  // -1 for COUNT(*)
};

// The analyzer's output: a fully bound query over the catalog. This is the
// structure every estimator featurizes (the paper's featurizeAST path) and
// the executor runs.
struct BoundQuery {
  std::vector<BoundTableRef> tables;
  std::vector<JoinEdge> joins;
  std::vector<GroupKeyRef> group_by;
  std::vector<AggSpecRef> aggs;
  std::string sql;  // original text when parsed from SQL; may be empty

  int num_tables() const { return static_cast<int>(tables.size()); }
};

// RAII shared (read) latch over every distinct table of a bound query.
// Planning and execution hold one of these so a concurrent ingest batch
// (which appends + re-seals under the exclusive side of Table::latch())
// never mutates blocks or zone maps under a running scan. Tables are locked
// in pointer order, so two queries over the same tables cannot deadlock
// against each other; self-joins deduplicate to a single shared lock.
// Do NOT nest two guards covering the same table on one thread — a writer
// queued between the two lock_shared calls deadlocks.
class TableReadGuard {
 public:
  explicit TableReadGuard(const BoundQuery& query) {
    tables_.reserve(query.tables.size());
    for (const BoundTableRef& ref : query.tables) {
      if (ref.table != nullptr) tables_.push_back(ref.table);
    }
    std::sort(tables_.begin(), tables_.end());
    tables_.erase(std::unique(tables_.begin(), tables_.end()), tables_.end());
    for (const Table* t : tables_) t->latch().lock_shared();
  }

  ~TableReadGuard() {
    for (auto it = tables_.rbegin(); it != tables_.rend(); ++it) {
      (*it)->latch().unlock_shared();
    }
  }

  TableReadGuard(const TableReadGuard&) = delete;
  TableReadGuard& operator=(const TableReadGuard&) = delete;

 private:
  std::vector<const Table*> tables_;
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_QUERY_H_
