#ifndef BYTECARD_MINIHOUSE_FEEDBACK_H_
#define BYTECARD_MINIHOUSE_FEEDBACK_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cardest/request.h"
#include "minihouse/query.h"

namespace bytecard::minihouse {

// --- Canonical subplan fingerprints -----------------------------------------
// A fingerprint identifies an estimation question *across queries*: two
// queries that scan the same table under the same predicate set, or join the
// same filtered tables over the same edges, produce the same fingerprint no
// matter how their predicates, tables, or edges are ordered. The runtime
// feedback cache is keyed by these strings, so an actual cardinality observed
// while executing one query can answer the optimizer's question in the next.
// The one canonical implementation is cardest::CardEstRequest (request.h):
// the optimizer's join memo, the plan's stamped join-estimate map, the
// operator stamps and the feedback cache all key on its strings.

// Q-Error with both sides floored at 1 (same convention as workload/qerror.h,
// re-stated here because the engine layer cannot depend on the workload
// library).
inline double FeedbackQError(double estimate, double actual) {
  const double e = std::max(estimate, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

// --- Runtime feedback records ------------------------------------------------

enum class FeedbackKind {
  kScan,      // single-table filter cardinality (actual = rows matched)
  kJoin,      // join-prefix cardinality (actual = join output rows)
  kGroupNdv,  // GROUP BY output cardinality (actual = group count)
};

// A self-contained description of the estimation question an observation
// answered, detached from the (long-dead) BoundQuery that asked it. The
// route miner replays these against a live snapshot to score alternative
// estimator families on recorded actuals. Table/column references are by
// name / local index so a replay only needs the Database, not the query.
struct ReplaySpec {
  bool valid = false;
  std::vector<std::string> tables;      // base-table names, replay order
  std::vector<Conjunction> filters;     // per-table filters, same order
  struct Edge {
    int left_table = -1;   // index into `tables`
    int left_column = -1;
    int right_table = -1;
    int right_column = -1;
  };
  std::vector<Edge> edges;              // join edges internal to `tables`
  struct GroupKey {
    int table = -1;        // index into `tables`
    int column = -1;
  };
  std::vector<GroupKey> group_keys;     // kGroupNdv only
};

// Captures the replay spec for the subplan `subset` of `query` (kGroupNdv
// passes every table). Edges whose endpoints are not both in the subset are
// dropped; endpoint indices are remapped to positions in `tables`.
inline ReplaySpec MakeReplaySpec(const BoundQuery& query,
                                 const std::vector<int>& subset,
                                 FeedbackKind kind) {
  ReplaySpec spec;
  std::vector<int> local(query.tables.size(), -1);
  for (size_t i = 0; i < subset.size(); ++i) {
    const BoundTableRef& ref = query.tables[subset[i]];
    spec.tables.push_back(ref.table->name());
    spec.filters.push_back(ref.filters);
    local[subset[i]] = static_cast<int>(i);
  }
  for (const JoinEdge& e : query.joins) {
    if (local[e.left_table] < 0 || local[e.right_table] < 0) continue;
    ReplaySpec::Edge edge;
    edge.left_table = local[e.left_table];
    edge.left_column = e.left_column;
    edge.right_table = local[e.right_table];
    edge.right_column = e.right_column;
    spec.edges.push_back(edge);
  }
  if (kind == FeedbackKind::kGroupNdv) {
    for (const GroupKeyRef& g : query.group_by) {
      if (local[g.table] < 0) return spec;  // invalid: key outside subset
      ReplaySpec::GroupKey key;
      key.table = local[g.table];
      key.column = g.column;
      spec.group_keys.push_back(key);
    }
  }
  spec.valid = true;
  return spec;
}

// One operator's estimate-vs-actual observation.
struct OperatorFeedback {
  FeedbackKind kind = FeedbackKind::kScan;
  std::string fingerprint;          // canonical subplan key (cache key)
  std::vector<std::string> tables;  // base-table names the subplan touches
  double estimated = -1.0;          // what the plan was built on
  double actual = -1.0;             // what execution produced
  double qerror = 1.0;              // FeedbackQError(estimated, actual)
  // The operator's route class (operand-free template; cardest/request.h)
  // and the replayable statement of its estimation question. The miner groups
  // observations by the *recorded* class string — never recomputed from the
  // replay, whose local table indices would perturb self-join "#<idx>"
  // disambiguation.
  std::string route_class;
  ReplaySpec replay;
  // True when the estimate itself was served from the feedback cache: the
  // observation validates the cache, not the model, and must not feed drift
  // detection.
  bool served_from_cache = false;
  // True when this operator ran a specialized kernel whose runtime guard
  // fired (a key escaped the domain stats the compiler specialized on).
  // The hook records a specialization veto for the fingerprint so the next
  // plan takes the generic path (DESIGN.md §11).
  bool mis_specialized = false;
};

// Everything one executed query reports back to the estimator framework.
struct QueryFeedback {
  uint64_t snapshot_version = 0;  // model snapshot the plan was built on
  std::vector<OperatorFeedback> ops;
};

// The estimator framework's runtime-feedback surface, as seen by the engine.
// The optimizer consults LookupActual before paying for a model inference;
// the executor emits one QueryFeedback per executed query. Implementations
// must be thread-safe: many query threads plan and execute concurrently.
class QueryFeedbackHook {
 public:
  virtual ~QueryFeedbackHook() = default;

  // Serves the actual cardinality previously observed for `fingerprint`.
  // Returns false on a miss (caller falls through to the model).
  virtual bool LookupActual(const std::string& fingerprint,
                            double* actual_rows) = 0;

  // Records one executed query's estimate-vs-actual observations.
  virtual void RecordQueryFeedback(QueryFeedback feedback) = 0;

  // True when a prior execution of `fingerprint` mis-specialized (its guard
  // fired): the DAG compiler then keeps the generic operator for that
  // subplan. Default: never vetoed (hooks without mis-specialization
  // tracking change nothing).
  virtual bool SpecializationVetoed(const std::string& fingerprint) {
    (void)fingerprint;
    return false;
  }
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_FEEDBACK_H_
