#ifndef BYTECARD_CARDEST_REQUEST_H_
#define BYTECARD_CARDEST_REQUEST_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "minihouse/query.h"

namespace bytecard::cardest {

class InferenceSession;

// --- Canonical estimation-request IR -----------------------------------------
// Every estimation question the engine asks — scan selectivity, join-subset
// cardinality, GROUP BY output NDV, COUNT(DISTINCT col), OR-query counts —
// is one CardEstRequest: a target kind plus non-owning views into the bound
// query it is asked about (paper §4.2's uniform Featurize→Estimate contract,
// lifted from per-model to the whole serving path). The request carries the
// *one* canonical token grammar in the tree; the optimizer's per-query memos,
// the runtime feedback cache, and operator stamping all key on Fingerprint(),
// so the three layers can never disagree about "what subplan is this estimate
// for", and the adaptive router keys on RouteClass(), the same grammar with
// the literals dropped.
//
// Lifetime: a request borrows its query/table/filter referents from the
// caller. It is a call-scoped value — build it, hand it to
// CardinalityEstimator::Estimate / EstimatorSnapshot::Estimate, let it die.
// Never store one beyond the statements that created it.

enum class CardEstTarget {
  kSelectivity,  // fraction of `table`'s rows matching `filters`, in [0, 1]
  kJoinCount,    // COUNT(*) of the join of `table_set` under its filters
  kGroupNdv,     // distinct group keys of `query`'s GROUP BY output
  kColumnNdv,    // COUNT(DISTINCT ndv_column) on `table` under `filters`
  kDisjunction,  // COUNT(*) of the union of `disjuncts` on `table`
};

struct CardEstRequest {
  CardEstTarget target = CardEstTarget::kSelectivity;

  // Join-shaped targets (kJoinCount, kGroupNdv).
  const minihouse::BoundQuery* query = nullptr;
  // Tables the estimate covers (indices into query->tables). Null with
  // all_tables set means "every table of the query" — the fast path that
  // avoids materializing an iota vector per EstimateCount call.
  const std::vector<int>* table_set = nullptr;
  bool all_tables = false;

  // Table-shaped targets (kSelectivity, kColumnNdv, kDisjunction).
  const minihouse::Table* table = nullptr;
  const minihouse::Conjunction* filters = nullptr;
  int ndv_column = -1;
  const std::vector<minihouse::Conjunction>* disjuncts = nullptr;

  // --- Factories (the only supported way to build a request) ----------------
  static CardEstRequest Selectivity(const minihouse::Table& table,
                                    const minihouse::Conjunction& filters);
  static CardEstRequest JoinCount(const minihouse::BoundQuery& query,
                                  const std::vector<int>& table_set);
  // Whole-query COUNT(*): kJoinCount over every table, without allocating
  // the all-tables vector (resolved lazily via ResolveTables).
  static CardEstRequest Count(const minihouse::BoundQuery& query);
  static CardEstRequest GroupNdv(const minihouse::BoundQuery& query);
  static CardEstRequest ColumnNdv(const minihouse::Table& table, int column,
                                  const minihouse::Conjunction& filters);
  static CardEstRequest Disjunction(
      const minihouse::Table& table,
      const std::vector<minihouse::Conjunction>& disjuncts);

  // The concrete table set of a join-shaped request. All-tables requests
  // resolve through the session's cached iota when one is given; otherwise
  // `scratch` is filled and referenced. `scratch` must outlive the returned
  // reference.
  const std::vector<int>& ResolveTables(InferenceSession* session,
                                        std::vector<int>* scratch) const;

  // The canonical cross-query identity of this request, and its template
  // identity (see the token grammar below). `session` is optional and only
  // memoizes per-table token construction — the returned strings are
  // byte-identical with or without it.
  std::string Fingerprint(InferenceSession* session = nullptr) const;
  std::string RouteClass(InferenceSession* session = nullptr) const;
};

// The one inclusion-exclusion formula behind every kDisjunction answer
// (paper §5.1.2): COUNT(*) of the union of `disjuncts` on `table`, summing
// `selectivity(merged)` over every non-empty subset's merged conjunction with
// alternating signs. |disjuncts| is small in practice (OR lists in
// analytical filters); the cap keeps the 2^n terms bounded.
template <typename SelectivityFn>
double InclusionExclusionCount(
    const minihouse::Table& table,
    const std::vector<minihouse::Conjunction>& disjuncts,
    SelectivityFn&& selectivity) {
  const int n = static_cast<int>(disjuncts.size());
  if (n == 0) return 0.0;
  BC_CHECK(n <= 16) << "inclusion-exclusion over too many disjuncts";
  double sum = 0.0;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    minihouse::Conjunction merged;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        merged.insert(merged.end(), disjuncts[i].begin(), disjuncts[i].end());
      }
    }
    const double term = selectivity(merged);
    sum += (__builtin_popcount(mask) % 2 == 1) ? term : -term;
  }
  return std::clamp(sum, 0.0, 1.0) * static_cast<double>(table.num_rows());
}

// --- Canonical tokens -------------------------------------------------------
// One grammar, rendered in two forms. The fingerprint keeps every literal
// operand: it is the request's cross-query identity, and the feedback cache
// persists these strings between queries. The route class drops the operands,
// so queries that differ only in constants share one class (the adaptive
// router in bytecard/routing learns one estimator family per class), and uses
// parentheses for every bracket, so a class never collides with a fingerprint.
//
//               fingerprint                            route class
//   predicate   "col:op:operand:operand2[:v1,v2,...]"  "col:op[:in]"
//   table       "name{p1&p2&...}"                      "name(p1&p2&...)"
//   join        "J[t1,t2,...;e1,e2,...]"               "J(t1,t2,...;e1,...)"
//   group NDV   "G[<join-of-all-tables>;tbl.col;...]"  "G(...)"
//   column NDV  "V[<table>;col]"                       "V(<table>;col)"
//   disjunction "O[name;{d1}|{d2}|...]"                "O(name;(d1)|(d2)|...)"
//
// Predicate tokens are sorted within a table, and the IN-list suffix appears
// only when the list is non-empty. Table tokens are sorted within a join and
// each edge is normalized so its lexicographically smaller endpoint comes
// first (enumeration-order- and direction-independent). A one-element subset
// reduces to the bare table token, so scan and selectivity questions share
// keys. Self-join refs whose table tokens collide are suffixed
// "#<query-table-index>" so distinct join prefixes keep distinct keys. Group
// keys and disjunct bodies are sorted.
enum class TokenForm { kFingerprint, kRouteClass };

// Fingerprint-form tokens of a table, a join subset and a query's GROUP BY.
std::string TableKey(const minihouse::Table& table,
                     const minihouse::Conjunction& filters);
std::string SubplanKey(const minihouse::BoundQuery& query,
                       const std::vector<int>& subset,
                       InferenceSession* session = nullptr);
std::string GroupNdvKey(const minihouse::BoundQuery& query,
                        InferenceSession* session = nullptr);

// --- Per-query inference session ---------------------------------------------
// Scratch state for one query's estimation work. The optimizer's join-order
// search probes the estimator once per candidate subset, and every probe
// re-derives the same per-table ingredients: BN selectivities, FactorJoin
// filtered-bucket-count vectors, canonical table tokens. The session memoizes
// those ingredients so each is computed once per query instead of once per
// subset probe.
//
// Lifetime rules: one session per query, created by EstimationContext (or a
// bench/test harness) and destroyed with it; it must never outlive the
// snapshot whose probes it caches, and must never be shared across queries or
// threads (concurrent queries each bring their own — the snapshot itself
// stays lock-free and shared). Passing null everywhere a session is accepted
// is always valid and changes no estimate, only the work done to produce it.
class InferenceSession {
 public:
  struct Stats {
    int64_t probe_cache_hits = 0;    // scalar + bucket-vector memo hits
    int64_t probe_cache_misses = 0;  // first-time probes (stored)
  };

  InferenceSession() = default;
  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  // Scalar probe memo: one estimator family's selectivity of one (table,
  // filters), and FactorJoin's per-table BN counts.
  bool LookupScalar(const std::string& key, double* value);
  void StoreScalar(const std::string& key, double value);

  // FactorJoin filtered-bucket-count memo. Returns null on a miss; the
  // pointer stays valid until the session dies (values are never evicted).
  const std::vector<double>* LookupBuckets(const std::string& key,
                                           double* total_out);
  void StoreBuckets(const std::string& key, std::vector<double> counts,
                    double total);

  // Cached iota [0, n) for all-tables requests (grown on demand).
  const std::vector<int>& AllTables(int n);

  // Canonical table token of query.tables[table_idx] in either form,
  // memoized — subplan fingerprints during join ordering, and route classes
  // on every estimate while routing is live, re-tokenize the same tables for
  // every candidate subset.
  const std::string& TableToken(const minihouse::BoundQuery& query,
                                int table_idx,
                                TokenForm form = TokenForm::kFingerprint);

  const Stats& stats() const { return stats_; }

 private:
  struct BucketEntry {
    std::vector<double> counts;
    double total = 0.0;
  };

  std::unordered_map<std::string, double> scalars_;
  std::unordered_map<std::string, BucketEntry> buckets_;
  std::vector<int> all_tables_;
  // Keyed by (query identity, table index, form): sessions are per-query, but
  // the cheap guard keeps a stray cross-query reuse from serving stale tokens.
  std::map<std::tuple<const void*, int, TokenForm>, std::string> table_tokens_;
  Stats stats_;
};

}  // namespace bytecard::cardest

#endif  // BYTECARD_CARDEST_REQUEST_H_
