// The canonical estimation-request IR: CardEstRequest fingerprints must be
// invariant under every representation choice that does not change the
// question (table order, predicate order, join-edge direction, disjunct
// order), self-join prefixes must stay distinct, and the three layers that
// key on fingerprints — the optimizer's memos, the feedback cache lookups,
// and the compiled DAG's operator stamps — must produce the same strings for
// the same subplan.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cardest/request.h"
#include "common/rng.h"
#include "minihouse/executor.h"
#include "minihouse/feedback.h"
#include "minihouse/operators.h"
#include "minihouse/optimizer.h"
#include "test_util.h"

namespace bytecard {
namespace {

using cardest::CardEstRequest;
using cardest::InferenceSession;
using minihouse::BoundQuery;
using minihouse::BoundTableRef;
using minihouse::ColumnPredicate;
using minihouse::CompareOp;
using minihouse::Conjunction;
using minihouse::JoinEdge;

ColumnPredicate Pred(int column, CompareOp op, int64_t operand,
                     int64_t operand2 = 0) {
  ColumnPredicate pred;
  pred.column = column;
  pred.op = op;
  pred.operand = operand;
  pred.operand2 = operand2;
  return pred;
}

// A random conjunction over the toy tables' three columns.
Conjunction RandomFilters(Rng* rng) {
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                   CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe};
  Conjunction filters;
  const int n = static_cast<int>(rng->Uniform(4));  // 0..3 predicates
  for (int i = 0; i < n; ++i) {
    filters.push_back(Pred(static_cast<int>(rng->Uniform(3)),
                           kOps[rng->Uniform(6)],
                           static_cast<int64_t>(rng->Uniform(50))));
  }
  if (rng->Uniform(3) == 0) {
    ColumnPredicate in = Pred(static_cast<int>(rng->Uniform(3)),
                              CompareOp::kIn, 0);
    in.in_list = {1, static_cast<int64_t>(rng->Uniform(40)), 7};
    filters.push_back(std::move(in));
  }
  return filters;
}

// A random join query over the toy catalog: fact and dim refs with random
// filters, chained by equi-joins on fact.dim_id = dim.id. Filters are drawn
// per ref, so refs of the same table are (almost always) distinguishable.
BoundQuery RandomJoinQuery(const minihouse::Database& db, Rng* rng,
                           int num_tables) {
  const minihouse::Table* fact = db.FindTable("fact").value();
  const minihouse::Table* dim = db.FindTable("dim").value();
  BoundQuery query;
  for (int t = 0; t < num_tables; ++t) {
    BoundTableRef ref;
    ref.table = (t % 2 == 0) ? fact : dim;
    ref.alias = std::string(t % 2 == 0 ? "fact" : "dim") + std::to_string(t);
    ref.filters = RandomFilters(rng);
    query.tables.push_back(std::move(ref));
  }
  for (int t = 1; t < num_tables; ++t) {
    // fact.dim_id (col 0) = dim.id (col 0); direction as generated.
    query.joins.push_back(JoinEdge{t - 1, 0, t, 0});
  }
  query.aggs = {{minihouse::AggFunc::kCountStar, -1, -1}};
  return query;
}

// The same query with tables listed in a different order (perm[new] = old),
// join edges re-indexed accordingly. `subset` (old indices) is rewritten to
// the new indices. Semantically the identical question.
BoundQuery PermuteTables(const BoundQuery& query, const std::vector<int>& perm,
                         std::vector<int>* subset) {
  std::vector<int> old_to_new(query.tables.size());
  BoundQuery out;
  for (size_t n = 0; n < perm.size(); ++n) {
    old_to_new[static_cast<size_t>(perm[n])] = static_cast<int>(n);
    out.tables.push_back(query.tables[static_cast<size_t>(perm[n])]);
  }
  for (const JoinEdge& e : query.joins) {
    JoinEdge mapped = e;
    mapped.left_table = old_to_new[static_cast<size_t>(e.left_table)];
    mapped.right_table = old_to_new[static_cast<size_t>(e.right_table)];
    out.joins.push_back(mapped);
  }
  out.group_by = query.group_by;
  for (auto& g : out.group_by) g.table = old_to_new[static_cast<size_t>(g.table)];
  out.aggs = query.aggs;
  if (subset != nullptr) {
    for (int& t : *subset) t = old_to_new[static_cast<size_t>(t)];
  }
  return out;
}

// --- Fingerprint invariance ---------------------------------------------------

TEST(RequestFingerprintTest, InvariantUnderRepresentation) {
  auto db = testutil::BuildToyDatabase(500);
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const int num_tables = 2 + static_cast<int>(rng.Uniform(3));  // 2..4
    BoundQuery query = RandomJoinQuery(*db, &rng, num_tables);

    // Random subset of >= 2 tables.
    std::vector<int> subset;
    for (int t = 0; t < num_tables; ++t) subset.push_back(t);
    rng.Shuffle(&subset);
    subset.resize(2 + rng.Uniform(static_cast<uint64_t>(num_tables - 1)));

    const std::string base = cardest::SubplanKey(query, subset);

    // 1. Subset enumeration order is irrelevant.
    std::vector<int> shuffled = subset;
    rng.Shuffle(&shuffled);
    EXPECT_EQ(base, cardest::SubplanKey(query, shuffled)) << "trial " << trial;

    // 2. Predicate order within each conjunction is irrelevant.
    BoundQuery pred_perm = query;
    for (auto& ref : pred_perm.tables) rng.Shuffle(&ref.filters);
    EXPECT_EQ(base, cardest::SubplanKey(pred_perm, subset)) << "trial "
                                                            << trial;

    // 3. Join-edge direction and edge listing order are irrelevant.
    BoundQuery edge_perm = query;
    for (JoinEdge& e : edge_perm.joins) {
      if (rng.Uniform(2) == 0) {
        std::swap(e.left_table, e.right_table);
        std::swap(e.left_column, e.right_column);
      }
    }
    rng.Shuffle(&edge_perm.joins);
    EXPECT_EQ(base, cardest::SubplanKey(edge_perm, subset)) << "trial "
                                                            << trial;

    // 4. Table listing order is irrelevant when refs are content-distinct
    //    (identical duplicate refs are index-disambiguated instead — see the
    //    SelfJoin test below).
    std::set<std::string> tokens;
    bool distinct = true;
    for (int t = 0; t < num_tables; ++t) {
      const auto& ref = query.tables[static_cast<size_t>(t)];
      if (!tokens.insert(cardest::TableKey(*ref.table, ref.filters)).second) {
        distinct = false;
      }
    }
    if (distinct) {
      std::vector<int> perm;
      for (int t = 0; t < num_tables; ++t) perm.push_back(t);
      rng.Shuffle(&perm);
      std::vector<int> mapped_subset = subset;
      const BoundQuery table_perm =
          PermuteTables(query, perm, &mapped_subset);
      EXPECT_EQ(base, cardest::SubplanKey(table_perm, mapped_subset))
          << "trial " << trial;
    }

    // 5. A session never changes the string, only who computes it.
    InferenceSession session;
    EXPECT_EQ(base, cardest::SubplanKey(query, subset, &session));
    EXPECT_EQ(base, cardest::SubplanKey(query, subset, &session));  // memoized
  }
}

TEST(RequestFingerprintTest, CountEqualsJoinCountOverAllTables) {
  auto db = testutil::BuildToyDatabase(500);
  Rng rng(7);
  BoundQuery query = RandomJoinQuery(*db, &rng, 3);
  std::vector<int> all = {0, 1, 2};
  InferenceSession session;
  EXPECT_EQ(CardEstRequest::Count(query).Fingerprint(),
            CardEstRequest::JoinCount(query, all).Fingerprint());
  EXPECT_EQ(CardEstRequest::Count(query).Fingerprint(&session),
            CardEstRequest::JoinCount(query, all).Fingerprint());
}

TEST(RequestFingerprintTest, SelfJoinPrefixesStayDistinct) {
  // Identical (table, filters) refs at indices 0 and 2: the {0,1} and {1,2}
  // prefixes are different joins and must not share a memo/feedback key.
  auto db = testutil::BuildToyDatabase(500);
  const minihouse::Table* fact = db->FindTable("fact").value();
  const minihouse::Table* dim = db->FindTable("dim").value();
  BoundQuery query;
  for (int t = 0; t < 3; ++t) {
    BoundTableRef ref;
    ref.table = (t == 1) ? dim : fact;
    ref.alias = (t == 1) ? "dim" : ("fact" + std::to_string(t));
    query.tables.push_back(std::move(ref));
  }
  query.joins = {JoinEdge{0, 0, 1, 0}, JoinEdge{1, 0, 2, 0}};

  const std::string left = cardest::SubplanKey(query, {0, 1});
  const std::string right = cardest::SubplanKey(query, {1, 2});
  EXPECT_NE(left, right);
  // Duplicated refs are disambiguated by query-table index.
  EXPECT_NE(left.find("#0"), std::string::npos) << left;
  EXPECT_NE(right.find("#2"), std::string::npos) << right;
  // The dim ref is unique, so it keeps its plain content token and the
  // single-table key still matches the cross-query table fingerprint.
  EXPECT_EQ(cardest::SubplanKey(query, {1}),
            cardest::TableKey(*dim, query.tables[1].filters));
}

TEST(RequestFingerprintTest, DisjunctionAndNdvTargets) {
  auto db = testutil::BuildToyDatabase(500);
  const minihouse::Table* fact = db->FindTable("fact").value();

  // Disjunct order and per-disjunct predicate order are irrelevant.
  std::vector<Conjunction> d1 = {
      {Pred(1, CompareOp::kLt, 10), Pred(2, CompareOp::kEq, 0)},
      {Pred(0, CompareOp::kGe, 90)}};
  std::vector<Conjunction> d2 = {
      {Pred(0, CompareOp::kGe, 90)},
      {Pred(2, CompareOp::kEq, 0), Pred(1, CompareOp::kLt, 10)}};
  EXPECT_EQ(CardEstRequest::Disjunction(*fact, d1).Fingerprint(),
            CardEstRequest::Disjunction(*fact, d2).Fingerprint());

  // Column NDV keys distinguish the column and the filter set.
  Conjunction f1 = {Pred(1, CompareOp::kLt, 10)};
  Conjunction f2;
  const std::string a = CardEstRequest::ColumnNdv(*fact, 2, f1).Fingerprint();
  const std::string b = CardEstRequest::ColumnNdv(*fact, 1, f1).Fingerprint();
  const std::string c = CardEstRequest::ColumnNdv(*fact, 2, f2).Fingerprint();
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);

  // Group-NDV keys sort their group columns.
  BoundQuery q = testutil::ToyJoinQuery(*db);
  q.group_by = {{1, 1}, {1, 2}};
  BoundQuery q_swapped = q;
  q_swapped.group_by = {{1, 2}, {1, 1}};
  EXPECT_EQ(CardEstRequest::GroupNdv(q).Fingerprint(),
            CardEstRequest::GroupNdv(q_swapped).Fingerprint());
}

// --- Golden grammar -----------------------------------------------------------

// The exact bytes of both forms. Feedback-cache keys, operator stamps and
// routing-table keys are these strings, kept across queries and snapshots, so
// a change here is a format change, not a refactor.
TEST(RequestFingerprintTest, GoldenFingerprintAndRouteClassStrings) {
  auto db = testutil::BuildToyDatabase(500);
  const minihouse::Table* fact = db->FindTable("fact").value();
  const minihouse::Table* dim = db->FindTable("dim").value();

  // Both forms, each with and without a session memo.
  auto expect_forms = [](const CardEstRequest& request,
                         const std::string& fingerprint,
                         const std::string& route_class) {
    InferenceSession session;
    EXPECT_EQ(request.Fingerprint(), fingerprint);
    EXPECT_EQ(request.RouteClass(), route_class);
    EXPECT_EQ(request.Fingerprint(&session), fingerprint);
    EXPECT_EQ(request.RouteClass(&session), route_class);
  };

  // One table under an IN list (with a negative member) and a range.
  ColumnPredicate in = Pred(2, CompareOp::kIn, 0);
  in.in_list = {4, -2, 3};
  const Conjunction filters = {in, Pred(1, CompareOp::kBetween, 10, 20)};
  expect_forms(CardEstRequest::Selectivity(*fact, filters),
               "fact{1:7:10:20&2:6:0:0:4,-2,3}", "fact(1:7&2:6:in)");

  // fact0 JOIN dim JOIN fact2: refs 0 and 2 are the same (table, filters),
  // so their tokens carry "#<idx>"; the second edge is written dim-first.
  BoundQuery query;
  for (int t = 0; t < 3; ++t) {
    BoundTableRef ref;
    ref.table = (t == 1) ? dim : fact;
    ref.alias = (t == 1) ? "dim" : ("fact" + std::to_string(t));
    ref.filters = {t == 1 ? Pred(2, CompareOp::kEq, 1)
                          : Pred(1, CompareOp::kLt, 25)};
    query.tables.push_back(std::move(ref));
  }
  query.joins = {JoinEdge{0, 0, 1, 0}, JoinEdge{1, 0, 2, 0}};
  query.group_by = {{1, 1}, {0, 2}};
  const std::string join3 =
      "J[dim{2:0:1:0},fact{1:2:25:0}#0,fact{1:2:25:0}#2;"
      "dim{2:0:1:0}.0=fact{1:2:25:0}#0.0,dim{2:0:1:0}.0=fact{1:2:25:0}#2.0]";
  const std::string join3_class =
      "J(dim(2:0),fact(1:2)#0,fact(1:2)#2;"
      "dim(2:0).0=fact(1:2)#0.0,dim(2:0).0=fact(1:2)#2.0)";
  expect_forms(CardEstRequest::Count(query), join3, join3_class);
  const std::vector<int> prefix = {1, 0};
  expect_forms(CardEstRequest::JoinCount(query, prefix),
               "J[dim{2:0:1:0},fact{1:2:25:0}#0;"
               "dim{2:0:1:0}.0=fact{1:2:25:0}#0.0]",
               "J(dim(2:0),fact(1:2)#0;dim(2:0).0=fact(1:2)#0.0)");

  // A one-table subset is the bare table token.
  const std::vector<int> one = {1};
  expect_forms(CardEstRequest::JoinCount(query, one), "dim{2:0:1:0}",
               "dim(2:0)");

  // Group NDV, column NDV and a disjunction.
  expect_forms(CardEstRequest::GroupNdv(query), "G[" + join3 + ";dim.1;fact.2]",
               "G(" + join3_class + ";dim.1;fact.2)");
  expect_forms(CardEstRequest::ColumnNdv(*fact, 2, filters),
               "V[fact{1:7:10:20&2:6:0:0:4,-2,3};2]",
               "V(fact(1:7&2:6:in);2)");
  const std::vector<Conjunction> disjuncts = {
      {Pred(1, CompareOp::kGe, 40), Pred(0, CompareOp::kNe, 7)}, {in}};
  expect_forms(CardEstRequest::Disjunction(*fact, disjuncts),
               "O[fact;{0:1:7:0&1:5:40:0}|{2:6:0:0:4,-2,3}]",
               "O(fact;(0:1&1:5)|(2:6:in))");
}

// --- Cross-layer key agreement ------------------------------------------------

// Records every fingerprint the optimizer asks the feedback cache about.
class RecordingHook : public minihouse::QueryFeedbackHook {
 public:
  bool LookupActual(const std::string& fingerprint, double*) override {
    lookups.push_back(fingerprint);
    return false;
  }
  void RecordQueryFeedback(minihouse::QueryFeedback feedback) override {
    recorded.push_back(std::move(feedback));
  }

  std::vector<std::string> lookups;
  std::vector<minihouse::QueryFeedback> recorded;
};

class HookedEstimator : public minihouse::CardinalityEstimator {
 public:
  explicit HookedEstimator(minihouse::QueryFeedbackHook* hook) : hook_(hook) {}
  std::string Name() const override { return "hooked"; }
  double EstimateSelectivity(const minihouse::Table&,
                             const Conjunction&) override {
    return 0.5;
  }
  double EstimateJoinCardinality(const BoundQuery& query,
                                 const std::vector<int>& subset) override {
    double card = 1.0;
    for (int t : subset) {
      card *= static_cast<double>(query.tables[t].table->num_rows());
    }
    return card * 0.01;
  }
  double EstimateGroupNdv(const BoundQuery&) override { return 8.0; }
  minihouse::QueryFeedbackHook* feedback_hook() const override {
    return hook_;
  }

 private:
  minihouse::QueryFeedbackHook* hook_;
};

TEST(RequestFingerprintTest, MemoFeedbackAndStampKeysAgree) {
  auto db = testutil::BuildToyDatabase(2000);
  BoundQuery query = testutil::ToyJoinQuery(*db);
  query.tables[0].filters = {Pred(1, CompareOp::kLt, 25)};
  query.tables[1].filters = {Pred(1, CompareOp::kEq, 2)};
  query.group_by = {{1, 2}};  // dim.flag

  RecordingHook hook;
  HookedEstimator estimator(&hook);
  minihouse::EstimationContext ctx(&estimator);
  const minihouse::PhysicalPlan plan =
      minihouse::Optimizer().Plan(query, &ctx);

  // The canonical keys this query's subplans should be filed under.
  const std::string scan0 =
      cardest::TableKey(*query.tables[0].table, query.tables[0].filters);
  const std::string scan1 =
      cardest::TableKey(*query.tables[1].table, query.tables[1].filters);
  const std::string join01 = cardest::SubplanKey(query, {0, 1});
  const std::string gndv = cardest::GroupNdvKey(query);

  // Optimizer memo / stamped plan map: the full join is priced under the
  // canonical subplan key.
  ASSERT_TRUE(plan.join_estimates.count(join01)) << join01;
  EXPECT_EQ(plan.join_estimates, ctx.join_memo());

  // Feedback lookups used exactly the same strings.
  const std::set<std::string> asked(hook.lookups.begin(), hook.lookups.end());
  EXPECT_TRUE(asked.count(scan0)) << scan0;
  EXPECT_TRUE(asked.count(scan1)) << scan1;
  EXPECT_TRUE(asked.count(join01)) << join01;
  EXPECT_TRUE(asked.count(gndv)) << gndv;

  // Operator stamps in the compiled DAG carry the same keys.
  minihouse::QueryContext qctx;
  auto dag = minihouse::CompileOperatorDag(query, plan, &qctx);
  ASSERT_TRUE(dag.ok()) << dag.status().ToString();
  std::set<std::string> stamped;
  std::vector<const minihouse::PhysicalOperator*> walk = {
      dag.value().root.get()};
  while (!walk.empty()) {
    const minihouse::PhysicalOperator* op = walk.back();
    walk.pop_back();
    if (op->feedback_stamp()) {
      stamped.insert(op->feedback_stamp()->fingerprint);
    }
    for (size_t i = 0; i < op->num_children(); ++i) {
      walk.push_back(op->child(i));
    }
  }
  EXPECT_TRUE(stamped.count(scan0)) << scan0;
  EXPECT_TRUE(stamped.count(scan1)) << scan1;
  EXPECT_TRUE(stamped.count(join01)) << join01;
  EXPECT_TRUE(stamped.count(gndv)) << gndv;
  // Every stamped key is one the planner priced (scans, join prefixes, NDV)
  // — no stamp uses a string the feedback cache could never be asked about.
  for (const std::string& key : stamped) {
    EXPECT_TRUE(asked.count(key)) << "stamp not plannable: " << key;
  }
}

// --- InferenceSession unit behaviour ------------------------------------------

TEST(RequestFingerprintTest, SessionMemoRoundTrips) {
  InferenceSession session;
  double value = 0.0;
  EXPECT_FALSE(session.LookupScalar("sel:k", &value));
  session.StoreScalar("sel:k", 0.25);
  ASSERT_TRUE(session.LookupScalar("sel:k", &value));
  EXPECT_EQ(value, 0.25);

  double total = 0.0;
  EXPECT_EQ(session.LookupBuckets("fjb:k", &total), nullptr);
  session.StoreBuckets("fjb:k", {1.0, 2.0}, 3.0);
  const std::vector<double>* counts = session.LookupBuckets("fjb:k", &total);
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(*counts, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(total, 3.0);

  EXPECT_EQ(session.stats().probe_cache_hits, 2);
  EXPECT_EQ(session.stats().probe_cache_misses, 2);

  // All-tables iota grows and shrinks with the asked size.
  EXPECT_EQ(session.AllTables(3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(session.AllTables(5), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(session.AllTables(2), (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace bytecard
