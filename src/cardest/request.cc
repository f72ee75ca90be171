#include "cardest/request.h"

#include <algorithm>
#include <numeric>

namespace bytecard::cardest {

// ---------------------------------------------------------------------------
// Canonical tokens
// ---------------------------------------------------------------------------

namespace {

// What tells the two forms apart: whether predicate tokens carry their
// operands, and the brackets.
struct Grammar {
  bool operands;
  char set_open;    // table predicate sets and disjunct bodies
  char set_close;
  char list_open;   // join, group NDV, column NDV and disjunction composites
  char list_close;
};

constexpr Grammar kFingerprintGrammar = {true, '{', '}', '[', ']'};
constexpr Grammar kRouteClassGrammar = {false, '(', ')', '(', ')'};

const Grammar& GrammarOf(TokenForm form) {
  return form == TokenForm::kFingerprint ? kFingerprintGrammar
                                         : kRouteClassGrammar;
}

std::string PredicateToken(const minihouse::ColumnPredicate& pred,
                           const Grammar& g) {
  std::string token = std::to_string(pred.column) + ":" +
                      std::to_string(static_cast<int>(pred.op));
  if (!g.operands) {
    if (!pred.in_list.empty()) token += ":in";
    return token;
  }
  token += ":" + std::to_string(pred.operand) + ":" +
           std::to_string(pred.operand2);
  if (!pred.in_list.empty()) {
    token += ":";
    for (size_t i = 0; i < pred.in_list.size(); ++i) {
      if (i > 0) token += ",";
      token += std::to_string(pred.in_list[i]);
    }
  }
  return token;
}

// Appends "{p1&p2&...}" with the predicate tokens sorted.
void AppendPredicateSet(const minihouse::Conjunction& filters,
                        const Grammar& g, std::string* out) {
  std::vector<std::string> parts;
  parts.reserve(filters.size());
  for (const minihouse::ColumnPredicate& pred : filters) {
    parts.push_back(PredicateToken(pred, g));
  }
  std::sort(parts.begin(), parts.end());
  *out += g.set_open;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) *out += "&";
    *out += parts[i];
  }
  *out += g.set_close;
}

std::string RenderTable(const minihouse::Table& table,
                        const minihouse::Conjunction& filters,
                        TokenForm form) {
  std::string token = table.name();
  AppendPredicateSet(filters, GrammarOf(form), &token);
  return token;
}

// Table token via the session memo when one is given.
const std::string* TokenOf(const minihouse::BoundQuery& query, int table_idx,
                           TokenForm form, InferenceSession* session,
                           std::string* storage) {
  if (session != nullptr) return &session->TableToken(query, table_idx, form);
  const minihouse::BoundTableRef& ref = query.tables[table_idx];
  *storage = RenderTable(*ref.table, ref.filters, form);
  return storage;
}

std::string RenderJoin(const minihouse::BoundQuery& query,
                       const std::vector<int>& subset, TokenForm form,
                       InferenceSession* session) {
  if (subset.size() == 1) {
    std::string storage;
    return *TokenOf(query, subset[0], form, session, &storage);
  }

  // Self-join disambiguation: when the query references the same
  // (table, filters) twice, the content tokens collide and different join
  // prefixes (say {fact, dim} vs {dim, fact2}) would share a key. Suffix
  // duplicated tokens with their query-table index — queries without
  // duplicate refs (the common case) keep the plain content token, so their
  // keys stay comparable across queries.
  const int num_tables = query.num_tables();
  std::vector<std::string> all_tokens(num_tables);
  std::map<std::string, int> token_counts;
  for (int t = 0; t < num_tables; ++t) {
    std::string storage;
    all_tokens[t] = *TokenOf(query, t, form, session, &storage);
    ++token_counts[all_tokens[t]];
  }

  std::vector<std::string> table_tokens;  // indexed by position in `subset`
  table_tokens.reserve(subset.size());
  for (int t : subset) {
    std::string token = all_tokens[t];
    if (token_counts[token] > 1) token += "#" + std::to_string(t);
    table_tokens.push_back(std::move(token));
  }

  // Map query-table index -> its canonical token, for edge normalization.
  auto token_of = [&](int query_table) -> const std::string* {
    for (size_t i = 0; i < subset.size(); ++i) {
      if (subset[i] == query_table) return &table_tokens[i];
    }
    return nullptr;
  };

  std::vector<std::string> edge_tokens;
  for (const minihouse::JoinEdge& e : query.joins) {
    const std::string* lt = token_of(e.left_table);
    const std::string* rt = token_of(e.right_table);
    if (lt == nullptr || rt == nullptr) continue;  // edge leaves the subset
    std::string a = *lt + "." + std::to_string(e.left_column);
    std::string b = *rt + "." + std::to_string(e.right_column);
    if (b < a) std::swap(a, b);  // direction-independent
    edge_tokens.push_back(a + "=" + b);
  }

  std::sort(table_tokens.begin(), table_tokens.end());
  std::sort(edge_tokens.begin(), edge_tokens.end());
  const Grammar& g = GrammarOf(form);
  std::string key = "J";
  key += g.list_open;
  for (size_t i = 0; i < table_tokens.size(); ++i) {
    if (i > 0) key += ",";
    key += table_tokens[i];
  }
  key += ";";
  for (size_t i = 0; i < edge_tokens.size(); ++i) {
    if (i > 0) key += ",";
    key += edge_tokens[i];
  }
  key += g.list_close;
  return key;
}

std::string RenderGroup(const minihouse::BoundQuery& query, TokenForm form,
                        InferenceSession* session) {
  std::vector<int> scratch;
  const Grammar& g = GrammarOf(form);
  std::string key = "G";
  key += g.list_open;
  key += RenderJoin(
      query, CardEstRequest::GroupNdv(query).ResolveTables(session, &scratch),
      form, session);
  std::vector<std::string> group_tokens;
  group_tokens.reserve(query.group_by.size());
  for (const minihouse::GroupKeyRef& key_ref : query.group_by) {
    group_tokens.push_back(query.tables[key_ref.table].table->name() + "." +
                           std::to_string(key_ref.column));
  }
  std::sort(group_tokens.begin(), group_tokens.end());
  for (const std::string& tok : group_tokens) {
    key += ";";
    key += tok;
  }
  key += g.list_close;
  return key;
}

std::string Render(const CardEstRequest& request, TokenForm form,
                   InferenceSession* session) {
  const Grammar& g = GrammarOf(form);
  switch (request.target) {
    case CardEstTarget::kSelectivity:
      return RenderTable(*request.table, *request.filters, form);
    case CardEstTarget::kJoinCount: {
      std::vector<int> scratch;
      return RenderJoin(*request.query,
                        request.ResolveTables(session, &scratch), form,
                        session);
    }
    case CardEstTarget::kGroupNdv:
      return RenderGroup(*request.query, form, session);
    case CardEstTarget::kColumnNdv: {
      std::string key = "V";
      key += g.list_open;
      key += RenderTable(*request.table, *request.filters, form);
      key += ";" + std::to_string(request.ndv_column);
      key += g.list_close;
      return key;
    }
    case CardEstTarget::kDisjunction: {
      // Each disjunct canonicalized like a table's predicate set; bodies
      // sorted so the key is independent of disjunct order.
      std::vector<std::string> bodies;
      bodies.reserve(request.disjuncts->size());
      for (const minihouse::Conjunction& d : *request.disjuncts) {
        std::string body;
        AppendPredicateSet(d, g, &body);
        bodies.push_back(std::move(body));
      }
      std::sort(bodies.begin(), bodies.end());
      std::string key = "O";
      key += g.list_open;
      key += request.table->name() + ";";
      for (size_t i = 0; i < bodies.size(); ++i) {
        if (i > 0) key += "|";
        key += bodies[i];
      }
      key += g.list_close;
      return key;
    }
  }
  return std::string();
}

}  // namespace

std::string TableKey(const minihouse::Table& table,
                     const minihouse::Conjunction& filters) {
  return RenderTable(table, filters, TokenForm::kFingerprint);
}

std::string SubplanKey(const minihouse::BoundQuery& query,
                       const std::vector<int>& subset,
                       InferenceSession* session) {
  return RenderJoin(query, subset, TokenForm::kFingerprint, session);
}

std::string GroupNdvKey(const minihouse::BoundQuery& query,
                        InferenceSession* session) {
  return RenderGroup(query, TokenForm::kFingerprint, session);
}

// ---------------------------------------------------------------------------
// CardEstRequest
// ---------------------------------------------------------------------------

CardEstRequest CardEstRequest::Selectivity(
    const minihouse::Table& table, const minihouse::Conjunction& filters) {
  CardEstRequest req;
  req.target = CardEstTarget::kSelectivity;
  req.table = &table;
  req.filters = &filters;
  return req;
}

CardEstRequest CardEstRequest::JoinCount(const minihouse::BoundQuery& query,
                                         const std::vector<int>& table_set) {
  CardEstRequest req;
  req.target = CardEstTarget::kJoinCount;
  req.query = &query;
  req.table_set = &table_set;
  return req;
}

CardEstRequest CardEstRequest::Count(const minihouse::BoundQuery& query) {
  CardEstRequest req;
  req.target = CardEstTarget::kJoinCount;
  req.query = &query;
  req.all_tables = true;
  return req;
}

CardEstRequest CardEstRequest::GroupNdv(const minihouse::BoundQuery& query) {
  CardEstRequest req;
  req.target = CardEstTarget::kGroupNdv;
  req.query = &query;
  req.all_tables = true;
  return req;
}

CardEstRequest CardEstRequest::ColumnNdv(
    const minihouse::Table& table, int column,
    const minihouse::Conjunction& filters) {
  CardEstRequest req;
  req.target = CardEstTarget::kColumnNdv;
  req.table = &table;
  req.ndv_column = column;
  req.filters = &filters;
  return req;
}

CardEstRequest CardEstRequest::Disjunction(
    const minihouse::Table& table,
    const std::vector<minihouse::Conjunction>& disjuncts) {
  CardEstRequest req;
  req.target = CardEstTarget::kDisjunction;
  req.table = &table;
  req.disjuncts = &disjuncts;
  return req;
}

const std::vector<int>& CardEstRequest::ResolveTables(
    InferenceSession* session, std::vector<int>* scratch) const {
  if (table_set != nullptr) return *table_set;
  const int n = query == nullptr ? 0 : query->num_tables();
  if (session != nullptr) return session->AllTables(n);
  scratch->resize(n);
  std::iota(scratch->begin(), scratch->end(), 0);
  return *scratch;
}

std::string CardEstRequest::Fingerprint(InferenceSession* session) const {
  return Render(*this, TokenForm::kFingerprint, session);
}

std::string CardEstRequest::RouteClass(InferenceSession* session) const {
  return Render(*this, TokenForm::kRouteClass, session);
}

// ---------------------------------------------------------------------------
// InferenceSession
// ---------------------------------------------------------------------------

bool InferenceSession::LookupScalar(const std::string& key, double* value) {
  auto it = scalars_.find(key);
  if (it == scalars_.end()) return false;
  ++stats_.probe_cache_hits;
  *value = it->second;
  return true;
}

void InferenceSession::StoreScalar(const std::string& key, double value) {
  ++stats_.probe_cache_misses;
  scalars_[key] = value;
}

const std::vector<double>* InferenceSession::LookupBuckets(
    const std::string& key, double* total_out) {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return nullptr;
  ++stats_.probe_cache_hits;
  *total_out = it->second.total;
  return &it->second.counts;
}

void InferenceSession::StoreBuckets(const std::string& key,
                                    std::vector<double> counts, double total) {
  ++stats_.probe_cache_misses;
  buckets_[key] = BucketEntry{std::move(counts), total};
}

const std::vector<int>& InferenceSession::AllTables(int n) {
  if (static_cast<int>(all_tables_.size()) < n) {
    const int old = static_cast<int>(all_tables_.size());
    all_tables_.resize(n);
    std::iota(all_tables_.begin() + old, all_tables_.end(), old);
  } else if (static_cast<int>(all_tables_.size()) > n) {
    all_tables_.resize(n);
  }
  return all_tables_;
}

const std::string& InferenceSession::TableToken(
    const minihouse::BoundQuery& query, int table_idx, TokenForm form) {
  const auto key =
      std::make_tuple(static_cast<const void*>(&query), table_idx, form);
  auto it = table_tokens_.find(key);
  if (it != table_tokens_.end()) return it->second;
  const minihouse::BoundTableRef& ref = query.tables[table_idx];
  return table_tokens_
      .emplace(key, RenderTable(*ref.table, ref.filters, form))
      .first->second;
}

}  // namespace bytecard::cardest
