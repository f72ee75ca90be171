#include "workload/truth.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "minihouse/predicate.h"

namespace bytecard::workload {

namespace {

using minihouse::BoundQuery;

// One directed edge of the rooted join tree.
struct TreeEdge {
  int child = -1;
  int child_column = -1;
  int parent_column = -1;
};

}  // namespace

Result<int64_t> TrueCount(const BoundQuery& query) {
  const int n = query.num_tables();
  if (n == 0) return Status::InvalidArgument("query has no tables");

  // Filtered-row selection per table.
  std::vector<std::vector<uint8_t>> selection(n);
  for (int t = 0; t < n; ++t) {
    minihouse::EvaluateConjunction(query.tables[t].filters,
                                   *query.tables[t].table, &selection[t]);
  }

  if (n == 1) {
    int64_t count = 0;
    for (uint8_t s : selection[0]) count += s;
    return count;
  }

  // Root the join tree at table 0 and orient the edges. A cyclic or
  // disconnected join graph is rejected (workload templates are spanning
  // trees by construction).
  if (static_cast<int>(query.joins.size()) != n - 1) {
    return Status::InvalidArgument(
        "TrueCount requires a tree-shaped join graph");
  }
  std::vector<std::vector<TreeEdge>> children(n);
  std::vector<int> parent(n, -2);
  parent[0] = -1;
  std::vector<int> order = {0};
  std::vector<bool> used_edge(query.joins.size(), false);
  for (size_t i = 0; i < order.size(); ++i) {
    const int v = order[i];
    for (size_t e = 0; e < query.joins.size(); ++e) {
      if (used_edge[e]) continue;
      const minihouse::JoinEdge& edge = query.joins[e];
      int child = -1;
      TreeEdge te;
      if (edge.left_table == v && parent[edge.right_table] == -2) {
        child = edge.right_table;
        te = {child, edge.right_column, edge.left_column};
      } else if (edge.right_table == v && parent[edge.left_table] == -2) {
        child = edge.left_table;
        te = {child, edge.left_column, edge.right_column};
      } else {
        continue;
      }
      used_edge[e] = true;
      parent[child] = v;
      children[v].push_back(te);
      order.push_back(child);
    }
  }
  if (static_cast<int>(order.size()) != n) {
    return Status::InvalidArgument("join graph is cyclic or disconnected");
  }

  // Bottom-up count messages: msg[t] maps the child's join-key value to the
  // number of join combinations in t's subtree carrying that key. Doubles
  // are exact below 2^53, far above the counts seen here.
  std::vector<std::unordered_map<int64_t, double>> msg(n);
  for (size_t i = order.size(); i-- > 0;) {
    const int t = order[i];
    const minihouse::Table& table = *query.tables[t].table;
    const bool is_root = parent[t] == -1;
    std::unordered_map<int64_t, double>& out = msg[t];
    double root_total = 0.0;

    for (int64_t r = 0; r < table.num_rows(); ++r) {
      if (selection[t][r] == 0) continue;
      double weight = 1.0;
      for (const TreeEdge& edge : children[t]) {
        const int64_t key =
            table.column(edge.parent_column).NumericAt(r);
        auto it = msg[edge.child].find(key);
        if (it == msg[edge.child].end()) {
          weight = 0.0;
          break;
        }
        weight *= it->second;
      }
      if (weight == 0.0) continue;
      if (is_root) {
        root_total += weight;
      } else {
        // Key under which the parent will look this subtree up: the child
        // column of the edge to the parent.
        int child_col = -1;
        for (const TreeEdge& edge : children[parent[t]]) {
          if (edge.child == t) {
            child_col = edge.child_column;
            break;
          }
        }
        BC_CHECK(child_col >= 0);
        out[table.column(child_col).NumericAt(r)] += weight;
      }
    }
    if (is_root) {
      return static_cast<int64_t>(root_total);
    }
  }
  return Status::Internal("unreachable: join tree had no root");
}

Result<int64_t> TrueColumnNdv(const minihouse::Table& table, int column,
                              const minihouse::Conjunction& filters) {
  if (column < 0 || column >= table.num_columns()) {
    return Status::InvalidArgument("NDV column out of range");
  }
  std::vector<uint8_t> selection;
  minihouse::EvaluateConjunction(filters, table, &selection);
  std::unordered_set<int64_t> distinct;
  const minihouse::Column& col = table.column(column);
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (selection[r] != 0) distinct.insert(col.NumericAt(r));
  }
  return static_cast<int64_t>(distinct.size());
}

}  // namespace bytecard::workload
