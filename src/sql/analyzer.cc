#include "sql/analyzer.h"

#include <algorithm>

#include "sql/parser.h"

namespace bytecard::sql {

namespace {

using minihouse::BoundQuery;
using minihouse::ColumnPredicate;
using minihouse::CompareOp;
using minihouse::DataType;
using minihouse::Database;

// The code a string literal absent from the column's dictionary converts to.
constexpr int64_t kUnknownStringCode = -2;

struct ResolvedColumn {
  int table = -1;   // index into BoundQuery::tables
  int column = -1;  // index into the table's schema
};

// Resolves `ref` against the bound table list. An unqualified name must be
// unique across all tables in scope.
Result<ResolvedColumn> ResolveColumn(const BoundQuery& query,
                                     const ColumnRef& ref) {
  ResolvedColumn out;
  int matches = 0;
  for (int t = 0; t < query.num_tables(); ++t) {
    const auto& bt = query.tables[t];
    const std::string& alias =
        bt.alias.empty() ? bt.table->name() : bt.alias;
    if (!ref.table.empty() && ref.table != alias) continue;
    const int c = bt.table->FindColumnIndex(ref.column);
    if (c < 0) continue;
    out.table = t;
    out.column = c;
    ++matches;
  }
  if (matches == 0) {
    return Status::NotFound("column '" + ref.ToString() + "' not found");
  }
  if (matches > 1) {
    return Status::InvalidArgument("column '" + ref.ToString() +
                                   "' is ambiguous");
  }
  return out;
}

// Converts one literal into the numeric domain of the target column.
Result<int64_t> LiteralToNumeric(const Literal& lit,
                                 const minihouse::Column& column,
                                 CompareOp op) {
  switch (column.type()) {
    case DataType::kInt64:
      if (lit.kind == Literal::Kind::kInt) return lit.int_value;
      if (lit.kind == Literal::Kind::kFloat) {
        return static_cast<int64_t>(lit.float_value);
      }
      return Status::InvalidArgument("string literal vs int64 column");
    case DataType::kFloat64: {
      double v = 0.0;
      if (lit.kind == Literal::Kind::kInt) {
        v = static_cast<double>(lit.int_value);
      } else if (lit.kind == Literal::Kind::kFloat) {
        v = lit.float_value;
      } else {
        return Status::InvalidArgument("string literal vs float column");
      }
      return minihouse::Column::OrderedCodeOf(v);
    }
    case DataType::kString: {
      if (lit.kind != Literal::Kind::kString) {
        return Status::InvalidArgument("non-string literal vs string column");
      }
      if (op != CompareOp::kEq && op != CompareOp::kNe &&
          op != CompareOp::kIn) {
        // JOB-light deliberately has no string range predicates (paper §6.1);
        // neither does this engine.
        return Status::Unimplemented("range predicate on string column");
      }
      const auto& dict = column.dictionary();
      auto it = std::find(dict.begin(), dict.end(), lit.string_value);
      if (it == dict.end()) {
        // Unknown value: the sentinel matches no stored code, which gives
        // the correct semantics for =, IN (empty) and != (all rows).
        return kUnknownStringCode;
      }
      return static_cast<int64_t>(it - dict.begin());
    }
    case DataType::kArray:
      return Status::Unimplemented("predicate on complex-typed column");
  }
  return Status::Internal("unhandled column type");
}

}  // namespace

Result<BoundQuery> Analyze(const SelectStatement& stmt, const Database& db) {
  BoundQuery query;
  query.sql = stmt.text.empty() ? ToSql(stmt) : stmt.text;

  // Tables and alias uniqueness.
  for (const AstTableRef& ref : stmt.tables) {
    BC_ASSIGN_OR_RETURN(const minihouse::Table* table,
                        db.FindTable(ref.table));
    minihouse::BoundTableRef bound;
    bound.table = table;
    bound.alias = ref.alias.empty() ? ref.table : ref.alias;
    for (const auto& existing : query.tables) {
      if (existing.alias == bound.alias) {
        return Status::InvalidArgument("duplicate table alias '" +
                                       bound.alias + "'");
      }
    }
    query.tables.push_back(std::move(bound));
  }
  if (query.tables.empty()) {
    return Status::InvalidArgument("query has no tables");
  }

  // Filters, pushed to their table's conjunction.
  for (const AstFilter& filter : stmt.filters) {
    BC_ASSIGN_OR_RETURN(ResolvedColumn rc,
                        ResolveColumn(query, filter.column));
    const minihouse::Column& col = query.tables[rc.table].table->column(rc.column);

    ColumnPredicate pred;
    pred.column = rc.column;
    pred.column_name =
        query.tables[rc.table].table->schema().column(rc.column).name;
    pred.op = filter.op;
    if (filter.op == CompareOp::kIn) {
      for (const Literal& lit : filter.operands) {
        BC_ASSIGN_OR_RETURN(int64_t v, LiteralToNumeric(lit, col, filter.op));
        // An unknown string matches nothing, so it leaves the list; on a
        // numeric column the sentinel's value is an ordinary literal.
        if (v == kUnknownStringCode && col.type() == DataType::kString) {
          continue;
        }
        pred.in_list.push_back(v);
      }
    } else if (filter.op == CompareOp::kBetween) {
      if (filter.operands.size() != 2) {
        return Status::InvalidArgument("BETWEEN needs two operands");
      }
      BC_ASSIGN_OR_RETURN(pred.operand,
                          LiteralToNumeric(filter.operands[0], col, filter.op));
      BC_ASSIGN_OR_RETURN(
          pred.operand2, LiteralToNumeric(filter.operands[1], col, filter.op));
    } else {
      if (filter.operands.size() != 1) {
        return Status::InvalidArgument("comparison needs one operand");
      }
      BC_ASSIGN_OR_RETURN(pred.operand,
                          LiteralToNumeric(filter.operands[0], col, filter.op));
    }
    query.tables[rc.table].filters.push_back(std::move(pred));
  }

  // Joins.
  for (const AstJoin& join : stmt.joins) {
    BC_ASSIGN_OR_RETURN(ResolvedColumn left, ResolveColumn(query, join.left));
    BC_ASSIGN_OR_RETURN(ResolvedColumn right,
                        ResolveColumn(query, join.right));
    if (left.table == right.table) {
      return Status::Unimplemented("self-join predicate within one table");
    }
    minihouse::JoinEdge edge;
    edge.left_table = left.table;
    edge.left_column = left.column;
    edge.right_table = right.table;
    edge.right_column = right.column;
    query.joins.push_back(edge);
  }

  // Group-by keys.
  for (const ColumnRef& ref : stmt.group_by) {
    BC_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(query, ref));
    query.group_by.push_back(minihouse::GroupKeyRef{rc.table, rc.column});
  }

  // Aggregates; bare columns in the select list must be group keys.
  for (const AstSelectItem& item : stmt.items) {
    minihouse::AggSpecRef agg;
    switch (item.kind) {
      case AstSelectItem::Kind::kCountStar:
        agg.func = minihouse::AggFunc::kCountStar;
        query.aggs.push_back(agg);
        continue;
      case AstSelectItem::Kind::kCount:
        agg.func = minihouse::AggFunc::kCount;
        break;
      case AstSelectItem::Kind::kCountDistinct:
        agg.func = minihouse::AggFunc::kCountDistinct;
        break;
      case AstSelectItem::Kind::kSum:
        agg.func = minihouse::AggFunc::kSum;
        break;
      case AstSelectItem::Kind::kAvg:
        agg.func = minihouse::AggFunc::kAvg;
        break;
      case AstSelectItem::Kind::kColumn: {
        BC_ASSIGN_OR_RETURN(ResolvedColumn rc,
                            ResolveColumn(query, item.column));
        const bool is_group_key = std::any_of(
            query.group_by.begin(), query.group_by.end(),
            [&](const minihouse::GroupKeyRef& g) {
              return g.table == rc.table && g.column == rc.column;
            });
        if (!is_group_key) {
          return Status::InvalidArgument(
              "bare column '" + item.column.ToString() +
              "' in select list must be a GROUP BY key");
        }
        continue;
      }
    }
    BC_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(query, item.column));
    agg.table = rc.table;
    agg.column = rc.column;
    query.aggs.push_back(agg);
  }

  return query;
}

Result<BoundQuery> AnalyzeSql(const std::string& sql, const Database& db) {
  BC_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return Analyze(stmt, db);
}

}  // namespace bytecard::sql
