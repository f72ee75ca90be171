#include "sql/parser.h"

#include <sstream>

#include "sql/lexer.h"

namespace bytecard::sql {

namespace {

using minihouse::CompareOp;

// Recursive-descent parser over the token stream.
class Parser {
 public:
  Parser(std::vector<Token> tokens, const std::string& sql)
      : tokens_(std::move(tokens)), sql_(sql) {}

  Result<SelectStatement> Parse() {
    SelectStatement stmt;
    BC_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    BC_RETURN_IF_ERROR(ParseSelectList(&stmt));
    BC_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    BC_RETURN_IF_ERROR(ParseTableList(&stmt));
    if (AcceptKeyword("WHERE")) {
      BC_RETURN_IF_ERROR(ParseWhere(&stmt));
    }
    if (AcceptKeyword("GROUP")) {
      BC_RETURN_IF_ERROR(ExpectKeyword("BY"));
      BC_RETURN_IF_ERROR(ParseGroupBy(&stmt));
    }
    AcceptSymbol(";");
    if (Peek().type != TokenType::kEnd) {
      return Err("trailing tokens after statement");
    }
    return stmt;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Err(const std::string& msg) const {
    return Status::InvalidArgument("parse error at position " +
                                   std::to_string(Peek().position) + ": " +
                                   msg);
  }

  bool AcceptKeyword(const std::string& kw) {
    if (Peek().type == TokenType::kKeyword && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) return Err("expected " + kw);
    return Status::Ok();
  }

  bool AcceptSymbol(const std::string& sym) {
    if (Peek().type == TokenType::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const std::string& sym) {
    if (!AcceptSymbol(sym)) return Err("expected '" + sym + "'");
    return Status::Ok();
  }

  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Result<std::string>(Err("expected identifier"));
    }
    return Advance().text;
  }

  Result<ColumnRef> ParseColumnRef() {
    ColumnRef ref;
    BC_ASSIGN_OR_RETURN(std::string first, ExpectIdentifier());
    if (AcceptSymbol(".")) {
      ref.table = first;
      // After the dot only a column can follow, so a keyword-spelled name
      // (tags.count) is that column, taken as written in the source.
      if (Peek().type == TokenType::kKeyword) {
        const Token& tok = Advance();
        ref.column = sql_.substr(tok.position, tok.text.size());
      } else {
        BC_ASSIGN_OR_RETURN(ref.column, ExpectIdentifier());
      }
    } else {
      ref.column = first;
    }
    return ref;
  }

  Result<Literal> ParseLiteral() {
    Literal lit;
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInteger:
        lit.kind = Literal::Kind::kInt;
        lit.int_value = tok.int_value;
        break;
      case TokenType::kFloat:
        lit.kind = Literal::Kind::kFloat;
        lit.float_value = tok.float_value;
        break;
      case TokenType::kString:
        lit.kind = Literal::Kind::kString;
        lit.string_value = tok.text;
        break;
      default:
        return Result<Literal>(Err("expected literal"));
    }
    Advance();
    return lit;
  }

  Status ParseSelectList(SelectStatement* stmt) {
    do {
      AstSelectItem item;
      if (AcceptKeyword("COUNT")) {
        BC_RETURN_IF_ERROR(ExpectSymbol("("));
        if (AcceptSymbol("*")) {
          item.kind = AstSelectItem::Kind::kCountStar;
        } else if (AcceptKeyword("DISTINCT")) {
          item.kind = AstSelectItem::Kind::kCountDistinct;
          BC_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
        } else {
          item.kind = AstSelectItem::Kind::kCount;
          BC_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
        }
        BC_RETURN_IF_ERROR(ExpectSymbol(")"));
      } else if (AcceptKeyword("SUM")) {
        item.kind = AstSelectItem::Kind::kSum;
        BC_RETURN_IF_ERROR(ExpectSymbol("("));
        BC_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
        BC_RETURN_IF_ERROR(ExpectSymbol(")"));
      } else if (AcceptKeyword("AVG")) {
        item.kind = AstSelectItem::Kind::kAvg;
        BC_RETURN_IF_ERROR(ExpectSymbol("("));
        BC_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
        BC_RETURN_IF_ERROR(ExpectSymbol(")"));
      } else {
        item.kind = AstSelectItem::Kind::kColumn;
        BC_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
      }
      stmt->items.push_back(std::move(item));
    } while (AcceptSymbol(","));
    return Status::Ok();
  }

  Status ParseTableList(SelectStatement* stmt) {
    do {
      AstTableRef ref;
      BC_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
      AcceptKeyword("AS");
      if (Peek().type == TokenType::kIdentifier) {
        ref.alias = Advance().text;
      }
      stmt->tables.push_back(std::move(ref));
    } while (AcceptSymbol(","));
    return Status::Ok();
  }

  // One WHERE conjunct: either a join (col = col) or a filter.
  Status ParseCondition(SelectStatement* stmt) {
    BC_ASSIGN_OR_RETURN(ColumnRef left, ParseColumnRef());

    if (AcceptKeyword("BETWEEN")) {
      AstFilter filter;
      filter.column = left;
      filter.op = CompareOp::kBetween;
      BC_ASSIGN_OR_RETURN(Literal lo, ParseLiteral());
      BC_RETURN_IF_ERROR(ExpectKeyword("AND"));
      BC_ASSIGN_OR_RETURN(Literal hi, ParseLiteral());
      filter.operands = {lo, hi};
      stmt->filters.push_back(std::move(filter));
      return Status::Ok();
    }
    if (AcceptKeyword("IN")) {
      AstFilter filter;
      filter.column = left;
      filter.op = CompareOp::kIn;
      BC_RETURN_IF_ERROR(ExpectSymbol("("));
      do {
        BC_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
        filter.operands.push_back(std::move(lit));
      } while (AcceptSymbol(","));
      BC_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt->filters.push_back(std::move(filter));
      return Status::Ok();
    }

    CompareOp op;
    if (AcceptSymbol("=")) {
      op = CompareOp::kEq;
    } else if (AcceptSymbol("!=")) {
      op = CompareOp::kNe;
    } else if (AcceptSymbol("<=")) {
      op = CompareOp::kLe;
    } else if (AcceptSymbol(">=")) {
      op = CompareOp::kGe;
    } else if (AcceptSymbol("<")) {
      op = CompareOp::kLt;
    } else if (AcceptSymbol(">")) {
      op = CompareOp::kGt;
    } else {
      return Err("expected comparison operator");
    }

    // Join if the right side is a column reference.
    if (op == CompareOp::kEq && Peek().type == TokenType::kIdentifier) {
      AstJoin join;
      join.left = left;
      BC_ASSIGN_OR_RETURN(join.right, ParseColumnRef());
      stmt->joins.push_back(std::move(join));
      return Status::Ok();
    }

    AstFilter filter;
    filter.column = left;
    filter.op = op;
    BC_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
    filter.operands.push_back(std::move(lit));
    stmt->filters.push_back(std::move(filter));
    return Status::Ok();
  }

  Status ParseWhere(SelectStatement* stmt) {
    do {
      BC_RETURN_IF_ERROR(ParseCondition(stmt));
    } while (AcceptKeyword("AND"));
    return Status::Ok();
  }

  Status ParseGroupBy(SelectStatement* stmt) {
    do {
      BC_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
      stmt->group_by.push_back(std::move(ref));
    } while (AcceptSymbol(","));
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  const std::string& sql_;  // the tokenized source
  size_t pos_ = 0;
};

std::string LiteralToSql(const Literal& lit) {
  switch (lit.kind) {
    case Literal::Kind::kInt:
      return std::to_string(lit.int_value);
    case Literal::Kind::kFloat: {
      std::ostringstream os;
      os << lit.float_value;
      return os.str();
    }
    case Literal::Kind::kString:
      return "'" + lit.string_value + "'";
  }
  return "?";
}

}  // namespace

Result<SelectStatement> ParseSelect(const std::string& sql) {
  BC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), sql);
  BC_ASSIGN_OR_RETURN(SelectStatement stmt, parser.Parse());
  stmt.text = sql;
  return stmt;
}

std::string ToSql(const SelectStatement& stmt) {
  std::ostringstream os;
  os << "SELECT ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) os << ", ";
    const AstSelectItem& item = stmt.items[i];
    switch (item.kind) {
      case AstSelectItem::Kind::kCountStar:
        os << "COUNT(*)";
        break;
      case AstSelectItem::Kind::kCount:
        os << "COUNT(" << item.column.ToString() << ")";
        break;
      case AstSelectItem::Kind::kCountDistinct:
        os << "COUNT(DISTINCT " << item.column.ToString() << ")";
        break;
      case AstSelectItem::Kind::kSum:
        os << "SUM(" << item.column.ToString() << ")";
        break;
      case AstSelectItem::Kind::kAvg:
        os << "AVG(" << item.column.ToString() << ")";
        break;
      case AstSelectItem::Kind::kColumn:
        os << item.column.ToString();
        break;
    }
  }
  os << " FROM ";
  for (size_t i = 0; i < stmt.tables.size(); ++i) {
    if (i > 0) os << ", ";
    os << stmt.tables[i].table;
    if (!stmt.tables[i].alias.empty()) os << " " << stmt.tables[i].alias;
  }
  const bool has_where = !stmt.filters.empty() || !stmt.joins.empty();
  if (has_where) os << " WHERE ";
  bool first = true;
  for (const AstJoin& join : stmt.joins) {
    if (!first) os << " AND ";
    first = false;
    os << join.left.ToString() << " = " << join.right.ToString();
  }
  for (const AstFilter& filter : stmt.filters) {
    if (!first) os << " AND ";
    first = false;
    os << filter.column.ToString() << " ";
    if (filter.op == minihouse::CompareOp::kIn) {
      os << "IN (";
      for (size_t i = 0; i < filter.operands.size(); ++i) {
        if (i > 0) os << ", ";
        os << LiteralToSql(filter.operands[i]);
      }
      os << ")";
    } else if (filter.op == minihouse::CompareOp::kBetween) {
      os << "BETWEEN " << LiteralToSql(filter.operands[0]) << " AND "
         << LiteralToSql(filter.operands[1]);
    } else {
      os << minihouse::CompareOpName(filter.op) << " "
         << LiteralToSql(filter.operands[0]);
    }
  }
  if (!stmt.group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << stmt.group_by[i].ToString();
    }
  }
  return os.str();
}

}  // namespace bytecard::sql
