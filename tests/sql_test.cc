// Lexer, parser, and analyzer tests for the SQL front-end.

#include <gtest/gtest.h>

#include "sql/analyzer.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "test_util.h"

namespace bytecard::sql {
namespace {

using minihouse::CompareOp;

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT a1 FROM t WHERE x <= -5 AND s = 'hi'");
  ASSERT_TRUE(tokens.ok());
  const auto& v = tokens.value();
  EXPECT_EQ(v[0].type, TokenType::kKeyword);
  EXPECT_EQ(v[0].text, "SELECT");
  EXPECT_EQ(v[1].type, TokenType::kIdentifier);
  EXPECT_EQ(v[1].text, "a1");
  // "<=" stays one token; -5 is a negative integer literal.
  bool saw_le = false;
  bool saw_neg = false;
  bool saw_str = false;
  for (const Token& t : v) {
    if (t.type == TokenType::kSymbol && t.text == "<=") saw_le = true;
    if (t.type == TokenType::kInteger && t.int_value == -5) saw_neg = true;
    if (t.type == TokenType::kString && t.text == "hi") saw_str = true;
  }
  EXPECT_TRUE(saw_le);
  EXPECT_TRUE(saw_neg);
  EXPECT_TRUE(saw_str);
  EXPECT_EQ(v.back().type, TokenType::kEnd);
}

TEST(LexerTest, CaseInsensitiveKeywords) {
  auto tokens = Tokenize("select Count from T");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].text, "SELECT");
  EXPECT_EQ(tokens.value()[1].text, "COUNT");
}

TEST(LexerTest, FloatLiterals) {
  auto tokens = Tokenize("3.25");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(tokens.value()[0].float_value, 3.25);
}

TEST(LexerTest, NotEqualsVariants) {
  auto tokens = Tokenize("a != b <> c");
  ASSERT_TRUE(tokens.ok());
  int ne = 0;
  for (const Token& t : tokens.value()) {
    if (t.type == TokenType::kSymbol && t.text == "!=") ++ne;
  }
  EXPECT_EQ(ne, 2);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("WHERE s = 'oops").ok());
}

TEST(LexerTest, StrayCharacterFails) {
  EXPECT_FALSE(Tokenize("SELECT # FROM t").ok());
}

// --- Parser ------------------------------------------------------------------

TEST(ParserTest, CountStarWithJoinsAndFilters) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM fact f, dim d "
      "WHERE f.dim_id = d.id AND f.value <= 10 AND d.category = 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& s = stmt.value();
  ASSERT_EQ(s.items.size(), 1u);
  EXPECT_EQ(s.items[0].kind, AstSelectItem::Kind::kCountStar);
  ASSERT_EQ(s.tables.size(), 2u);
  EXPECT_EQ(s.tables[0].table, "fact");
  EXPECT_EQ(s.tables[0].alias, "f");
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(s.joins[0].left.ToString(), "f.dim_id");
  ASSERT_EQ(s.filters.size(), 2u);
  EXPECT_EQ(s.filters[0].op, CompareOp::kLe);
  EXPECT_EQ(s.filters[1].op, CompareOp::kEq);
}

TEST(ParserTest, AggregatesAndGroupBy) {
  auto stmt = ParseSelect(
      "SELECT d.category, COUNT(*), SUM(f.value), AVG(f.value), "
      "COUNT(DISTINCT f.bucket) FROM fact f, dim d "
      "WHERE f.dim_id = d.id GROUP BY d.category");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& s = stmt.value();
  ASSERT_EQ(s.items.size(), 5u);
  EXPECT_EQ(s.items[0].kind, AstSelectItem::Kind::kColumn);
  EXPECT_EQ(s.items[1].kind, AstSelectItem::Kind::kCountStar);
  EXPECT_EQ(s.items[2].kind, AstSelectItem::Kind::kSum);
  EXPECT_EQ(s.items[3].kind, AstSelectItem::Kind::kAvg);
  EXPECT_EQ(s.items[4].kind, AstSelectItem::Kind::kCountDistinct);
  ASSERT_EQ(s.group_by.size(), 1u);
  EXPECT_EQ(s.group_by[0].ToString(), "d.category");
}

TEST(ParserTest, BetweenAndIn) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE a BETWEEN 3 AND 9 AND b IN (1, 2, 3)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt.value().filters.size(), 2u);
  EXPECT_EQ(stmt.value().filters[0].op, CompareOp::kBetween);
  ASSERT_EQ(stmt.value().filters[0].operands.size(), 2u);
  EXPECT_EQ(stmt.value().filters[1].op, CompareOp::kIn);
  ASSERT_EQ(stmt.value().filters[1].operands.size(), 3u);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) WHERE x = 1").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM t WHERE x <").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM t extra garbage tokens =").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT( FROM t").ok());
}

TEST(ParserTest, RoundTripThroughToSql) {
  const std::string sql =
      "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id "
      "AND f.value BETWEEN 1 AND 5";
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  auto reparsed = ParseSelect(ToSql(stmt.value()));
  ASSERT_TRUE(reparsed.ok()) << "rendered: " << ToSql(stmt.value());
  EXPECT_EQ(reparsed.value().tables.size(), 2u);
  EXPECT_EQ(reparsed.value().joins.size(), 1u);
  EXPECT_EQ(reparsed.value().filters.size(), 1u);
}

// --- Analyzer ----------------------------------------------------------------

class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = testutil::BuildToyDatabase(); }
  std::unique_ptr<minihouse::Database> db_;
};

TEST_F(AnalyzerTest, BindsJoinQuery) {
  auto query = AnalyzeSql(
      "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id "
      "AND d.category = 3",
      *db_);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const minihouse::BoundQuery& q = query.value();
  ASSERT_EQ(q.num_tables(), 2);
  ASSERT_EQ(q.joins.size(), 1u);
  EXPECT_EQ(q.joins[0].left_table, 0);
  EXPECT_EQ(q.joins[0].left_column, 0);   // fact.dim_id
  EXPECT_EQ(q.joins[0].right_column, 0);  // dim.id
  ASSERT_EQ(q.tables[1].filters.size(), 1u);
  EXPECT_EQ(q.tables[1].filters[0].column, 1);  // dim.category
  EXPECT_EQ(q.tables[1].filters[0].operand, 3);
}

TEST_F(AnalyzerTest, ResolvesUnqualifiedUniqueColumns) {
  auto query =
      AnalyzeSql("SELECT COUNT(*) FROM fact WHERE bucket = 2", *db_);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query.value().tables[0].filters[0].column, 2);
}

TEST_F(AnalyzerTest, RejectsUnknownTable) {
  EXPECT_FALSE(AnalyzeSql("SELECT COUNT(*) FROM nope", *db_).ok());
}

TEST_F(AnalyzerTest, RejectsUnknownColumn) {
  EXPECT_FALSE(
      AnalyzeSql("SELECT COUNT(*) FROM fact WHERE nope = 1", *db_).ok());
}

TEST_F(AnalyzerTest, RejectsDuplicateAlias) {
  EXPECT_FALSE(
      AnalyzeSql("SELECT COUNT(*) FROM fact f, dim f", *db_).ok());
}

TEST_F(AnalyzerTest, RejectsBareNonGroupColumn) {
  EXPECT_FALSE(AnalyzeSql("SELECT value FROM fact", *db_).ok());
  EXPECT_TRUE(
      AnalyzeSql("SELECT value FROM fact GROUP BY value", *db_).ok());
}

TEST_F(AnalyzerTest, GroupByAndAggregatesBound) {
  auto query = AnalyzeSql(
      "SELECT category, COUNT(*), SUM(value) FROM fact, dim "
      "WHERE fact.dim_id = dim.id GROUP BY category",
      *db_);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query.value().group_by.size(), 1u);
  EXPECT_EQ(query.value().group_by[0].table, 1);
  ASSERT_EQ(query.value().aggs.size(), 2u);
  EXPECT_EQ(query.value().aggs[1].func, minihouse::AggFunc::kSum);
  EXPECT_EQ(query.value().aggs[1].table, 0);
}

TEST_F(AnalyzerTest, AmbiguousColumnRejected) {
  // Both fact and a self-aliased fact define "value".
  EXPECT_FALSE(
      AnalyzeSql("SELECT COUNT(*) FROM fact a, fact b WHERE value = 1", *db_)
          .ok());
}

// Error paths carry distinguishable status codes: kNotFound for names that
// resolve against nothing, kInvalidArgument for structurally bad queries.
// Callers (and future error reporting) can branch on the code, not the text.

TEST_F(AnalyzerTest, UnknownTableIsNotFound) {
  const auto result = AnalyzeSql("SELECT COUNT(*) FROM nope", *db_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(AnalyzerTest, UnknownFilterColumnIsNotFound) {
  const auto result =
      AnalyzeSql("SELECT COUNT(*) FROM fact WHERE nope = 1", *db_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(AnalyzerTest, JoinOnMissingColumnIsNotFound) {
  const auto result = AnalyzeSql(
      "SELECT COUNT(*) FROM fact, dim WHERE fact.dim_id = dim.no_such_col",
      *db_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(AnalyzerTest, CountDistinctOnMissingColumnIsNotFound) {
  const auto result =
      AnalyzeSql("SELECT COUNT(DISTINCT ghost) FROM fact", *db_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(AnalyzerTest, AmbiguousColumnIsInvalidArgument) {
  const auto result =
      AnalyzeSql("SELECT COUNT(*) FROM fact a, fact b WHERE value = 1", *db_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- Regressions -------------------------------------------------------------

// tags(id, count, label): a keyword-named column and a string column.
std::unique_ptr<minihouse::Database> TagsDatabase() {
  using minihouse::DataType;
  auto db = std::make_unique<minihouse::Database>();
  minihouse::TableSchema schema({{"id", DataType::kInt64},
                                 {"count", DataType::kInt64},
                                 {"label", DataType::kString}});
  auto tags = std::make_unique<minihouse::Table>("tags", schema);
  for (int64_t i = 0; i < 10; ++i) {
    tags->mutable_column(0)->AppendInt(i);
    tags->mutable_column(1)->AppendInt(i - 5);
    tags->mutable_column(2)->AppendString(i % 2 == 0 ? "even" : "odd");
  }
  BC_CHECK_OK(tags->Seal());
  BC_CHECK_OK(db->AddTable(std::move(tags)));
  return db;
}

TEST(SqlRegressionTest, KeywordNamedColumnAfterDot) {
  auto stmt =
      ParseSelect("SELECT COUNT(t.count) FROM tags t WHERE t.count > 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().items[0].column.ToString(), "t.count");
  ASSERT_EQ(stmt.value().filters.size(), 1u);
  EXPECT_EQ(stmt.value().filters[0].column.column, "count");

  auto db = TagsDatabase();
  auto query = AnalyzeSql(
      "SELECT COUNT(*) FROM tags WHERE tags.count >= 2 GROUP BY tags.count",
      *db);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query.value().tables[0].filters.size(), 1u);
  EXPECT_EQ(query.value().tables[0].filters[0].column, 1);
  ASSERT_EQ(query.value().group_by.size(), 1u);
  EXPECT_EQ(query.value().group_by[0].column, 1);
}

TEST(SqlRegressionTest, IntegerInListKeepsMinusTwo) {
  auto db = TagsDatabase();
  auto query = AnalyzeSql(
      "SELECT COUNT(*) FROM tags WHERE tags.count IN (-2, 3)", *db);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query.value().tables[0].filters.size(), 1u);
  EXPECT_EQ(query.value().tables[0].filters[0].in_list,
            (std::vector<int64_t>{-2, 3}));

  // An unknown string still leaves a string column's list: it matches
  // nothing.
  auto strings = AnalyzeSql(
      "SELECT COUNT(*) FROM tags WHERE label IN ('odd', 'absent')", *db);
  ASSERT_TRUE(strings.ok()) << strings.status().ToString();
  ASSERT_EQ(strings.value().tables[0].filters.size(), 1u);
  EXPECT_EQ(strings.value().tables[0].filters[0].in_list.size(), 1u);
}

}  // namespace
}  // namespace bytecard::sql
