// Predicate semantics and vectorized evaluation.

#include <gtest/gtest.h>

#include "minihouse/predicate.h"
#include "minihouse/table.h"

namespace bytecard::minihouse {
namespace {

ColumnPredicate Pred(CompareOp op, int64_t operand, int64_t operand2 = 0) {
  ColumnPredicate pred;
  pred.column = 0;
  pred.column_name = "c";
  pred.op = op;
  pred.operand = operand;
  pred.operand2 = operand2;
  return pred;
}

TEST(PredicateTest, MatchesSemantics) {
  EXPECT_TRUE(Pred(CompareOp::kEq, 5).Matches(5));
  EXPECT_FALSE(Pred(CompareOp::kEq, 5).Matches(6));
  EXPECT_TRUE(Pred(CompareOp::kNe, 5).Matches(6));
  EXPECT_TRUE(Pred(CompareOp::kLt, 5).Matches(4));
  EXPECT_FALSE(Pred(CompareOp::kLt, 5).Matches(5));
  EXPECT_TRUE(Pred(CompareOp::kLe, 5).Matches(5));
  EXPECT_TRUE(Pred(CompareOp::kGt, 5).Matches(6));
  EXPECT_TRUE(Pred(CompareOp::kGe, 5).Matches(5));
  EXPECT_TRUE(Pred(CompareOp::kBetween, 2, 4).Matches(3));
  EXPECT_TRUE(Pred(CompareOp::kBetween, 2, 4).Matches(2));
  EXPECT_TRUE(Pred(CompareOp::kBetween, 2, 4).Matches(4));
  EXPECT_FALSE(Pred(CompareOp::kBetween, 2, 4).Matches(5));
}

TEST(PredicateTest, InList) {
  ColumnPredicate pred = Pred(CompareOp::kIn, 0);
  pred.in_list = {2, 4, 8};
  EXPECT_TRUE(pred.Matches(4));
  EXPECT_FALSE(pred.Matches(3));
}

// Every operator's block evaluation must agree with row-wise Matches().
class BlockEvalTest : public ::testing::TestWithParam<CompareOp> {};

TEST_P(BlockEvalTest, MatchesRowWise) {
  const CompareOp op = GetParam();
  ColumnPredicate pred = Pred(op, 10, 20);
  pred.in_list = {5, 10, 15};

  std::vector<int64_t> values;
  for (int64_t v = 0; v < 32; ++v) values.push_back(v);
  std::vector<uint8_t> selection(values.size(), 1);
  EvaluateOnBlock(pred, values, &selection);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(selection[i] != 0, pred.Matches(values[i]))
        << CompareOpName(op) << " value " << values[i];
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, BlockEvalTest,
                         ::testing::Values(CompareOp::kEq, CompareOp::kNe,
                                           CompareOp::kLt, CompareOp::kLe,
                                           CompareOp::kGt, CompareOp::kGe,
                                           CompareOp::kIn,
                                           CompareOp::kBetween));

TEST(BlockEvalTest, RespectsExistingSelection) {
  ColumnPredicate pred = Pred(CompareOp::kGe, 0);  // matches everything
  std::vector<int64_t> values = {1, 2, 3};
  std::vector<uint8_t> selection = {0, 1, 0};
  EvaluateOnBlock(pred, values, &selection);
  EXPECT_EQ(selection, (std::vector<uint8_t>{0, 1, 0}));
}

TEST(ConjunctionTest, EvaluateOnTable) {
  TableSchema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Table table("t", schema);
  for (int64_t i = 0; i < 100; ++i) {
    table.mutable_column(0)->AppendInt(i);
    table.mutable_column(1)->AppendInt(i % 10);
  }
  ASSERT_TRUE(table.Seal().ok());

  Conjunction conjuncts;
  conjuncts.push_back(Pred(CompareOp::kLt, 50));  // a < 50
  ColumnPredicate on_b = Pred(CompareOp::kEq, 3);  // b == 3
  on_b.column = 1;
  conjuncts.push_back(on_b);

  std::vector<uint8_t> selection;
  EvaluateConjunction(conjuncts, table, &selection);
  int64_t count = 0;
  for (uint8_t s : selection) count += s;
  EXPECT_EQ(count, 5);  // 3, 13, 23, 33, 43
}

}  // namespace
}  // namespace bytecard::minihouse
