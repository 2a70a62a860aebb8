#include "common/value.h"

#include <gtest/gtest.h>

namespace disco {
namespace {

TEST(ValueTest, TypeTags) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{3}).is_int64());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(int64_t{3}).is_numeric());
  EXPECT_TRUE(Value(3.5).is_numeric());
  EXPECT_FALSE(Value("x").is_numeric());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(true).AsBool(), true);
  EXPECT_EQ(Value(int64_t{-9}).AsInt64(), -9);
  EXPECT_DOUBLE_EQ(Value(2.25).AsDouble(), 2.25);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  // Int64 widens through AsDouble.
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).AsDouble(), 7.0);
}

TEST(ValueTest, NumericCompareAcrossTags) {
  Value i(int64_t{3});
  Value d(3.0);
  Value bigger(3.5);
  EXPECT_EQ(*i.Compare(d), 0);
  EXPECT_LT(*i.Compare(bigger), 0);
  EXPECT_GT(*bigger.Compare(i), 0);
  EXPECT_TRUE(i == d);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(*Value("Adiba").Compare(Value("Valduriez")), 0);
  EXPECT_EQ(*Value("x").Compare(Value("x")), 0);
}

TEST(ValueTest, BoolCompare) {
  EXPECT_LT(*Value(false).Compare(Value(true)), 0);
  EXPECT_EQ(*Value(true).Compare(Value(true)), 0);
}

TEST(ValueTest, NullComparesBelowEverything) {
  EXPECT_LT(*Value().Compare(Value(int64_t{0})), 0);
  EXPECT_LT(*Value().Compare(Value("")), 0);
  EXPECT_EQ(*Value().Compare(Value()), 0);
  EXPECT_GT(*Value(int64_t{-100}).Compare(Value()), 0);
}

TEST(ValueTest, IncomparableTypesError) {
  EXPECT_FALSE(Value("x").Compare(Value(int64_t{1})).ok());
  EXPECT_FALSE(Value(true).Compare(Value("x")).ok());
  // operator== treats incomparable as unequal (not an error).
  EXPECT_FALSE(Value("x") == Value(int64_t{1}));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(false).ToString(), "false");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(3.0).ToString(), "3");  // integral doubles render compact
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{1}).Hash(), Value(1.0).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_NE(Value("abc").Hash(), Value("abd").Hash());
}

struct CompareCase {
  Value lhs;
  Value rhs;
  int expected;  // sign
};

// Prints a case as `<lhs> <op> <rhs>`, e.g. `'zz' > 'za'`, so the case's
// test name does not dump the Values' bytes (string and heap pointers).
void PrintTo(const CompareCase& c, std::ostream* os) {
  const char* op = c.expected < 0 ? " < " : c.expected == 0 ? " == " : " > ";
  *os << c.lhs.ToString() << op << c.rhs.ToString();
}

class ValueCompareTest : public ::testing::TestWithParam<CompareCase> {};

TEST_P(ValueCompareTest, TotalOrderWithinType) {
  const CompareCase& c = GetParam();
  Result<int> r = c.lhs.Compare(c.rhs);
  ASSERT_TRUE(r.ok());
  if (c.expected < 0) {
    EXPECT_LT(*r, 0);
  } else if (c.expected == 0) {
    EXPECT_EQ(*r, 0);
  } else {
    EXPECT_GT(*r, 0);
  }
  // Antisymmetry.
  Result<int> rev = c.rhs.Compare(c.lhs);
  ASSERT_TRUE(rev.ok());
  EXPECT_EQ((*r > 0) - (*r < 0), -((*rev > 0) - (*rev < 0)));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ValueCompareTest,
    ::testing::Values(
        CompareCase{Value(int64_t{1}), Value(int64_t{2}), -1},
        CompareCase{Value(int64_t{2}), Value(int64_t{2}), 0},
        CompareCase{Value(int64_t{3}), Value(int64_t{2}), 1},
        CompareCase{Value(-1.5), Value(1.5), -1},
        CompareCase{Value(int64_t{2}), Value(1.9), 1},
        CompareCase{Value(""), Value("a"), -1},
        CompareCase{Value("zz"), Value("za"), 1},
        CompareCase{Value(false), Value(true), -1},
        CompareCase{Value(), Value(int64_t{0}), -1}));

}  // namespace
}  // namespace disco
