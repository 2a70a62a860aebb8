// Parameterized property sweeps across the language stack: expression
// evaluation identities, SQL operator/type combinations, OO7 layout
// arithmetic, and Yao-formula properties.

#include <cmath>

#include <gtest/gtest.h>

#include "bench007/oo7.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "costlang/builtin_functions.h"
#include "costlang/compiler.h"
#include "costlang/vm.h"
#include "query/sql_parser.h"

namespace disco {
namespace {

/// EvalContext rejecting all node access: the swept expressions are
/// closed over constants.
class ClosedContext : public costlang::EvalContext {
 public:
  Result<double> InputVar(int, costlang::CostVarId) override {
    return Status::ExecutionError("closed");
  }
  Result<Value> InputAttrStat(int, const std::string&,
                              costlang::AttrStatId) override {
    return Status::ExecutionError("closed");
  }
  Result<double> SelfVar(costlang::CostVarId) override {
    return Status::ExecutionError("closed");
  }
  Result<Value> Binding(int) override {
    return Status::ExecutionError("closed");
  }
  Result<std::string> ImpliedAttribute() override {
    return Status::ExecutionError("closed");
  }
  Result<double> Selectivity(int, const std::optional<std::string>&,
                             const std::optional<Value>&) override {
    return Status::ExecutionError("closed");
  }
};

Result<double> EvalClosed(const std::string& expr) {
  DISCO_ASSIGN_OR_RETURN(
      costlang::CompiledRuleSet rules,
      costlang::CompileRuleText("scan(C) { TotalTime = " + expr + "; }",
                                costlang::CompileSchema()));
  ClosedContext ctx;
  return costlang::Execute(rules.rules[0].formulas[0].program, &ctx, {},
                           rules.global_values);
}

class ExprIdentitySweep : public ::testing::TestWithParam<int> {};

TEST_P(ExprIdentitySweep, RandomArithmeticMatchesNativeEvaluation) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 5);
  // Build a random arithmetic expression together with its native value.
  // Division is kept away from zero by construction.
  double value = static_cast<double>(rng.NextInt64(1, 9));
  std::string text = StringPrintf("%d", static_cast<int>(value));
  for (int step = 0; step < 12; ++step) {
    int64_t operand = rng.NextInt64(1, 9);
    switch (rng.NextUint64(4)) {
      case 0:
        value = value + static_cast<double>(operand);
        text = StringPrintf("(%s + %lld)", text.c_str(),
                            static_cast<long long>(operand));
        break;
      case 1:
        value = value - static_cast<double>(operand);
        text = StringPrintf("(%s - %lld)", text.c_str(),
                            static_cast<long long>(operand));
        break;
      case 2:
        value = value * static_cast<double>(operand);
        text = StringPrintf("(%s * %lld)", text.c_str(),
                            static_cast<long long>(operand));
        break;
      case 3:
        value = value / static_cast<double>(operand);
        text = StringPrintf("(%s / %lld)", text.c_str(),
                            static_cast<long long>(operand));
        break;
    }
  }
  Result<double> got = EvalClosed(text);
  ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
  EXPECT_NEAR(*got, value, std::abs(value) * 1e-12 + 1e-12) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprIdentitySweep, ::testing::Range(0, 16));

TEST(ExprIdentityTest, AlgebraicIdentities) {
  for (const char* identity :
       {"min(3, max(3, 3))", "exp(ln(3))", "pow(sqrt(3), 2)",
        "3 * if(gt(2, 1), 1, 99)", "abs(-3)", "clamp(3, 0, 10)",
        "floor(3.9)", "ceil(2.1)", "log2(8)"}) {
    Result<double> v = EvalClosed(identity);
    ASSERT_TRUE(v.ok()) << identity;
    EXPECT_NEAR(*v, 3.0, 1e-9) << identity;
  }
}

TEST(YaoPropertyTest, MonotoneAndBounded) {
  double prev = -1;
  for (double sel = 0; sel <= 1.0; sel += 0.05) {
    double f = costlang::YaoFraction(sel, 70000, 1000);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    EXPECT_GE(f, prev);
    prev = f;
  }
  // More objects per page saturate faster.
  EXPECT_GT(costlang::YaoFraction(0.1, 70000, 1000),
            costlang::YaoFraction(0.1, 7000, 1000));
}

struct SqlOpCase {
  const char* op;
  algebra::CmpOp expected;
};

// Prints a case as `<op> parses as <CmpOp>`, so the case's test name does
// not dump the address of `op`.
void PrintTo(const SqlOpCase& c, std::ostream* os) {
  *os << c.op << " parses as " << algebra::CmpOpToString(c.expected);
}

class SqlOperatorSweep : public ::testing::TestWithParam<SqlOpCase> {};

TEST_P(SqlOperatorSweep, AllComparisonOperatorsParse) {
  const SqlOpCase& c = GetParam();
  auto q = query::ParseSql(
      StringPrintf("SELECT a FROM T WHERE a %s 5", c.op));
  ASSERT_TRUE(q.ok()) << c.op;
  ASSERT_EQ(q->selections.size(), 1u);
  EXPECT_EQ(q->selections[0].op, c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, SqlOperatorSweep,
    ::testing::Values(SqlOpCase{"=", algebra::CmpOp::kEq},
                      SqlOpCase{"!=", algebra::CmpOp::kNe},
                      SqlOpCase{"<>", algebra::CmpOp::kNe},
                      SqlOpCase{"<", algebra::CmpOp::kLt},
                      SqlOpCase{"<=", algebra::CmpOp::kLe},
                      SqlOpCase{">", algebra::CmpOp::kGt},
                      SqlOpCase{">=", algebra::CmpOp::kGe}));

class OO7LayoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(OO7LayoutSweep, PageCountMatchesPaperArithmetic) {
  bench007::OO7Config config;
  config.num_atomic_parts = GetParam();
  config.num_composite_parts = 10;
  config.connections_per_atomic = 1;
  config.num_documents = 10;
  auto src = bench007::BuildOO7Source(config);
  ASSERT_TRUE(src.ok());
  int64_t expected_pages =
      (config.num_atomic_parts + config.atomic_parts_per_page - 1) /
      config.atomic_parts_per_page;
  EXPECT_EQ((*src)->table("AtomicPart")->heap().num_pages(),
            expected_pages);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OO7LayoutSweep,
                         ::testing::Values(70, 700, 7001, 14000));

}  // namespace
}  // namespace disco
