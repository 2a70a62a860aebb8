#include "costlang/vm.h"

#include <cmath>

#include <gtest/gtest.h>

#include "costlang/builtin_functions.h"
#include "costlang/compiler.h"

namespace disco {
namespace costlang {
namespace {

/// Canned context: one input with fixed stats, a select predicate on
/// "id" with selectivity 0.25, binding slot values supplied by tests.
class TestContext : public EvalContext {
 public:
  Result<double> InputVar(int input, CostVarId var) override {
    EXPECT_EQ(input, 0);
    switch (var) {
      case CostVarId::kCountObject: return 1000.0;
      case CostVarId::kObjectSize: return 50.0;
      case CostVarId::kTotalSize: return 50000.0;
      case CostVarId::kTimeFirst: return 10.0;
      case CostVarId::kTimeNext: return 1.0;
      case CostVarId::kTotalTime: return 500.0;
    }
    return 0.0;
  }
  Result<Value> InputAttrStat(int, const std::string& attr,
                              AttrStatId stat) override {
    last_attr = attr;
    switch (stat) {
      case AttrStatId::kIndexed: return Value(1.0);
      case AttrStatId::kClustered: return Value(0.0);
      case AttrStatId::kCountDistinct: return Value(100.0);
      case AttrStatId::kMin: return Value(int64_t{0});
      case AttrStatId::kMax: return Value(int64_t{999});
    }
    return Value();
  }
  Result<double> SelfVar(CostVarId var) override {
    if (var == CostVarId::kCountObject) return 250.0;
    return Status::ExecutionError("self var not computed");
  }
  Result<Value> Binding(int slot) override {
    if (slot < static_cast<int>(bindings.size())) return bindings[slot];
    return Status::Internal("no binding");
  }
  Result<std::string> ImpliedAttribute() override {
    return std::string("id");
  }
  Result<double> Selectivity(int, const std::optional<std::string>& attr,
                             const std::optional<Value>&) override {
    last_selectivity_attr = attr;
    return 0.25;
  }

  std::vector<Value> bindings;
  std::string last_attr;
  std::optional<std::string> last_selectivity_attr;
};

/// Compiles a one-formula scan rule `scan(C) { TotalTime = <expr>; }`
/// and evaluates it against TestContext.
Result<double> EvalScanExpr(const std::string& expr, TestContext* ctx) {
  DISCO_ASSIGN_OR_RETURN(
      CompiledRuleSet rules,
      CompileRuleText("scan(C) { TotalTime = " + expr + "; }",
                      CompileSchema()));
  return Execute(rules.rules[0].formulas[0].program, ctx, {},
                 rules.global_values);
}

struct ExprCase {
  const char* expr;
  double expected;
};

// Prints a case as `<expr> = <expected>`. gtest and ctest name each case
// by its printed parameter; the default byte dump would embed the address
// of `expr`, which changes from build to build.
void PrintTo(const ExprCase& c, std::ostream* os) {
  *os << c.expr << " = " << c.expected;
}

class VmExprTest : public ::testing::TestWithParam<ExprCase> {};

TEST_P(VmExprTest, Evaluates) {
  TestContext ctx;
  Result<double> r = EvalScanExpr(GetParam().expr, &ctx);
  ASSERT_TRUE(r.ok()) << GetParam().expr << ": " << r.status().ToString();
  EXPECT_NEAR(*r, GetParam().expected, 1e-9) << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, VmExprTest,
    ::testing::Values(
        ExprCase{"1 + 2 * 3", 7}, ExprCase{"(1 + 2) * 3", 9},
        ExprCase{"10 / 4", 2.5}, ExprCase{"-3 + 5", 2},
        ExprCase{"2 - -2", 4}, ExprCase{"1e3 / 10", 100}));

INSTANTIATE_TEST_SUITE_P(
    Builtins, VmExprTest,
    ::testing::Values(
        ExprCase{"exp(0)", 1}, ExprCase{"ln(exp(2))", 2},
        ExprCase{"log(exp(3))", 3},  // alias
        ExprCase{"log2(8)", 3}, ExprCase{"log10(1000)", 3},
        ExprCase{"sqrt(49)", 7}, ExprCase{"pow(2, 10)", 1024},
        ExprCase{"ceil(1.2)", 2}, ExprCase{"floor(1.8)", 1},
        ExprCase{"abs(-4)", 4}, ExprCase{"min(3, 1, 2)", 1},
        ExprCase{"max(3, 1, 2)", 3}, ExprCase{"if(1, 10, 20)", 10},
        ExprCase{"if(0, 10, 20)", 20}, ExprCase{"lt(1, 2)", 1},
        ExprCase{"ge(2, 2)", 1}, ExprCase{"eq(1, 2)", 0},
        ExprCase{"ne(1, 2)", 1}, ExprCase{"and(1, 1, 0)", 0},
        ExprCase{"or(0, 0, 1)", 1}, ExprCase{"not(0)", 1},
        ExprCase{"clamp(5, 0, 3)", 3}));

INSTANTIATE_TEST_SUITE_P(
    ContextAccess, VmExprTest,
    ::testing::Values(
        ExprCase{"C.CountObject", 1000},
        ExprCase{"C.TotalTime + C.TimeFirst", 510},
        ExprCase{"C.id.CountDistinct", 100},
        ExprCase{"C.id.Max - C.id.Min", 999},
        ExprCase{"selectivity()", 0.25},
        ExprCase{"CountObject", 250}));  // self variable

TEST(VmTest, YaoBuiltinMatchesFormula) {
  TestContext ctx;
  Result<double> r = EvalScanExpr("yao(0.1, 70000, 1000)", &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 1 - std::exp(-0.1 * 70), 1e-12);
  EXPECT_DOUBLE_EQ(YaoFraction(0, 70000, 1000), 0.0);
  EXPECT_NEAR(YaoFraction(1.0, 70000, 1000), 1.0, 1e-9);
  // Degenerate page count saturates.
  EXPECT_DOUBLE_EQ(YaoFraction(0.5, 100, 0), 1.0);
}

TEST(VmTest, DivisionByZeroIsExecutionError) {
  TestContext ctx;
  Result<double> r = EvalScanExpr("1 / 0", &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsExecutionError());
}

TEST(VmTest, DomainErrorsSurface) {
  TestContext ctx;
  EXPECT_FALSE(EvalScanExpr("ln(0)", &ctx).ok());
  EXPECT_FALSE(EvalScanExpr("sqrt(-1)", &ctx).ok());
  EXPECT_FALSE(EvalScanExpr("clamp(1, 5, 0)", &ctx).ok());
}

TEST(VmTest, StringArithmeticIsExecutionError) {
  TestContext ctx;
  Result<double> r = EvalScanExpr("C.id.Min + 'abc'", &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsExecutionError());
}

TEST(VmTest, SelectivityWithExplicitAttr) {
  CompileSchema schema;
  schema.AddCollection("T", {"id"});
  auto rules = CompileRuleText(
      "select(C, id = V) { TotalTime = selectivity(id, V); }", schema);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  TestContext ctx;
  ctx.bindings = {Value("T"), Value(int64_t{7})};  // C, V
  Result<double> r = Execute(rules->rules[0].formulas[0].program, &ctx, {},
                             rules->global_values);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(*r, 0.25);
  ASSERT_TRUE(ctx.last_selectivity_attr.has_value());
  EXPECT_EQ(*ctx.last_selectivity_attr, "id");
}

TEST(VmTest, BindingValueFlowsIntoArithmetic) {
  CompileSchema schema;
  schema.AddCollection("T", {"id"});
  auto rules = CompileRuleText(
      "select(C, id <= V) { TotalTime = V * 2; }", schema);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  TestContext ctx;
  ctx.bindings = {Value("T"), Value(int64_t{21})};
  Result<double> r = Execute(rules->rules[0].formulas[0].program, &ctx, {},
                             rules->global_values);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 42);
}

TEST(VmTest, LocalsAndGlobalsResolve) {
  auto rules = CompileRuleText(
      "define G = 100;\n"
      "scan(C) {\n"
      "  L = G + 5;\n"
      "  TotalTime = L * 2;\n"
      "}",
      CompileSchema());
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  TestContext ctx;
  const CompiledRule& rule = rules->rules[0];
  std::vector<Value> locals;
  Result<double> lv = Execute(rule.locals[0].program, &ctx, locals,
                              rules->global_values);
  ASSERT_TRUE(lv.ok());
  EXPECT_DOUBLE_EQ(*lv, 105);
  locals.push_back(Value(*lv));
  Result<double> r = Execute(rule.formulas[0].program, &ctx, locals,
                             rules->global_values);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 210);
}

TEST(VmTest, DisassembleProducesOneLinePerInstr) {
  auto rules = CompileRuleText("scan(C) { TotalTime = 1 + C.CountObject; }",
                               CompileSchema());
  ASSERT_TRUE(rules.ok());
  std::string dis = rules->rules[0].formulas[0].program.Disassemble();
  // push, load, add, ret -> 4 lines.
  EXPECT_EQ(std::count(dis.begin(), dis.end(), '\n'), 4);
}

}  // namespace
}  // namespace costlang
}  // namespace disco
