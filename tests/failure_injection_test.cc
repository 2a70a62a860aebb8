// Failure injection: wrappers that error at registration or execution,
// malformed plans, and formula evaluation failures -- everything must
// surface as a clean Status, never crash or silently succeed.

#include <gtest/gtest.h>

#include "mediator/mediator.h"

namespace disco {
namespace {

using algebra::CmpOp;
using algebra::Scan;
using algebra::Select;
using algebra::Submit;

/// A wrapper that misbehaves in configurable ways.
class FaultyWrapper : public wrapper::Wrapper {
 public:
  enum class Mode {
    kBadIdl,
    kStatsError,
    kExecuteError,
    kExecuteAfterN,  ///< succeed N times, then fail
  };

  FaultyWrapper(Mode mode, int budget = 0) : mode_(mode), budget_(budget) {}

  const std::string& name() const override { return name_; }

  std::string ExportInterfaces() const override {
    if (mode_ == Mode::kBadIdl) return "interface { broken";
    return "interface T { attribute Long k;\n"
           "  cardinality extent(out long CountObject, out long TotalSize,\n"
           "                     out long ObjectSize);\n"
           "}";
  }

  Result<CollectionStats> ExportStatistics(
      const std::string&) const override {
    if (mode_ == Mode::kStatsError) {
      return Status::ExecutionError("statistics collection failed");
    }
    CollectionStats stats;
    stats.extent = ExtentStats{100, 10000, 100};
    return stats;
  }

  std::string ExportCostRules() const override { return ""; }

  optimizer::SourceCapabilities ExportCapabilities() const override {
    return optimizer::SourceCapabilities::All();
  }

  Result<sources::ExecutionResult> Execute(
      const algebra::Operator&) override {
    if (mode_ == Mode::kExecuteError ||
        (mode_ == Mode::kExecuteAfterN && ++calls_ > budget_)) {
      return Status::ExecutionError("source connection lost");
    }
    sources::ExecutionResult result;
    result.columns = {"k"};
    result.tuples = {{Value(int64_t{1})}};
    result.total_ms = 10;
    result.first_tuple_ms = 5;
    return result;
  }

 private:
  std::string name_ = "faulty";
  Mode mode_;
  int budget_;
  int calls_ = 0;
};

TEST(FailureInjectionTest, BadIdlFailsRegistration) {
  mediator::Mediator med;
  Status s = med.RegisterWrapper(
      std::make_unique<FaultyWrapper>(FaultyWrapper::Mode::kBadIdl));
  EXPECT_TRUE(s.IsParseError());
  EXPECT_FALSE(med.catalog().HasSource("faulty"));
}

TEST(FailureInjectionTest, StatisticsErrorFailsRegistration) {
  mediator::Mediator med;
  Status s = med.RegisterWrapper(
      std::make_unique<FaultyWrapper>(FaultyWrapper::Mode::kStatsError));
  EXPECT_TRUE(s.IsExecutionError());
  // A failed registration leaves no trace...
  EXPECT_FALSE(med.catalog().HasSource("faulty"));
  EXPECT_FALSE(med.catalog().HasCollection("T"));
  // ...and the name can be registered again afterwards.
  EXPECT_TRUE(med.RegisterWrapper(std::make_unique<FaultyWrapper>(
                                      FaultyWrapper::Mode::kExecuteAfterN,
                                      99))
                  .ok());
  EXPECT_TRUE(med.catalog().HasSource("faulty"));
}

TEST(CatalogRemovalTest, RemoveSourceDropsItsCollections) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource("a").ok());
  ASSERT_TRUE(catalog.RegisterSource("b").ok());
  ASSERT_TRUE(catalog
                  .RegisterCollection(
                      "a", CollectionSchema("X", {{"i", AttrType::kLong}}), {})
                  .ok());
  ASSERT_TRUE(catalog
                  .RegisterCollection(
                      "b", CollectionSchema("Y", {{"i", AttrType::kLong}}), {})
                  .ok());
  ASSERT_TRUE(catalog.RemoveSource("a").ok());
  EXPECT_FALSE(catalog.HasSource("a"));
  EXPECT_FALSE(catalog.HasCollection("X"));
  EXPECT_TRUE(catalog.HasCollection("Y"));
  EXPECT_TRUE(catalog.RemoveSource("a").IsNotFound());
}

TEST(FailureInjectionTest, ExecutionErrorSurfacesThroughQuery) {
  mediator::Mediator med;
  ASSERT_TRUE(med.RegisterWrapper(std::make_unique<FaultyWrapper>(
                                      FaultyWrapper::Mode::kExecuteError))
                  .ok());
  auto r = med.Query("SELECT k FROM T");
  ASSERT_FALSE(r.ok());
  // An exhausted submit surfaces as Unavailable, with the source name
  // prefixed via Status::WithContext.
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("source 'faulty'"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("connection lost"), std::string::npos);
}

TEST(FailureInjectionTest, MidPlanFailureAbortsExecution) {
  // The wrapper succeeds once (the first submit) then dies; the second
  // submit of a two-source-shape plan must fail the whole query (no
  // retries, no partial mode configured here).
  mediator::Mediator med;
  ASSERT_TRUE(med.RegisterWrapper(std::make_unique<FaultyWrapper>(
                                      FaultyWrapper::Mode::kExecuteAfterN, 1))
                  .ok());
  auto plan = algebra::Union(Submit("faulty", Scan("T")),
                             Submit("faulty", Scan("T")));
  auto r = med.Execute(*plan);
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();

  // Honest cost accounting under failure: the simulated clock still
  // charged the first (successful) submit. Re-run through a bare
  // executor, where elapsed_ms() stays observable after the error.
  FaultyWrapper faulty(FaultyWrapper::Mode::kExecuteAfterN, 1);
  costmodel::CalibrationParams params;
  mediator::MediatorExecutor exec({{"faulty", &faulty}}, params);
  auto r2 = exec.Execute(*plan);
  ASSERT_TRUE(r2.status().IsUnavailable()) << r2.status().ToString();
  // First submit: 10 ms source time + 50 ms round trip + shipped bytes;
  // second submit: the 50 ms round trip that discovered the failure.
  EXPECT_GE(exec.elapsed_ms(), 10 + params.ms_msg_latency * 2);
  ASSERT_EQ(exec.failed_sources().size(), 1u);
  EXPECT_EQ(exec.failed_sources()[0], "faulty");
}

TEST(FailureInjectionTest, MalformedPlansRejectedBeforeExecution) {
  mediator::Mediator med;
  ASSERT_TRUE(med.RegisterWrapper(std::make_unique<FaultyWrapper>(
                                      FaultyWrapper::Mode::kExecuteAfterN, 99))
                  .ok());
  algebra::Operator bad(algebra::OpKind::kSelect);  // no child, no pred
  EXPECT_TRUE(med.Execute(bad).status().IsInvalidArgument());
}

TEST(FailureInjectionTest, FormulaRuntimeErrorsCarryContext) {
  // A wrapper rule dividing by an exported statistic that is zero.
  costmodel::RuleRegistry registry;
  ASSERT_TRUE(costmodel::InstallGenericModel(
                  &registry, costmodel::CalibrationParams())
                  .ok());
  costlang::CompileSchema cs;
  cs.AddCollection("T", {"k"});
  auto rules = costlang::CompileRuleText(
      "scan(C) { TotalTime = 1 / C.CountObject; }", cs);
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE(registry.AddWrapperRules("src", std::move(*rules)).ok());

  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource("src").ok());
  CollectionStats empty_stats;  // CountObject == 0
  ASSERT_TRUE(catalog
                  .RegisterCollection(
                      "src", CollectionSchema("T", {{"k", AttrType::kLong}}),
                      empty_stats)
                  .ok());
  costmodel::CostEstimator est(&registry, &catalog);
  auto r = est.EstimateAt(*Scan("T"), "src");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsExecutionError());
  EXPECT_NE(r.status().message().find("division by zero"),
            std::string::npos);
}

TEST(FailureInjectionTest, SelectivityWithoutPredicateErrors) {
  costmodel::RuleRegistry registry;
  ASSERT_TRUE(costmodel::InstallGenericModel(
                  &registry, costmodel::CalibrationParams())
                  .ok());
  costlang::CompileSchema cs;
  auto rules =
      costlang::CompileRuleText("scan(C) { TotalTime = selectivity(); }", cs);
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE(registry.AddWrapperRules("src", std::move(*rules)).ok());

  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource("src").ok());
  CollectionStats stats;
  stats.extent = ExtentStats{10, 100, 10};
  ASSERT_TRUE(catalog
                  .RegisterCollection(
                      "src", CollectionSchema("T", {{"k", AttrType::kLong}}),
                      stats)
                  .ok());
  costmodel::CostEstimator est(&registry, &catalog);
  // A scan has no predicate: selectivity() must fail cleanly.
  auto r = est.EstimateAt(*Scan("T"), "src");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsExecutionError());
}

TEST(FailureInjectionTest, EmptyResultsFlowThroughEveryOperator) {
  mediator::Mediator med;
  auto src = sources::MakeRelationalSource("s");
  storage::Table* t = src->CreateTable(CollectionSchema(
      "T", {{"k", AttrType::kLong}, {"v", AttrType::kLong}}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t->Insert({Value(int64_t{i}), Value(int64_t{i})}).ok());
  }
  ASSERT_TRUE(med.RegisterWrapper(std::make_unique<wrapper::SimulatedWrapper>(
                                      std::move(src),
                                      wrapper::SimulatedWrapper::Options{}))
                  .ok());
  // Predicate matches nothing; distinct + order + project on top.
  auto r = med.Query(
      "SELECT DISTINCT v FROM T WHERE k > 1000 ORDER BY v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->tuples.empty());
}

}  // namespace
}  // namespace disco
