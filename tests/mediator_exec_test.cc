// MediatorExecutor: submit dispatch, communication accounting, subquery
// records (the history feed), and the mediator-local operators.

#include "mediator/exec.h"

#include <gtest/gtest.h>

#include "sources/data_source.h"
#include "wrapper/wrapper.h"

namespace disco {
namespace mediator {
namespace {

using algebra::CmpOp;
using algebra::Scan;
using algebra::Select;
using algebra::Submit;

class MediatorExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto src = sources::MakeRelationalSource("s1");
    storage::Table* t = src->CreateTable(CollectionSchema(
        "T", {{"k", AttrType::kLong}, {"name", AttrType::kString}}));
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(t->Insert({Value(int64_t{i}),
                             Value("n" + std::to_string(i % 10))})
                      .ok());
    }
    wrapper_ = std::make_unique<wrapper::SimulatedWrapper>(
        std::move(src), wrapper::SimulatedWrapper::Options{});

    auto src2 = sources::MakeRelationalSource("s2");
    storage::Table* u = src2->CreateTable(CollectionSchema(
        "U", {{"k2", AttrType::kLong}, {"w", AttrType::kLong}}));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(u->Insert({Value(int64_t{i}), Value(int64_t{i * i})}).ok());
    }
    wrapper2_ = std::make_unique<wrapper::SimulatedWrapper>(
        std::move(src2), wrapper::SimulatedWrapper::Options{});
  }

  MediatorExecutor MakeExecutor() {
    return MediatorExecutor(
        {{"s1", wrapper_.get()}, {"s2", wrapper2_.get()}}, params_);
  }

  costmodel::CalibrationParams params_;
  std::unique_ptr<wrapper::SimulatedWrapper> wrapper_;
  std::unique_ptr<wrapper::SimulatedWrapper> wrapper2_;
};

TEST_F(MediatorExecTest, SubmitReturnsSubanswerAndRecord) {
  MediatorExecutor exec = MakeExecutor();
  auto r = exec.Execute(*Submit("s1", Scan("T")));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 100u);
  ASSERT_EQ(r->subqueries.size(), 1u);
  const SubqueryRecord& rec = r->subqueries[0];
  EXPECT_EQ(rec.source, "s1");
  EXPECT_EQ(rec.subplan->ToString(), "scan(T)");
  EXPECT_DOUBLE_EQ(rec.measured.count_object(), 100);
  EXPECT_GT(rec.measured.total_time(), 0);
  EXPECT_GT(rec.measured.total_size(), 0);
  // Mediator time = source time + latency + bytes * per-byte.
  EXPECT_GT(r->measured_ms, rec.source_ms + params_.ms_msg_latency);
}

TEST_F(MediatorExecTest, CommunicationScalesWithBytes) {
  MediatorExecutor exec1 = MakeExecutor();
  auto all = exec1.Execute(*Submit("s1", Scan("T")));
  ASSERT_TRUE(all.ok());
  MediatorExecutor exec2 = MakeExecutor();
  auto few = exec2.Execute(*Submit(
      "s1", Select(Scan("T"), "k", CmpOp::kLe, Value(int64_t{4}))));
  ASSERT_TRUE(few.ok());
  // Shipping 100 rows costs measurably more than shipping 5.
  double comm_all = all->measured_ms - all->subqueries[0].source_ms;
  double comm_few = few->measured_ms - few->subqueries[0].source_ms;
  EXPECT_GT(comm_all, comm_few);
}

TEST_F(MediatorExecTest, ScanOutsideSubmitRejected) {
  MediatorExecutor exec = MakeExecutor();
  EXPECT_TRUE(exec.Execute(*Scan("T")).status().IsExecutionError());
}

TEST_F(MediatorExecTest, UnknownWrapperRejected) {
  MediatorExecutor exec = MakeExecutor();
  EXPECT_TRUE(
      exec.Execute(*Submit("ghost", Scan("T"))).status().IsNotFound());
}

TEST_F(MediatorExecTest, SourceNamesCaseInsensitive) {
  MediatorExecutor exec = MakeExecutor();
  EXPECT_TRUE(exec.Execute(*Submit("S1", Scan("T"))).ok());
}

TEST_F(MediatorExecTest, LocalSelectAndProject) {
  MediatorExecutor exec = MakeExecutor();
  auto plan = algebra::Project(
      Select(Submit("s1", Scan("T")), "k", CmpOp::kLt, Value(int64_t{10})),
      {"name"});
  auto r = exec.Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 10u);
  EXPECT_EQ(r->columns, (std::vector<std::string>{"name"}));
}

TEST_F(MediatorExecTest, LocalJoinAcrossSources) {
  MediatorExecutor exec = MakeExecutor();
  auto plan = algebra::Join(Submit("s1", Scan("T")),
                            Submit("s2", Scan("U")),
                            algebra::JoinPredicate{"k", "k2"});
  auto r = exec.Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // k 0..9 match k2 0..9.
  EXPECT_EQ(r->tuples.size(), 10u);
  EXPECT_EQ(r->subqueries.size(), 2u);
  EXPECT_EQ(r->columns.size(), 4u);
}

TEST_F(MediatorExecTest, LocalSortDedupAggregateUnion) {
  MediatorExecutor exec = MakeExecutor();
  auto sorted = algebra::Sort(
      algebra::Dedup(algebra::Project(Submit("s1", Scan("T")), {"name"})),
      "name", /*ascending=*/false);
  auto r = exec.Execute(*sorted);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->tuples.size(), 10u);
  EXPECT_EQ(r->tuples.front()[0], Value("n9"));
  EXPECT_EQ(r->tuples.back()[0], Value("n0"));

  MediatorExecutor exec2 = MakeExecutor();
  auto agg = algebra::Aggregate(Submit("s1", Scan("T")),
                                algebra::AggFunc::kMax, "k");
  auto ar = exec2.Execute(*agg);
  ASSERT_TRUE(ar.ok());
  EXPECT_EQ(ar->tuples[0][0], Value(int64_t{99}));

  MediatorExecutor exec3 = MakeExecutor();
  auto u = algebra::Union(
      algebra::Project(Submit("s1", Scan("T")), {"k"}),
      algebra::Project(Submit("s2", Scan("U")), {"k2"}));
  auto ur = exec3.Execute(*u);
  ASSERT_TRUE(ur.ok());
  EXPECT_EQ(ur->tuples.size(), 110u);
}

TEST_F(MediatorExecTest, UnionArityMismatchRejected) {
  MediatorExecutor exec = MakeExecutor();
  auto u = algebra::Union(Submit("s1", Scan("T")), Submit("s2", Scan("U")));
  // Both have 2 columns: fine. Mismatch via project:
  auto bad = algebra::Union(
      algebra::Project(Submit("s1", Scan("T")), {"k"}),
      Submit("s2", Scan("U")));
  EXPECT_TRUE(exec.Execute(*bad).status().IsExecutionError());
}

TEST_F(MediatorExecTest, TimeNextRecordedForMultiRowResults) {
  MediatorExecutor exec = MakeExecutor();
  auto r = exec.Execute(*Submit("s1", Scan("T")));
  ASSERT_TRUE(r.ok());
  const costmodel::CostVector& m = r->subqueries[0].measured;
  EXPECT_GT(m.time_first(), 0);
  EXPECT_GT(m.time_next(), 0);
  EXPECT_LE(m.time_first(), m.total_time());
}

}  // namespace
}  // namespace mediator
}  // namespace disco
