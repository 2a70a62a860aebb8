// Bind joins (extension, paper §7 motivation): algebra shape, cost
// rules, executor correctness, and the optimizer choosing them when a
// tiny filtered outer probes a huge indexed inner.

#include <gtest/gtest.h>

#include "algebra/plan_printer.h"
#include "mediator/mediator.h"
#include "optimizer/optimizer.h"

namespace disco {
namespace {

using algebra::BindJoin;
using algebra::CmpOp;
using algebra::JoinPredicate;
using algebra::Scan;
using algebra::Select;
using algebra::Submit;

TEST(BindJoinAlgebraTest, ShapeAndIdentity) {
  auto bj = BindJoin(Submit("s", Scan("Meta")), "img", "Image",
                     JoinPredicate{"photoId", "id"});
  EXPECT_TRUE(bj->CheckWellFormed().ok());
  EXPECT_EQ(bj->ToString(),
            "bindjoin(@img.Image, submit(@s, scan(Meta)), photoId = id)");
  EXPECT_EQ(bj->BaseCollections(),
            (std::vector<std::string>{"Meta", "Image"}));
  auto clone = bj->Clone();
  EXPECT_TRUE(bj->Equals(*clone));
  EXPECT_EQ(bj->Hash(), clone->Hash());

  algebra::Operator bad(algebra::OpKind::kBindJoin);
  bad.children.push_back(Scan("X"));
  bad.join_pred = JoinPredicate{"a", "b"};
  EXPECT_FALSE(bad.CheckWellFormed().ok());  // no source/collection
}

/// A federation with image-library shape: a huge "Image" collection at
/// one source (indexed id) and a small metadata collection at another.
class BindJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mediator::MediatorOptions options;
    options.record_history = false;
    med_ = std::make_unique<mediator::Mediator>(options);

    auto img = sources::MakeObjectDbSource("img");
    storage::Table* images = img->CreateTable(CollectionSchema(
        "Image", {{"id", AttrType::kLong}, {"feature", AttrType::kLong}}));
    for (int i = 0; i < 20000; ++i) {
      ASSERT_TRUE(images
                      ->Insert({Value(int64_t{i}),
                                Value(int64_t{(i * 31) % 1000})})
                      .ok());
    }
    ASSERT_TRUE(images->CreateIndex("id").ok());
    ASSERT_TRUE(med_->RegisterWrapper(
                        std::make_unique<wrapper::SimulatedWrapper>(
                            std::move(img),
                            wrapper::SimulatedWrapper::Options{}))
                    .ok());

    auto meta = sources::MakeRelationalSource("meta");
    storage::Table* docs = meta->CreateTable(CollectionSchema(
        "Meta", {{"photoId", AttrType::kLong}, {"year", AttrType::kLong}}));
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(docs->Insert({Value(int64_t{i * 10}),
                                Value(int64_t{1990 + i % 10})})
                      .ok());
    }
    ASSERT_TRUE(med_->RegisterWrapper(
                        std::make_unique<wrapper::SimulatedWrapper>(
                            std::move(meta),
                            wrapper::SimulatedWrapper::Options{}))
                    .ok());
  }

  std::unique_ptr<mediator::Mediator> med_;
};

TEST_F(BindJoinTest, ExecutorProducesJoinResult) {
  // Hand-built plan: probe Image per metadata row of year 1999.
  auto plan = BindJoin(
      Submit("meta", Select(Scan("Meta"), "year", CmpOp::kEq,
                            Value(int64_t{1999}))),
      "img", "Image", JoinPredicate{"photoId", "id"});
  auto r = med_->Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 200 metadata rows with year 1999, each matching exactly one image.
  EXPECT_EQ(r->tuples.size(), 200u);
  EXPECT_EQ(r->columns,
            (std::vector<std::string>{"photoId", "year", "id", "feature"}));
  for (const storage::Tuple& t : r->tuples) {
    EXPECT_EQ(t[0], t[2]);  // photoId == id
  }
}

TEST_F(BindJoinTest, ExecutorCachesDuplicateKeys) {
  // All probed keys equal: only one probe subquery should be issued.
  mediator::MediatorExecutor exec(
      {{"img", med_->wrapper("img")}, {"meta", med_->wrapper("meta")}},
      costmodel::CalibrationParams{}, &med_->catalog());
  auto everything = BindJoin(
      Submit("meta", Select(Scan("Meta"), "photoId", CmpOp::kEq,
                            Value(int64_t{500}))),
      "img", "Image", JoinPredicate{"photoId", "id"});
  auto r = exec.Execute(*everything);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // subqueries: 1 submit (outer) + 1 probe.
  EXPECT_EQ(r->subqueries.size(), 2u);
}

TEST_F(BindJoinTest, SameResultAsRegularJoin) {
  const char* sql =
      "SELECT photoId, feature FROM Meta, Image "
      "WHERE Meta.photoId = Image.id AND year = 1995";
  auto bound = med_->Analyze(sql);
  ASSERT_TRUE(bound.ok());
  costmodel::CostEstimator est(med_->registry(), &med_->catalog());
  optimizer::Optimizer opt(&est, &med_->capabilities());

  optimizer::OptimizerOptions with, without;
  with.enable_bind_join = true;
  without.enable_bind_join = false;
  auto p1 = opt.Optimize(*bound, with);
  auto p2 = opt.Optimize(*bound, without);
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  ASSERT_TRUE(p2.ok());

  auto r1 = med_->Execute(*p1->plan);
  auto r2 = med_->Execute(*p2->plan);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->tuples.size(), r2->tuples.size());
}

TEST_F(BindJoinTest, OptimizerChoosesBindJoinForTinyOuterHugeInner) {
  // 200 filtered metadata rows vs 20000 images at 9 ms each: probing
  // beats scanning/shipping the image collection.
  auto plan = med_->Plan(
      "SELECT photoId, feature FROM Meta, Image "
      "WHERE Meta.photoId = Image.id AND year = 1995");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->plan->ToString().find("bindjoin"), std::string::npos)
      << algebra::PrintPlan(*plan->plan);

  // ... and the choice is actually faster than the no-bind-join plan.
  auto bound = med_->Analyze(
      "SELECT photoId, feature FROM Meta, Image "
      "WHERE Meta.photoId = Image.id AND year = 1995");
  ASSERT_TRUE(bound.ok());
  costmodel::CostEstimator est(med_->registry(), &med_->catalog());
  optimizer::Optimizer opt(&est, &med_->capabilities());
  optimizer::OptimizerOptions without;
  without.enable_bind_join = false;
  auto fallback = opt.Optimize(*bound, without);
  ASSERT_TRUE(fallback.ok());

  auto bind_run = med_->Execute(*plan->plan);
  auto fallback_run = med_->Execute(*fallback->plan);
  ASSERT_TRUE(bind_run.ok());
  ASSERT_TRUE(fallback_run.ok());
  EXPECT_LT(bind_run->measured_ms, fallback_run->measured_ms);
}

TEST_F(BindJoinTest, GenericModelPricesUnindexedProbesAsScans) {
  costmodel::CostEstimator est(med_->registry(), &med_->catalog());
  auto outer = Submit("meta", Select(Scan("Meta"), "year", CmpOp::kEq,
                                     Value(int64_t{1999})));
  // Probing the indexed id is far cheaper than probing the unindexed
  // feature attribute (each such probe is a full scan).
  auto indexed = BindJoin(outer->Clone(), "img", "Image",
                          JoinPredicate{"photoId", "id"});
  auto unindexed = BindJoin(outer->Clone(), "img", "Image",
                            JoinPredicate{"photoId", "feature"});
  auto e1 = est.Estimate(*indexed);
  auto e2 = est.Estimate(*unindexed);
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  ASSERT_TRUE(e2.ok());
  EXPECT_LT(e1->root.total_time() * 5, e2->root.total_time());
}

}  // namespace
}  // namespace disco
