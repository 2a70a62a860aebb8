// Batched + parallel bind-join probes: batching correctness (batched
// waves produce byte-identical results to the serial per-key loop, and
// reruns are byte-identical), typed probe-cache keying, fault semantics
// (retries, dead sources, deadline expiry mid-wave, guarded probe
// answers), and the response-time objective diverging from total-time
// in the join enumerator.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mediator/mediator.h"
#include "optimizer/optimizer.h"
#include "wrapper/fault_injection.h"

namespace disco {
namespace {

using algebra::CmpOp;
using algebra::JoinPredicate;
using algebra::Scan;
using algebra::Select;
using algebra::Submit;
using mediator::ExecWarning;
using mediator::FederationOptions;
using mediator::Mediator;
using mediator::MediatorOptions;
using mediator::RetryPolicy;
using wrapper::FaultInjectingWrapper;
using wrapper::FaultProfile;

/// img.Image(id Long indexed, feature Long) with `rows` rows, behind a
/// fault-injecting wrapper (the bind-join probe target).
std::unique_ptr<FaultInjectingWrapper> MakeImageSource(int rows,
                                                       FaultProfile profile) {
  auto src = sources::MakeObjectDbSource("img");
  storage::Table* images = src->CreateTable(CollectionSchema(
      "Image", {{"id", AttrType::kLong}, {"feature", AttrType::kLong}}));
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(images
                    ->Insert({Value(int64_t{i}),
                              Value(int64_t{(i * 31) % 1000})})
                    .ok());
  }
  EXPECT_TRUE(images->CreateIndex("id").ok());
  auto inner = std::make_unique<wrapper::SimulatedWrapper>(
      std::move(src), wrapper::SimulatedWrapper::Options{});
  return std::make_unique<FaultInjectingWrapper>(std::move(inner), profile);
}

/// meta.Meta(photoId Long, year Long): photoId = i * 10, so year
/// predicates select disjoint 10%-slices with distinct keys.
std::unique_ptr<wrapper::Wrapper> MakeMetaSource(int rows) {
  auto src = sources::MakeRelationalSource("meta");
  storage::Table* docs = src->CreateTable(CollectionSchema(
      "Meta", {{"photoId", AttrType::kLong}, {"year", AttrType::kLong}}));
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(docs->Insert({Value(int64_t{i * 10}),
                              Value(int64_t{1990 + i % 10})})
                    .ok());
  }
  return std::make_unique<wrapper::SimulatedWrapper>(
      std::move(src), wrapper::SimulatedWrapper::Options{});
}

/// The workload: 40 metadata rows of year 1999 (40 distinct keys)
/// probing the indexed Image collection.
std::unique_ptr<algebra::Operator> ProbePlan() {
  return algebra::BindJoin(
      Submit("meta", Select(Scan("Meta"), "year", CmpOp::kEq,
                            Value(int64_t{1999}))),
      "img", "Image", JoinPredicate{"photoId", "id"});
}

std::unique_ptr<Mediator> MakeMediator(const FederationOptions& fed,
                                       FaultProfile img_profile = {}) {
  MediatorOptions opts;
  opts.record_history = false;
  opts.fault_tolerance.retry = RetryPolicy::Standard(3);
  opts.fault_tolerance.federation = fed;
  auto med = std::make_unique<Mediator>(opts);
  // 100 ms per probe makes the wave overlap visible on the clock.
  EXPECT_TRUE(
      med->RegisterWrapper(MakeImageSource(400, img_profile.WithLatency(100)))
          .ok());
  EXPECT_TRUE(med->RegisterWrapper(MakeMetaSource(400)).ok());
  return med;
}

/// Everything observable about one run, rendered for byte comparison.
struct RunSnapshot {
  bool ok = false;
  std::string status;
  std::vector<storage::Tuple> tuples;
  std::vector<std::string> warnings;
  double measured_ms = 0;
  std::string trace_json;
  int64_t probes = 0, batches = 0, cache_hits = 0, waves = 0;
};

RunSnapshot RunProbes(const FederationOptions& fed,
                      FaultProfile img_profile = {}) {
  std::unique_ptr<Mediator> med = MakeMediator(fed, img_profile);
  auto plan = ProbePlan();
  auto r = med->Execute(*plan);
  RunSnapshot snap;
  snap.ok = r.ok();
  snap.probes = med->metrics()->counter("disco.exec.bindjoin.probes")->value();
  snap.batches =
      med->metrics()->counter("disco.exec.bindjoin.batches")->value();
  snap.cache_hits =
      med->metrics()->counter("disco.exec.bindjoin.cache_hits")->value();
  snap.waves = med->metrics()->counter("disco.exec.bindjoin.waves")->value();
  if (!r.ok()) {
    snap.status = r.status().ToString();
    return snap;
  }
  snap.tuples = r->tuples;
  for (const ExecWarning& w : r->warnings) {
    snap.warnings.push_back(w.ToString());
  }
  snap.measured_ms = r->measured_ms;
  if (r->trace != nullptr) snap.trace_json = r->trace->ToChromeJson();
  return snap;
}

TEST(BindJoinBatchTest, BatchedWavesMatchSerialTuplesAndBeatItsClock) {
  RunSnapshot serial = RunProbes(FederationOptions{});
  FederationOptions fed;
  fed.bind_batch_size = 8;
  fed.bind_parallelism = 4;
  RunSnapshot batched = RunProbes(fed);

  ASSERT_TRUE(serial.ok);
  ASSERT_TRUE(batched.ok);
  EXPECT_EQ(batched.tuples, serial.tuples);
  EXPECT_EQ(batched.warnings, serial.warnings);

  // 40 distinct keys: serially one probe per key; batched, 5 IN-probes
  // of 8 keys in ceil(5/4) = 2 waves.
  EXPECT_EQ(serial.probes, 40);
  EXPECT_EQ(serial.batches, 40);
  EXPECT_EQ(batched.probes, 5);
  EXPECT_EQ(batched.batches, 5);
  EXPECT_EQ(batched.waves, 2);

  // Waves charge max-not-sum: 2 waves of ~100 ms latency each against
  // 40 serial probes of ~100 ms. Integer-factor speedup.
  EXPECT_LT(batched.measured_ms * 2, serial.measured_ms);
}

TEST(BindJoinBatchTest, ByteIdenticalAcrossPoolSizes) {
  // Same bar as the scatter layer: two runs of one configuration (waves
  // plus the scatter path) on fresh mediators match in results,
  // warnings, the simulated clock, and every trace byte.
  FederationOptions fed;
  fed.scatter = true;
  fed.deadline_ms = 1e9;  // never expires
  fed.bind_batch_size = 8;
  fed.bind_parallelism = 4;
  RunSnapshot base = RunProbes(fed);
  RunSnapshot snap = RunProbes(fed);
  ASSERT_TRUE(base.ok) << base.status;
  ASSERT_TRUE(snap.ok) << snap.status;
  ASSERT_FALSE(base.trace_json.empty());
  EXPECT_EQ(snap.tuples, base.tuples);
  EXPECT_EQ(snap.warnings, base.warnings);
  EXPECT_EQ(snap.measured_ms, base.measured_ms);
  EXPECT_EQ(snap.trace_json, base.trace_json);
}

TEST(BindJoinBatchTest, PerKeyDecompositionWhenWrapperLacksInSelect) {
  // A wrapper that cannot evaluate IN-set selects still probes in
  // waves, with each batch decomposed into per-key equality selects.
  auto run = [](bool in_select) {
    MediatorOptions opts;
    opts.record_history = false;
    FederationOptions fed;
    fed.bind_batch_size = 8;
    fed.bind_parallelism = 4;
    opts.fault_tolerance.federation = fed;
    auto med = std::make_unique<Mediator>(opts);
    auto src = sources::MakeObjectDbSource("img");
    storage::Table* images = src->CreateTable(CollectionSchema(
        "Image", {{"id", AttrType::kLong}, {"feature", AttrType::kLong}}));
    for (int i = 0; i < 400; ++i) {
      EXPECT_TRUE(
          images->Insert({Value(int64_t{i}), Value(int64_t{i % 7})}).ok());
    }
    EXPECT_TRUE(images->CreateIndex("id").ok());
    wrapper::SimulatedWrapper::Options wopts;
    wopts.capabilities.in_select = in_select;
    EXPECT_TRUE(med->RegisterWrapper(
                       std::make_unique<wrapper::SimulatedWrapper>(
                           std::move(src), wopts))
                    .ok());
    EXPECT_TRUE(med->RegisterWrapper(MakeMetaSource(400)).ok());
    auto plan = ProbePlan();
    auto r = med->Execute(*plan);
    EXPECT_TRUE(r.ok());
    return std::make_pair(
        r.ok() ? r->tuples : std::vector<storage::Tuple>{},
        med->metrics()->counter("disco.exec.bindjoin.probes")->value());
  };
  auto [in_tuples, in_probes] = run(true);
  auto [eq_tuples, eq_probes] = run(false);
  EXPECT_EQ(in_tuples, eq_tuples);
  EXPECT_EQ(in_probes, 5);   // one IN-set probe per batch
  EXPECT_EQ(eq_probes, 40);  // decomposed: one equality probe per key
}

TEST(BindJoinBatchTest, TypedProbeCacheKeysAndCrossTypeKeys) {
  // The probe cache keys on typed Value equality, not a string
  // rendering: Double outer keys dedup by numeric value and match the
  // Long-typed inner index (10.0 probes id = 10).
  MediatorOptions opts;
  opts.record_history = false;
  auto med = std::make_unique<Mediator>(opts);
  EXPECT_TRUE(med->RegisterWrapper(MakeImageSource(40, FaultProfile{})).ok());
  auto src = sources::MakeRelationalSource("meta");
  storage::Table* docs = src->CreateTable(CollectionSchema(
      "Meta", {{"photoId", AttrType::kDouble}, {"year", AttrType::kLong}}));
  for (double key : {10.0, 10.0, 20.5, 20.5, 30.0}) {
    ASSERT_TRUE(docs->Insert({Value(key), Value(int64_t{1999})}).ok());
  }
  ASSERT_TRUE(med->RegisterWrapper(
                     std::make_unique<wrapper::SimulatedWrapper>(
                         std::move(src),
                         wrapper::SimulatedWrapper::Options{}))
                  .ok());

  auto plan = ProbePlan();
  auto r = med->Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 10.0 and 30.0 match Long ids 10 and 30; 20.5 matches nothing.
  EXPECT_EQ(r->tuples.size(), 3u);
  for (const storage::Tuple& t : r->tuples) {
    EXPECT_EQ(t[0], t[2]);  // photoId == id, across Double/Long tags
  }
  // 3 distinct keys among 5 outer rows: 3 probes, 2 cache hits.
  EXPECT_EQ(med->metrics()->counter("disco.exec.bindjoin.probes")->value(),
            3);
  EXPECT_EQ(
      med->metrics()->counter("disco.exec.bindjoin.cache_hits")->value(), 2);
}

TEST(BindJoinBatchTest, ProbeWavesRetryTransientFaults) {
  FederationOptions fed;
  fed.bind_batch_size = 8;
  fed.bind_parallelism = 4;
  RunSnapshot clean = RunProbes(fed);
  // Seeded flaky probe target: some probe attempts fail, retries
  // recover them, and the answer matches the clean run exactly.
  RunSnapshot flaky = RunProbes(fed, FaultProfile::Flaky(0.2, 18));
  ASSERT_TRUE(clean.ok);
  ASSERT_TRUE(flaky.ok) << flaky.status;
  EXPECT_EQ(flaky.tuples, clean.tuples);
  ASSERT_FALSE(flaky.warnings.empty());
  EXPECT_NE(flaky.warnings[0].find("recovered"), std::string::npos)
      << flaky.warnings[0];
  EXPECT_GT(flaky.measured_ms, clean.measured_ms);  // backoff was charged
}

TEST(BindJoinBatchTest, DeadProbeSourceAbortsTheJoin) {
  // A probe failure can never yield a partial join (a missing probe
  // answer would silently change the result), so the query fails even
  // in allow_partial mode.
  MediatorOptions opts;
  opts.record_history = false;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry = RetryPolicy::Standard(2);
  FederationOptions fed;
  fed.bind_batch_size = 8;
  fed.bind_parallelism = 4;
  opts.fault_tolerance.federation = fed;
  auto med = std::make_unique<Mediator>(opts);
  ASSERT_TRUE(
      med->RegisterWrapper(MakeImageSource(40, FaultProfile::Dead())).ok());
  ASSERT_TRUE(med->RegisterWrapper(MakeMetaSource(400)).ok());
  auto plan = ProbePlan();
  auto r = med->Execute(*plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
}

TEST(BindJoinBatchTest, OpenBreakerCollapsesWavesToSingleProbes) {
  // Probe waves respect the breaker's single-probe rule: while the
  // probed source's breaker is not closed, a wave narrows to one probe
  // so a half-open trial cannot be a thundering herd. Once that trial
  // succeeds and re-closes the breaker, the remaining batches run at
  // full width again.
  MediatorOptions opts;
  opts.record_history = false;
  opts.fault_tolerance.retry = RetryPolicy::Standard(3);
  opts.breaker.failure_threshold = 3;
  opts.breaker.cooldown_ms = 1.0;  // elapses within one helper query
  FederationOptions fed;
  fed.bind_batch_size = 8;    // 40 keys -> 5 batches
  fed.bind_parallelism = 5;   // all 5 in one wave when healthy
  opts.fault_tolerance.federation = fed;
  auto med = std::make_unique<Mediator>(opts);
  auto img = MakeImageSource(400, wrapper::FaultProfile::Dead());
  FaultInjectingWrapper* img_ptr = img.get();
  ASSERT_TRUE(med->RegisterWrapper(std::move(img)).ok());
  ASSERT_TRUE(med->RegisterWrapper(MakeMetaSource(400)).ok());

  // Dead probe source: the join fails and the breaker opens mid-join.
  auto plan = ProbePlan();
  ASSERT_FALSE(med->Execute(*plan).ok());
  ASSERT_EQ(med->health()->Health("img").state,
            mediator::BreakerState::kOpen);
  EXPECT_EQ(med->metrics()->counter("disco.exec.bindjoin.waves")->value(),
            1);

  // The simulated clock only moves while queries run; a meta-only query
  // lets the cooldown elapse, then the operator repairs the source.
  auto helper = Submit("meta", Scan("Meta"));
  ASSERT_TRUE(med->Execute(*helper).ok());
  img_ptr->SetProfile(wrapper::FaultProfile{});

  // Half-open: the first wave carries the single trial probe (batch 0),
  // its success re-closes the breaker, and the remaining 4 batches ride
  // one full-width wave -- 2 waves where a healthy run takes 1.
  auto r = med->Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 4u);  // photoIds 90/190/290/390 match
  EXPECT_EQ(med->health()->Health("img").state,
            mediator::BreakerState::kClosed);
  EXPECT_EQ(med->metrics()->counter("disco.exec.bindjoin.waves")->value(),
            1 + 2);
  EXPECT_EQ(med->metrics()->counter("disco.exec.bindjoin.probes")->value(),
            5);
}

TEST(BindJoinBatchTest, DeadlineExpiryMidWaveAbortsWholeJoin) {
  // Calibrate on the simulated clock: a full run with an unreachable
  // deadline tells us the total; re-running with the deadline set 50 ms
  // inside it lands the expiry inside the last ~100 ms probe wave (the
  // outer submit and the first wave fit). The wave is clipped at the
  // deadline and the whole join aborts -- never a partial join.
  FederationOptions fed;
  fed.bind_batch_size = 8;
  fed.bind_parallelism = 4;
  fed.deadline_ms = 1e9;
  RunSnapshot full = RunProbes(fed);
  ASSERT_TRUE(full.ok) << full.status;
  fed.deadline_ms = full.measured_ms - 50;
  std::unique_ptr<Mediator> med = MakeMediator(fed);
  auto plan = ProbePlan();
  auto r = med->Execute(*plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("deadline"), std::string::npos)
      << r.status().ToString();
  EXPECT_GE(med->metrics()
                ->counter("disco.exec.bindjoin.deadline_aborts")
                ->value(),
            1);
}

/// Decorator that corrupts probe answers: flips the first tuple's first
/// value to a String in every Execute() whose subplan filters (i.e. the
/// probes, not the outer scan).
class CorruptingWrapper : public wrapper::Wrapper {
 public:
  explicit CorruptingWrapper(std::unique_ptr<wrapper::Wrapper> inner)
      : inner_(std::move(inner)) {}
  const std::string& name() const override { return inner_->name(); }
  std::string ExportInterfaces() const override {
    return inner_->ExportInterfaces();
  }
  Result<CollectionStats> ExportStatistics(
      const std::string& collection) const override {
    return inner_->ExportStatistics(collection);
  }
  std::string ExportCostRules() const override {
    return inner_->ExportCostRules();
  }
  optimizer::SourceCapabilities ExportCapabilities() const override {
    return inner_->ExportCapabilities();
  }
  Result<sources::ExecutionResult> Execute(
      const algebra::Operator& subplan) override {
    Result<sources::ExecutionResult> r = inner_->Execute(subplan);
    if (r.ok() && subplan.kind == algebra::OpKind::kSelect &&
        !r->tuples.empty()) {
      r->tuples[0][0] = Value("corrupt");
    }
    return r;
  }

 private:
  std::unique_ptr<wrapper::Wrapper> inner_;
};

TEST(BindJoinBatchTest, GuardQuarantinesMalformedBatchedProbeAnswers) {
  MediatorOptions opts;
  opts.record_history = false;
  FederationOptions fed;
  fed.bind_batch_size = 8;
  fed.bind_parallelism = 4;
  opts.fault_tolerance.federation = fed;
  auto med = std::make_unique<Mediator>(opts);
  ASSERT_TRUE(med->RegisterWrapper(std::make_unique<CorruptingWrapper>(
                                       MakeImageSource(400, FaultProfile{})))
                  .ok());
  ASSERT_TRUE(med->RegisterWrapper(MakeMetaSource(400)).ok());
  auto plan = ProbePlan();
  auto r = med->Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Every probe's first row came back type-corrupted: the guard
  // quarantines those rows (they vanish from the join) and warns.
  EXPECT_GE(
      med->metrics()->counter("disco.guard.quarantined_rows")->value(), 1);
  EXPECT_LT(r->tuples.size(), 40u);
  bool guarded_warning = false;
  for (const ExecWarning& w : r->warnings) {
    if (w.ToString().find("quarantin") != std::string::npos) {
      guarded_warning = true;
    }
  }
  EXPECT_TRUE(guarded_warning);
}

TEST(BindJoinBatchTest, ResponseTimeObjectiveCanPickADifferentPlan) {
  // A three-relation chain (Tag - Meta - Image) sized so the serial
  // -total and overlapped-response objectives disagree: shipping the
  // collections and joining at the mediator pays every submit once
  // (total time: their sum; response time: roughly their max), while
  // the batched bind join into Image replaces the biggest ship with
  // probe waves that land in between the two.
  MediatorOptions opts;
  opts.record_history = false;
  FederationOptions fed;
  fed.bind_batch_size = 4;
  fed.bind_parallelism = 2;
  opts.fault_tolerance.federation = fed;
  auto med = std::make_unique<Mediator>(opts);
  ASSERT_TRUE(med->RegisterWrapper(MakeImageSource(220, FaultProfile{})).ok());
  ASSERT_TRUE(med->RegisterWrapper(MakeMetaSource(400)).ok());
  auto tag = sources::MakeRelationalSource("tag");
  storage::Table* tags = tag->CreateTable(CollectionSchema(
      "Tag", {{"photoId", AttrType::kLong}, {"label", AttrType::kLong}}));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        tags->Insert({Value(int64_t{i * 10}), Value(int64_t{i % 5})}).ok());
  }
  ASSERT_TRUE(med->RegisterWrapper(
                     std::make_unique<wrapper::SimulatedWrapper>(
                         std::move(tag),
                         wrapper::SimulatedWrapper::Options{}))
                  .ok());

  auto bound = med->Analyze(
      "SELECT label, feature FROM Tag, Meta, Image "
      "WHERE Tag.photoId = Meta.photoId AND Meta.photoId = Image.id "
      "AND year = 1999");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  costmodel::CostEstimator est(med->registry(), &med->catalog());
  optimizer::Optimizer opt(&est, &med->capabilities());

  optimizer::OptimizerOptions total, response;
  total.objective = optimizer::Objective::kTotalTime;
  response.objective = optimizer::Objective::kResponseTime;
  auto p_total = opt.Optimize(*bound, total);
  auto p_response = opt.Optimize(*bound, response);
  ASSERT_TRUE(p_total.ok()) << p_total.status().ToString();
  ASSERT_TRUE(p_response.ok()) << p_response.status().ToString();

  EXPECT_NE(p_total->plan->ToString(), p_response->plan->ToString())
      << "total    (" << p_total->estimated_ms << " ms): "
      << p_total->plan->ToString() << "\n"
      << "response (" << p_response->estimated_ms << " ms): "
      << p_response->plan->ToString();
  // The bind join survives where serial cost is what counts ...
  EXPECT_NE(p_total->plan->ToString().find("bindjoin"), std::string::npos)
      << p_total->plan->ToString();
  // ... and branch-and-bound pruning stayed active under the
  // response-time objective (3 relations: the later splits of the top
  // subset price against the incumbents of earlier ones).
  EXPECT_GT(p_response->stats.plans_pruned, 0);
}

}  // namespace
}  // namespace disco
