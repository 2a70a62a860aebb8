// End-to-end fault tolerance: partial answers under union, the
// circuit breaker + replica routing through the optimizer, replan-once
// around a source that died mid-execution, and bit-identical
// reproducibility of a flaky federation under fixed seeds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mediator/mediator.h"
#include "wrapper/fault_injection.h"

namespace disco {
namespace {

using algebra::Scan;
using algebra::Submit;
using mediator::BreakerState;
using mediator::ExecWarning;
using mediator::Mediator;
using mediator::MediatorOptions;
using mediator::RetryPolicy;
using wrapper::FaultInjectingWrapper;
using wrapper::FaultProfile;

/// Builds `source` with one single-column collection `collection`
/// holding `rows` Long tuples, behind a FaultInjectingWrapper.
std::unique_ptr<FaultInjectingWrapper> MakeSource(
    const std::string& source, const std::string& collection, int rows,
    FaultProfile profile) {
  auto src = sources::MakeRelationalSource(source);
  storage::Table* t = src->CreateTable(
      CollectionSchema(collection, {{"k", AttrType::kLong}}));
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(t->Insert({Value(int64_t{i})}).ok());
  }
  auto inner = std::make_unique<wrapper::SimulatedWrapper>(
      std::move(src), wrapper::SimulatedWrapper::Options{});
  return std::make_unique<FaultInjectingWrapper>(std::move(inner), profile);
}

TEST(FaultToleranceTest, PartialUnionDropsDeadBranchWithWarning) {
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry = RetryPolicy::Standard(2);
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("good", "G", 10, FaultProfile{})).ok());
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("bad", "B", 10, FaultProfile::Dead()))
          .ok());

  auto plan = algebra::Union(Submit("good", Scan("G")),
                             Submit("bad", Scan("B")));
  auto r = med.Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 10u);  // the surviving branch
  ASSERT_EQ(r->warnings.size(), 1u);
  EXPECT_EQ(r->warnings[0].source, "bad");
  EXPECT_EQ(r->warnings[0].attempts, 2);
  EXPECT_NE(r->warnings[0].message.find("union branch dropped"),
            std::string::npos)
      << r->warnings[0].ToString();
  // The failed attempts were not free: two round trips plus a backoff
  // are charged on top of whatever the good branch cost.
  EXPECT_GT(r->measured_ms, 2 * opts.calibration.ms_msg_latency);
}

TEST(FaultToleranceTest, PartialModeNeverDropsJoinInputs) {
  // Dropping a join input would silently change the answer, so even in
  // allow_partial mode a dead join input aborts the query.
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry = RetryPolicy::Standard(2);
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("good", "G", 10, FaultProfile{})).ok());
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("bad", "B", 10, FaultProfile::Dead()))
          .ok());

  auto plan = algebra::Join(Submit("good", Scan("G")),
                            Submit("bad", Scan("B")),
                            algebra::JoinPredicate{"k", "k"});
  auto r = med.Execute(*plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("source 'bad'"), std::string::npos);
}

/// One complete flaky-federation run, built from scratch: two sources
/// behind p=0.3 fault injectors, retries plus partial mode.
struct FederationRun {
  bool ok = false;
  size_t tuples = 0;
  double measured_ms = 0;
  int64_t injected = 0;
  std::vector<std::string> warnings;
};

FederationRun RunFlakyFederation(double p) {
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry = RetryPolicy::Standard(3);
  Mediator med(opts);
  // Seed 18's first draws are 0.026, 0.231, 0.407: at p=0.3 the left
  // submit fails twice and recovers on the third attempt. Seed 1 opens
  // with 0.596: the right submit sails through.
  auto left = MakeSource("left", "L", 10, FaultProfile::Flaky(p, 18));
  auto right = MakeSource("right", "R", 10, FaultProfile::Flaky(p, 1));
  FaultInjectingWrapper* lp = left.get();
  FaultInjectingWrapper* rp = right.get();
  EXPECT_TRUE(med.RegisterWrapper(std::move(left)).ok());
  EXPECT_TRUE(med.RegisterWrapper(std::move(right)).ok());

  auto plan = algebra::Union(Submit("left", Scan("L")),
                             Submit("right", Scan("R")));
  auto r = med.Execute(*plan);
  FederationRun out;
  out.ok = r.ok();
  if (r.ok()) {
    out.tuples = r->tuples.size();
    out.measured_ms = r->measured_ms;
    for (const ExecWarning& w : r->warnings) {
      out.warnings.push_back(w.ToString());
    }
  }
  out.injected = lp->injected_failures() + rp->injected_failures();
  return out;
}

TEST(FaultToleranceTest, FlakyFederationIsDeterministic) {
  FederationRun a = RunFlakyFederation(0.3);
  ASSERT_TRUE(a.ok);
  EXPECT_GT(a.tuples, 0u);
  // The seeds are chosen so faults actually fire; every injected fault
  // leaves a trace (a recovery or a dropped-branch warning).
  EXPECT_GT(a.injected, 0);
  EXPECT_FALSE(a.warnings.empty());
  for (const std::string& w : a.warnings) {
    EXPECT_TRUE(w.find("'left'") != std::string::npos ||
                w.find("'right'") != std::string::npos)
        << w;
  }

  // Same seeds, fresh everything: bit-identical, including the clock.
  FederationRun b = RunFlakyFederation(0.3);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.tuples, b.tuples);
  EXPECT_EQ(a.measured_ms, b.measured_ms);  // exact, not approximate
  EXPECT_EQ(a.warnings, b.warnings);
  EXPECT_EQ(a.injected, b.injected);

  // Retry latency is charged: the flaky run costs more simulated time
  // than the same federation with faults disabled.
  FederationRun clean = RunFlakyFederation(0.0);
  ASSERT_TRUE(clean.ok);
  EXPECT_EQ(clean.injected, 0);
  EXPECT_TRUE(clean.warnings.empty());
  EXPECT_GT(a.measured_ms, clean.measured_ms);
}

TEST(FaultToleranceTest, BreakerOpensAndOptimizerRoutesToReplica) {
  MediatorOptions opts;
  opts.fault_tolerance.retry = RetryPolicy::Standard(3);
  opts.breaker.failure_threshold = 3;  // one exhausted query trips it
  Mediator med(opts);
  auto dead = MakeSource("a", "RA", 10, FaultProfile::Dead());
  FaultInjectingWrapper* dead_ptr = dead.get();
  ASSERT_TRUE(med.RegisterWrapper(std::move(dead)).ok());
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("b", "RB", 10, FaultProfile{})).ok());
  ASSERT_TRUE(med.DeclareEquivalent("RA", "RB").ok());

  // First query: the plan submits to 'a', which dies mid-execution; the
  // mediator replans once around it and answers from the replica.
  auto r1 = med.Query("SELECT k FROM RA");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->tuples.size(), 10u);
  EXPECT_EQ(dead_ptr->calls(), 3);  // all three attempts burned
  ASSERT_GE(r1->warnings.size(), 2u);
  EXPECT_EQ(r1->warnings[0].source, "a");
  EXPECT_NE(r1->warnings[0].message.find("replanned around"),
            std::string::npos);
  EXPECT_NE(r1->warnings[1].message.find("rerouted 'RA' to replica 'RB'"),
            std::string::npos);

  // Three consecutive failures opened the breaker.
  EXPECT_EQ(med.health()->StateAt("a", med.sim_now_ms()),
            BreakerState::kOpen);

  // Second query: the optimizer avoids 'a' at planning time -- the dead
  // wrapper is never touched again, and no mid-flight replan is needed.
  auto r2 = med.Query("SELECT k FROM RA");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->tuples.size(), 10u);
  EXPECT_EQ(dead_ptr->calls(), 3);  // unchanged
  ASSERT_EQ(r2->warnings.size(), 1u);
  EXPECT_NE(r2->warnings[0].message.find("rerouted 'RA' to replica 'RB'"),
            std::string::npos);
  // The first query paid for the failed attempts; the second did not.
  EXPECT_GT(r1->measured_ms, r2->measured_ms);
}

TEST(FaultToleranceTest, NoReplicaMeansTheFailureSurfaces) {
  MediatorOptions opts;
  opts.fault_tolerance.retry = RetryPolicy::Standard(2);
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("a", "RA", 10, FaultProfile::Dead()))
          .ok());
  auto r = med.Query("SELECT k FROM RA");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("gave up after 2 attempts"),
            std::string::npos)
      << r.status().ToString();
}

TEST(FaultToleranceTest, HalfOpenProbeRecoversARepairedSource) {
  MediatorOptions opts;
  opts.fault_tolerance.retry = RetryPolicy::Standard(3);
  opts.breaker.failure_threshold = 3;
  opts.breaker.cooldown_ms = 1.0;  // cooldown expires within one query
  Mediator med(opts);
  auto flaky = MakeSource("a", "RA", 10, FaultProfile::Dead());
  FaultInjectingWrapper* flaky_ptr = flaky.get();
  ASSERT_TRUE(med.RegisterWrapper(std::move(flaky)).ok());
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("helper", "Other", 10, FaultProfile{}))
          .ok());

  auto r1 = med.Query("SELECT k FROM RA");
  ASSERT_FALSE(r1.ok());
  ASSERT_EQ(med.health()->Health("a").state, BreakerState::kOpen);

  // The breaker cooldown runs on the simulated clock, which only moves
  // while queries execute: a query against another source lets the
  // (tiny) cooldown elapse.
  ASSERT_TRUE(med.Query("SELECT k FROM Other").ok());
  ASSERT_GT(med.sim_now_ms(),
            med.health()->Health("a").opened_at_ms + opts.breaker.cooldown_ms);

  // The operator fixes the source; the next submit goes through as a
  // half-open probe and re-closes the breaker.
  flaky_ptr->SetProfile(FaultProfile{});
  auto r2 = med.Query("SELECT k FROM RA");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->tuples.size(), 10u);
  EXPECT_EQ(med.health()->Health("a").state, BreakerState::kClosed);
  EXPECT_EQ(med.health()->Health("a").total_successes, 1);
}

}  // namespace
}  // namespace disco
