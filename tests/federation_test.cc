// Deadline-aware scatter-gather federation (docs/ROBUSTNESS.md):
// concurrent submits charged max-not-sum with byte-identical reruns,
// hedged requests against declared-equivalent
// replicas, cancellation propagation, deadline-expiry degradation, and
// the per-query retry budget shared between retries and hedges.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mediator/mediator.h"
#include "optimizer/join_enum.h"
#include "wrapper/fault_injection.h"
#include "wrapper/fault_schedule.h"

namespace disco {
namespace {

using algebra::Scan;
using algebra::Submit;
using mediator::ExecWarning;
using mediator::FederationOptions;
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

/// A four-way union over sources a..d. Source `a` is flaky (seed 18
/// fails twice and recovers on the third attempt); every source carries
/// 100 ms of injected latency so overlap matters.
std::unique_ptr<algebra::Operator> FourWayUnion() {
  return algebra::Union(
      algebra::Union(Submit("a", Scan("A")), Submit("b", Scan("B"))),
      algebra::Union(Submit("c", Scan("C")), Submit("d", Scan("D"))));
}

std::unique_ptr<Mediator> MakeFourSourceMediator(
    const FederationOptions& fed) {
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry = RetryPolicy::Standard(3);
  opts.fault_tolerance.federation = fed;
  auto medp = std::make_unique<Mediator>(opts);
  Mediator& med = *medp;
  EXPECT_TRUE(
      med.RegisterWrapper(
             MakeSource("a", "A", 10,
                        FaultProfile::Flaky(0.3, 18).WithLatency(100)))
          .ok());
  EXPECT_TRUE(med.RegisterWrapper(
                     MakeSource("b", "B", 10, FaultProfile{}.WithLatency(100)))
                  .ok());
  EXPECT_TRUE(med.RegisterWrapper(
                     MakeSource("c", "C", 10, FaultProfile{}.WithLatency(100)))
                  .ok());
  EXPECT_TRUE(med.RegisterWrapper(
                     MakeSource("d", "D", 10, FaultProfile{}.WithLatency(100)))
                  .ok());
  return medp;
}

/// Everything observable about one federation run, rendered to strings
/// so runs can be compared byte-for-byte.
struct RunSnapshot {
  bool ok = false;
  std::vector<storage::Tuple> tuples;
  std::vector<std::string> warnings;
  double measured_ms = 0;
  std::string trace_json;
};

RunSnapshot RunFourSource(const FederationOptions& fed) {
  std::unique_ptr<Mediator> med = MakeFourSourceMediator(fed);
  auto plan = FourWayUnion();
  auto r = med->Execute(*plan);
  RunSnapshot snap;
  snap.ok = r.ok();
  if (!r.ok()) return snap;
  snap.tuples = r->tuples;
  for (const ExecWarning& w : r->warnings) snap.warnings.push_back(w.ToString());
  snap.measured_ms = r->measured_ms;
  if (r->trace != nullptr) snap.trace_json = r->trace->ToChromeJson();
  return snap;
}

TEST(FederationTest, ScatterMatchesSerialTuplesAndWarnings) {
  RunSnapshot serial = RunFourSource(FederationOptions{});  // inactive
  FederationOptions fed;
  fed.scatter = true;
  RunSnapshot scatter = RunFourSource(fed);

  ASSERT_TRUE(serial.ok);
  ASSERT_TRUE(scatter.ok);
  EXPECT_EQ(scatter.tuples, serial.tuples);
  // Same degradations in the same order: `a` recovered on attempt 3.
  EXPECT_EQ(scatter.warnings, serial.warnings);
  ASSERT_EQ(scatter.warnings.size(), 1u);
  EXPECT_NE(scatter.warnings[0].find("recovered after 2 failed attempts"),
            std::string::npos)
      << scatter.warnings[0];
  // Overlap pays: four ~100ms submits charged max-not-sum.
  EXPECT_LT(scatter.measured_ms, serial.measured_ms);
}

TEST(FederationTest, ByteIdenticalAcrossPoolSizes) {
  // Scatter-path determinism: two runs of one scatter configuration on
  // fresh mediators match in results, warnings, the simulated clock,
  // and every trace byte.
  FederationOptions fed;
  fed.scatter = true;
  fed.deadline_ms = 1e9;  // never expires
  RunSnapshot base = RunFourSource(fed);
  RunSnapshot snap = RunFourSource(fed);
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(snap.ok);
  ASSERT_FALSE(base.trace_json.empty());
  EXPECT_EQ(snap.tuples, base.tuples);
  EXPECT_EQ(snap.warnings, base.warnings);
  EXPECT_EQ(snap.measured_ms, base.measured_ms);
  EXPECT_EQ(snap.trace_json, base.trace_json);
}

TEST(FederationTest, ScatterAtLeastHalvesFourSourceFanout) {
  // The ISSUE acceptance bar: >= 2x simulated-latency improvement on a
  // 4-source scatter (it is ~4x here; the flaky source's retries keep
  // it the critical path).
  RunSnapshot serial = RunFourSource(FederationOptions{});
  FederationOptions fed;
  fed.scatter = true;
  RunSnapshot scatter = RunFourSource(fed);
  ASSERT_TRUE(serial.ok);
  ASSERT_TRUE(scatter.ok);
  EXPECT_LE(scatter.measured_ms * 2, serial.measured_ms)
      << "scatter " << scatter.measured_ms << " ms vs serial "
      << serial.measured_ms << " ms";
}

TEST(FederationTest, DeadlineYieldsPartialUnionWithWarning) {
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.federation.scatter = true;
  opts.fault_tolerance.federation.deadline_ms = 1000;
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("fast", "F", 10, FaultProfile{})).ok());
  ASSERT_TRUE(med.RegisterWrapper(
                     MakeSource("slow", "S", 10, FaultProfile::Slow(5000)))
                  .ok());

  auto plan = algebra::Union(Submit("fast", Scan("F")),
                             Submit("slow", Scan("S")));
  auto r = med.Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 10u);  // the branch that beat the deadline
  ASSERT_EQ(r->warnings.size(), 1u);
  EXPECT_EQ(r->warnings[0].source, "slow");
  EXPECT_NE(r->warnings[0].message.find("query deadline (1000.0 ms) expired"),
            std::string::npos)
      << r->warnings[0].ToString();
  EXPECT_NE(r->warnings[0].message.find("union branch dropped"),
            std::string::npos)
      << r->warnings[0].ToString();
  EXPECT_EQ(med.metrics()->counter("disco.mediator.deadline.expired_submits")
                ->value(),
            1);
  EXPECT_EQ(med.metrics()->counter("disco.mediator.deadline.expired_queries")
                ->value(),
            1);
  // The abandoned submit charges exactly up to the deadline, never the
  // slow source's full latency.
  EXPECT_LT(r->measured_ms, 2000);
}

TEST(FederationTest, DeadlineAbortsJoinWithoutBlamingTheSource) {
  // Dropping a join input would change the answer, so an expired
  // deadline on one aborts the query -- but expiry is the mediator's
  // decision: the source keeps a clean breaker record and is not
  // replan-eligible.
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.federation.scatter = true;
  opts.fault_tolerance.federation.deadline_ms = 1000;
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("fast", "F", 10, FaultProfile{})).ok());
  ASSERT_TRUE(med.RegisterWrapper(
                     MakeSource("slow", "S", 10, FaultProfile::Slow(5000)))
                  .ok());

  auto plan = algebra::Join(Submit("fast", Scan("F")),
                            Submit("slow", Scan("S")),
                            algebra::JoinPredicate{"k", "k"});
  auto r = med.Execute(*plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("query deadline (1000.0 ms) expired"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(med.health()->Health("slow").total_failures, 0);
}

TEST(FederationTest, CancellationClipsSiblingsOfAFatalFailure) {
  // A dead join input is fatal; the slow sibling still in flight at
  // that moment is cancelled instead of running to completion.
  MediatorOptions opts;
  opts.fault_tolerance.retry = RetryPolicy::Standard(1);
  opts.fault_tolerance.federation.scatter = true;
  opts.fault_tolerance.federation.deadline_ms = 1e9;  // scatter on
  opts.replan_on_source_failure = false;
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("dead", "X", 10, FaultProfile::Dead()))
          .ok());
  ASSERT_TRUE(med.RegisterWrapper(
                     MakeSource("slow", "S", 10, FaultProfile::Slow(5000)))
                  .ok());

  auto plan = algebra::Join(Submit("dead", Scan("X")),
                            Submit("slow", Scan("S")),
                            algebra::JoinPredicate{"k", "k"});
  auto r = med.Execute(*plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_EQ(med.metrics()->counter("disco.mediator.cancellations")->value(),
            1);
  // The cancelled sibling's latency is not charged: the query ends when
  // the fatal failure lands, far before the slow source would answer.
  EXPECT_LT(med.sim_now_ms(), 2500) << med.sim_now_ms();
}

/// East/west replicas of the same 10 rows; east is the primary the plan
/// names, west the DeclareEquivalent hedge target.
struct HedgeRig {
  std::unique_ptr<Mediator> med;
  FaultInjectingWrapper* east = nullptr;
  std::unique_ptr<algebra::Operator> plan;
};

HedgeRig MakeHedgeRig(MediatorOptions opts) {
  HedgeRig rig;
  rig.med = std::make_unique<Mediator>(std::move(opts));
  auto east = MakeSource("east", "E", 10, FaultProfile{});
  rig.east = east.get();
  EXPECT_TRUE(rig.med->RegisterWrapper(std::move(east)).ok());
  EXPECT_TRUE(
      rig.med->RegisterWrapper(MakeSource("west", "W", 10, FaultProfile{}))
          .ok());
  EXPECT_TRUE(rig.med->DeclareEquivalent("E", "W").ok());
  rig.plan = Submit("east", Scan("E"));
  return rig;
}

TEST(FederationTest, HedgeBeatsSlowPrimary) {
  MediatorOptions opts;
  opts.fault_tolerance.federation.hedge = true;  // min_samples = 8
  HedgeRig rig = MakeHedgeRig(opts);

  // Warm the latency profile: eight healthy submits teach the mediator
  // what "normal" east latency looks like.
  for (int i = 0; i < 8; ++i) {
    auto r = rig.med->Execute(*rig.plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->warnings.empty());
  }
  EXPECT_EQ(rig.med->latency_profile()->count("east"), 8);
  EXPECT_EQ(
      rig.med->metrics()->counter("disco.mediator.hedges.launched")->value(),
      0);

  // East develops a deterministic 2-6 s tail; the next query hedges to
  // west and keeps the replica's (identical) answer.
  rig.east->SetProfile(FaultProfile::Slow(4000));
  auto r = rig.med->Execute(*rig.plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 10u);
  ASSERT_EQ(r->warnings.size(), 1u);
  EXPECT_NE(r->warnings[0].message.find("replica answered first"),
            std::string::npos)
      << r->warnings[0].ToString();
  EXPECT_EQ(
      rig.med->metrics()->counter("disco.mediator.hedges.launched")->value(),
      1);
  EXPECT_EQ(rig.med->metrics()->counter("disco.mediator.hedges.won")->value(),
            1);
  // The abandoned slow primary is cancelled, not awaited...
  EXPECT_EQ(
      rig.med->metrics()->counter("disco.mediator.hedges.cancelled")->value(),
      1);
  // ...so the hedged query costs threshold + replica latency, a small
  // fraction of the >= 2000 ms the slow primary would have charged.
  EXPECT_LT(r->measured_ms, 2000) << r->measured_ms;
}

TEST(FederationTest, HedgeSharesTheQueryRetryBudget) {
  // Budget 1: the flaky sibling's recovery retry spends it, so the slow
  // primary that *wants* to hedge is refused -- hedges draw from the
  // same per-query budget as retries (no hidden extra load).
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry = RetryPolicy::Standard(3);
  opts.fault_tolerance.retry.query_retry_budget = 1;
  opts.fault_tolerance.federation.hedge = true;
  HedgeRig rig = MakeHedgeRig(opts);
  ASSERT_TRUE(
      rig.med->RegisterWrapper(MakeSource("flaky", "G", 10,
                                          FaultProfile::Outage(1)))
          .ok());

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.med->Execute(*rig.plan).ok());
  }
  rig.east->SetProfile(FaultProfile::Slow(4000));
  auto plan = algebra::Union(Submit("east", Scan("E")),
                             Submit("flaky", Scan("G")));
  auto r = rig.med->Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 20u);  // both branches answered
  ASSERT_EQ(r->warnings.size(), 1u);
  EXPECT_EQ(r->warnings[0].source, "flaky");
  EXPECT_NE(r->warnings[0].message.find("recovered after 1 failed attempt"),
            std::string::npos)
      << r->warnings[0].ToString();
  EXPECT_EQ(
      rig.med->metrics()->counter("disco.mediator.hedges.launched")->value(),
      0);
  EXPECT_EQ(rig.med->metrics()
                ->counter("disco.mediator.retry_budget.exhausted")
                ->value(),
            1);
  // Without the hedge the slow primary is simply awaited.
  EXPECT_GT(r->measured_ms, 2000) << r->measured_ms;
}

TEST(FederationTest, RetryBudgetCapsScatterRetries) {
  // Two dead branches, per-submit budget 5, per-query budget 1: each
  // scatter group sees the budget remaining at scatter start (optimistic
  // split), so each dead source gets at most one retry instead of four.
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry = RetryPolicy::Standard(5);
  opts.fault_tolerance.retry.query_retry_budget = 1;
  opts.fault_tolerance.federation.scatter = true;
  opts.breaker.failure_threshold = 100;  // keep breakers out of this test
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("good", "G", 10, FaultProfile{})).ok());
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("bad1", "X", 10, FaultProfile::Dead()))
          .ok());
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("bad2", "Y", 10, FaultProfile::Dead()))
          .ok());

  auto plan = algebra::Union(
      algebra::Union(Submit("good", Scan("G")), Submit("bad1", Scan("X"))),
      Submit("bad2", Scan("Y")));
  auto r = med.Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 10u);
  ASSERT_EQ(r->warnings.size(), 2u);
  for (const ExecWarning& w : r->warnings) {
    EXPECT_EQ(w.attempts, 2) << w.ToString();
    EXPECT_NE(w.message.find("query retry budget exhausted"),
              std::string::npos)
        << w.ToString();
  }
  // 1 good + 2 attempts per dead branch -- not 1 + 5 + 5.
  EXPECT_EQ(med.metrics()->counter("disco.exec.submit_attempts")->value(), 5);
}

TEST(FederationTest, OpenBreakerShortCircuitsTheScatterPath) {
  // Query 1 burns three attempts against a dead source and opens its
  // breaker; query 2's scatter submit is rejected at the gate without a
  // single attempt -- no retry storm against an open breaker.
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry = RetryPolicy::Standard(3);
  opts.fault_tolerance.federation.scatter = true;
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("good", "G", 10, FaultProfile{})).ok());
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("dead", "X", 10, FaultProfile::Dead()))
          .ok());

  auto plan = algebra::Union(Submit("good", Scan("G")),
                             Submit("dead", Scan("X")));
  auto r1 = med.Execute(*plan);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(med.health()->Health("dead").state, mediator::BreakerState::kOpen);
  const int64_t attempts_after_q1 =
      med.metrics()->counter("disco.exec.submit_attempts")->value();
  EXPECT_EQ(attempts_after_q1, 4);  // 1 good + 3 dead

  auto r2 = med.Execute(*plan);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2->warnings.size(), 1u);
  EXPECT_NE(r2->warnings[0].message.find("circuit breaker open"),
            std::string::npos)
      << r2->warnings[0].ToString();
  EXPECT_EQ(med.metrics()->counter("disco.exec.submit_attempts")->value(),
            attempts_after_q1 + 1);  // only the good source ran
  EXPECT_EQ(med.metrics()->counter("disco.exec.breaker_rejections")->value(),
            1);
}

TEST(FederationTest, HalfOpenBreakerAdmitsOneProbeAcrossTheScatter) {
  // Regression: a half-open breaker used to admit *every* scatter
  // submit of the query as a probe. With single-probe admission, a
  // query carrying two submits to the half-open source sends exactly
  // one attempt -- the probe -- and rejects the other at the gate.
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry = RetryPolicy::Standard(1);  // no retries
  opts.fault_tolerance.federation.scatter = true;
  opts.breaker.cooldown_ms = 150;
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("good", "G", 10, FaultProfile{})).ok());
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("dead", "X", 10, FaultProfile::Dead()))
          .ok());

  // Three single-attempt failures open the breaker.
  auto open_plan = algebra::Union(Submit("good", Scan("G")),
                                  Submit("dead", Scan("X")));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(med.Execute(*open_plan).ok());
  }
  ASSERT_EQ(med.health()->Health("dead").state,
            mediator::BreakerState::kOpen);
  // Good-only filler queries walk the simulated clock (~100 ms each of
  // round trips) past the cooldown: the breaker turns half-open.
  auto filler = Submit("good", Scan("G"));
  while (med.health()->StateAt("dead", med.sim_now_ms()) ==
         mediator::BreakerState::kOpen) {
    ASSERT_TRUE(med.Execute(*filler).ok());
  }
  ASSERT_EQ(med.health()->StateAt("dead", med.sim_now_ms()),
            mediator::BreakerState::kHalfOpen);
  const int64_t attempts_before =
      med.metrics()->counter("disco.exec.submit_attempts")->value();

  // One query, two submits to the half-open source.
  auto probe_plan = algebra::Union(
      algebra::Union(Submit("good", Scan("G")), Submit("dead", Scan("X"))),
      Submit("dead", Scan("X")));
  auto r = med.Execute(*probe_plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 10u);  // both dead branches dropped
  EXPECT_EQ(r->warnings.size(), 2u);
  // 1 good + exactly 1 probe -- not one probe per half-open submit.
  EXPECT_EQ(med.metrics()->counter("disco.exec.submit_attempts")->value(),
            attempts_before + 2);
  EXPECT_EQ(med.health()->Health("dead").state,
            mediator::BreakerState::kOpen);
}

TEST(FederationTest, HedgeRefusesANonClosedReplica) {
  // Regression: hedging used to consult only the latency profile, so a
  // slow primary could hedge onto a replica whose breaker was open --
  // or half-open, stealing its single probe slot. Hedge candidates must
  // be closed-breaker sources.
  MediatorOptions opts;
  opts.fault_tolerance.federation.hedge = true;
  opts.breaker.cooldown_ms = 1;  // west turns half-open almost at once
  HedgeRig rig = MakeHedgeRig(opts);

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.med->Execute(*rig.plan).ok());
  }

  // West's breaker opens; by the next query it is half-open (1 ms
  // cooldown), which is still not a hedge-eligible state.
  for (int i = 0; i < 3; ++i) {
    rig.med->health()->RecordFailure("west", rig.med->sim_now_ms());
  }
  rig.east->SetProfile(FaultProfile::Slow(4000));
  auto r = rig.med->Execute(*rig.plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples.size(), 10u);
  EXPECT_EQ(
      rig.med->metrics()->counter("disco.mediator.hedges.launched")->value(),
      0);
  // No hedge fired: the slow primary was simply awaited.
  EXPECT_GT(r->measured_ms, 2000) << r->measured_ms;
}

TEST(FederationTest, SlowAndStuckStreamProfilesAreDeterministic) {
  // The seeded tail-latency generators behind the deadline and hedging
  // experiments reproduce bit-for-bit.
  auto run = [] {
    FederationOptions fed;
    fed.scatter = true;
    MediatorOptions opts;
    opts.fault_tolerance.allow_partial = true;
    opts.fault_tolerance.federation = fed;
    Mediator med(opts);
    EXPECT_TRUE(med.RegisterWrapper(
                       MakeSource("s1", "A", 10, FaultProfile::Slow(300, 0.5)))
                    .ok());
    EXPECT_TRUE(
        med.RegisterWrapper(MakeSource("s2", "B", 10,
                                       FaultProfile::StuckStream(2, 700)))
            .ok());
    auto plan = algebra::Union(Submit("s1", Scan("A")),
                               Submit("s2", Scan("B")));
    RunSnapshot snap;
    for (int i = 0; i < 3; ++i) {
      auto r = med.Execute(*plan);
      EXPECT_TRUE(r.ok());
      snap.measured_ms += r->measured_ms;
      snap.tuples = r->tuples;
    }
    return snap;
  };
  RunSnapshot one = run();
  RunSnapshot two = run();
  EXPECT_EQ(one.measured_ms, two.measured_ms);
  EXPECT_EQ(one.tuples, two.tuples);
}

// A quarantine warning names the breaker state its answer was validated
// under -- read once, after the success and before the guard verdict --
// whichever path ran the submit.
TEST(FederationTest, QuarantineWarningsReadTheBreakerWhenValidated) {
  wrapper::FaultSchedule schedule(7);
  schedule.DefineDomain("liars", {"liar"});
  wrapper::FaultWindow lies;
  lies.domain = "liars";
  lies.start_ms = 0;
  lies.end_ms = 1e12;
  lies.effect = wrapper::FaultEffect::kMalform;
  lies.malform_modes = wrapper::kMalformTypes;
  lies.malform_row_probability = 0.5;
  schedule.AddWindow(lies);
  auto make = [&](const FederationOptions& fed) {
    MediatorOptions opts;
    opts.fault_tolerance.federation = fed;
    auto med = std::make_unique<Mediator>(opts);
    auto liar = sources::MakeRelationalSource("liar");
    storage::Table* l = liar->CreateTable(CollectionSchema(
        "L", {{"k", AttrType::kLong}, {"v", AttrType::kLong}}));
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(l->Insert({Value(int64_t{i}), Value(int64_t{i * 10})}).ok());
    }
    EXPECT_TRUE(l->CreateIndex("k").ok());
    EXPECT_TRUE(med->RegisterWrapper(
                       std::make_unique<wrapper::ScheduledFaultWrapper>(
                           std::make_unique<wrapper::SimulatedWrapper>(
                               std::move(liar),
                               wrapper::SimulatedWrapper::Options{}),
                           &schedule))
                    .ok());
    EXPECT_TRUE(med->RegisterWrapper(MakeSource("outer", "O", 12,
                                                FaultProfile{}))
                    .ok());
    return med;
  };
  auto quarantines = [](const mediator::QueryResult& r) {
    std::vector<std::string> out;
    for (const ExecWarning& w : r.warnings) {
      if (w.message.find("quarantined") != std::string::npos) {
        out.push_back(w.ToString());
      }
    }
    return out;
  };

  auto scan = Submit("liar", Scan("L"));
  FederationOptions scatter;
  scatter.scatter = true;
  auto serial_r = make(FederationOptions{})->Execute(*scan);
  auto scatter_r = make(scatter)->Execute(*scan);
  ASSERT_TRUE(serial_r.ok()) << serial_r.status().ToString();
  ASSERT_TRUE(scatter_r.ok()) << scatter_r.status().ToString();
  ASSERT_EQ(quarantines(*serial_r).size(), 1u);
  ASSERT_EQ(serial_r->warnings.size(), 1u);
  std::vector<std::string> serial_warnings, scatter_warnings;
  for (const ExecWarning& w : serial_r->warnings) {
    serial_warnings.push_back(w.ToString());
  }
  for (const ExecWarning& w : scatter_r->warnings) {
    scatter_warnings.push_back(w.ToString());
  }
  EXPECT_EQ(scatter_warnings, serial_warnings);

  FederationOptions waves;
  waves.bind_batch_size = 4;
  waves.bind_parallelism = 2;
  auto join = algebra::BindJoin(Submit("outer", Scan("O")), "liar", "L",
                                algebra::JoinPredicate{"k", "k"});
  auto join_r = make(waves)->Execute(*join);
  ASSERT_TRUE(join_r.ok()) << join_r.status().ToString();
  std::vector<std::string> all = quarantines(*join_r);
  EXPECT_FALSE(all.empty());
  all.push_back(serial_warnings[0]);
  for (const std::string& w : all) {
    EXPECT_EQ(w.find("[breaker open]"), std::string::npos) << w;
  }
}

TEST(FederationTest, MonitorReportSurfacesFederationState) {
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry.query_retry_budget = 7;
  opts.fault_tolerance.federation.scatter = true;
  opts.fault_tolerance.federation.deadline_ms = 1000;
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("fast", "F", 10, FaultProfile{})).ok());
  ASSERT_TRUE(med.RegisterWrapper(
                     MakeSource("slow", "S", 10, FaultProfile::Slow(5000)))
                  .ok());
  auto plan = algebra::Union(Submit("fast", Scan("F")),
                             Submit("slow", Scan("S")));
  ASSERT_TRUE(med.Execute(*plan).ok());

  mediator::MonitorSnapshot snap = med.MonitorReport();
  EXPECT_TRUE(snap.scatter);
  EXPECT_EQ(snap.deadline_ms, 1000);
  EXPECT_FALSE(snap.hedging);
  EXPECT_EQ(snap.query_retry_budget, 7);
  EXPECT_EQ(snap.scatter_queries, 1);
  EXPECT_EQ(snap.scatter_submits, 2);
  EXPECT_EQ(snap.deadline_expired_submits, 1);
  EXPECT_EQ(snap.deadline_expired_queries, 1);
  EXPECT_NE(snap.ToText().find("federation: scatter on, deadline 1000.0 ms"),
            std::string::npos)
      << snap.ToText();
  EXPECT_NE(snap.ToJson().find("\"federation\":{\"scatter\":true"),
            std::string::npos)
      << snap.ToJson();
}

TEST(FederationTest, ResponseTimeObjectivePricesSubmitsMaxNotSum) {
  MediatorOptions opts;
  Mediator med(opts);
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("a", "A", 50, FaultProfile{})).ok());
  ASSERT_TRUE(
      med.RegisterWrapper(MakeSource("b", "B", 50, FaultProfile{})).ok());

  auto two = algebra::Union(Submit("a", Scan("A")), Submit("b", Scan("B")));
  costmodel::EstimateOptions est_opts;
  auto serial = med.estimator().Estimate(*two, est_opts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto concurrent =
      optimizer::ResponseTimeCost(*two, med.estimator(), est_opts);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  // Two concurrent submits cost max-not-sum: strictly cheaper than the
  // serial total, but never cheaper than the slowest submit alone.
  EXPECT_LT(*concurrent, serial->root.total_time());
  auto one = Submit("a", Scan("A"));
  auto single_serial = med.estimator().Estimate(*one, est_opts);
  ASSERT_TRUE(single_serial.ok());
  auto single_concurrent =
      optimizer::ResponseTimeCost(*one, med.estimator(), est_opts);
  ASSERT_TRUE(single_concurrent.ok());
  // A single submit has nothing to overlap: both objectives agree.
  EXPECT_EQ(*single_concurrent, single_serial->root.total_time());
  EXPECT_GE(*concurrent, *single_concurrent);
}

}  // namespace
}  // namespace disco
