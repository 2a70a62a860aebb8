// Critical-path analysis and what-if latency modeling
// (docs/OBSERVABILITY.md): the exact-tiling identity against the
// query's measured time, byte-identical paths across reruns, what-if
// predictions validated against actual re-runs with
// rescaled fault profiles, and the registry / MonitorReport / trace /
// query-log / metrics surfaces.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "mediator/mediator.h"
#include "wrapper/fault_injection.h"

namespace disco {
namespace {

using algebra::Scan;
using algebra::Submit;
using mediator::CriticalPath;
using mediator::CriticalSegment;
using mediator::FederationOptions;
using mediator::Mediator;
using mediator::MediatorOptions;
using mediator::RetryPolicy;
using wrapper::FaultInjectingWrapper;
using wrapper::FaultProfile;

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

/// Four-way union over sources a..d; `a` is flaky (recovers on attempt
/// 3) so retry backoff shows up on the critical lane.
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

struct PathSnapshot {
  bool ok = false;
  double measured_ms = 0;
  std::shared_ptr<const CriticalPath> path;
  std::string text;
  std::string json;
};

PathSnapshot RunFourSource(const FederationOptions& fed) {
  std::unique_ptr<Mediator> med = MakeFourSourceMediator(fed);
  auto plan = FourWayUnion();
  auto r = med->Execute(*plan);
  PathSnapshot snap;
  snap.ok = r.ok();
  if (!r.ok()) return snap;
  snap.measured_ms = r->measured_ms;
  snap.path = r->critical_path;
  if (r->critical_path != nullptr) {
    snap.text = r->critical_path->ToText();
    snap.json = r->critical_path->ToJson();
  }
  return snap;
}

/// A one-source mediator for the SQL-level surfaces.
std::unique_ptr<Mediator> MakeSimpleMediator(MediatorOptions opts = {}) {
  auto medp = std::make_unique<Mediator>(opts);
  EXPECT_TRUE(
      medp->RegisterWrapper(MakeSource("src", "T", 40, FaultProfile{})).ok());
  return medp;
}

// --- The tiling identity: the segments sum to the query's measured
// time exactly, serial and scattered alike, and the scatter-side
// segments tile exactly the max-not-sum charge. ---
TEST(CriticalPathTest, SegmentsSumToMeasured) {
  for (bool scatter : {false, true}) {
    FederationOptions fed;
    fed.scatter = scatter;
    if (scatter) fed.deadline_ms = 1e9;
    PathSnapshot snap = RunFourSource(fed);
    ASSERT_TRUE(snap.ok) << "scatter=" << scatter;
    ASSERT_NE(snap.path, nullptr) << "scatter=" << scatter;
    const CriticalPath& p = *snap.path;
    EXPECT_EQ(p.measured_ms, snap.measured_ms);
    EXPECT_NEAR(p.total_ms(), p.measured_ms, 1e-6) << "scatter=" << scatter;
    const double scatter_side = p.kind_ms("scatter-wait") +
                                p.kind_ms("hedge-wait") + p.kind_ms("stall");
    EXPECT_NEAR(scatter_side, p.scatter_ms, 1e-6) << "scatter=" << scatter;
    if (!scatter) {
      EXPECT_EQ(p.scatter_ms, 0.0);
    } else {
      // The slowest lane (a's retries) bounds the concurrent phase.
      EXPECT_GT(p.scatter_ms, 0.0);
      EXPECT_GT(p.kind_ms("scatter-wait"), 0.0);
    }
    for (const CriticalSegment& s : p.segments) {
      EXPECT_GT(s.ms, 0.0) << s.label;  // no zero-width filler
    }
  }
}

// --- The acceptance bar: same seed => byte-identical critical path
// (text and JSON renderings) across two scatter-path runs. ---
TEST(CriticalPathTest, ByteIdenticalAcrossPoolSizes) {
  FederationOptions fed;
  fed.scatter = true;
  fed.deadline_ms = 1e9;  // never expires
  PathSnapshot base = RunFourSource(fed);
  PathSnapshot snap = RunFourSource(fed);
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(snap.ok);
  ASSERT_NE(base.path, nullptr);
  ASSERT_NE(snap.path, nullptr);
  ASSERT_FALSE(base.text.empty());
  EXPECT_EQ(snap.measured_ms, base.measured_ms);
  EXPECT_EQ(snap.text, base.text);
  EXPECT_EQ(snap.json, base.json);
}

// The what-if model's identity re-solve reproduces the actual schedule:
// every ranked scenario's baseline equals the measured time.
TEST(CriticalPathTest, WhatIfBaselineReproducesMeasured) {
  FederationOptions fed;
  fed.scatter = true;
  fed.deadline_ms = 1e9;
  PathSnapshot snap = RunFourSource(fed);
  ASSERT_TRUE(snap.ok);
  ASSERT_NE(snap.path, nullptr);
  ASSERT_FALSE(snap.path->what_ifs.empty());
  for (const auto& w : snap.path->what_ifs) {
    EXPECT_NEAR(w.baseline_ms, snap.path->measured_ms, 1e-6)
        << w.scenario.ToString();
    EXPECT_LE(w.predicted_ms, w.baseline_ms + 1e-6) << w.scenario.ToString();
  }
}

/// Two-source scatter rig: `fast` answers quickly, `slow` is the
/// bottleneck with a seeded Slow(mean_ms) tail.
double RunFastSlowUnion(double slow_mean_ms,
                        std::shared_ptr<const CriticalPath>* path_out) {
  MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.federation.scatter = true;
  opts.fault_tolerance.federation.deadline_ms = 1e9;
  Mediator med(opts);
  EXPECT_TRUE(
      med.RegisterWrapper(MakeSource("fast", "F", 10, FaultProfile{})).ok());
  EXPECT_TRUE(med.RegisterWrapper(MakeSource("slow", "S", 10,
                                             FaultProfile::Slow(slow_mean_ms)))
                  .ok());
  auto plan = algebra::Union(Submit("fast", Scan("F")),
                             Submit("slow", Scan("S")));
  auto r = med.Execute(*plan);
  EXPECT_TRUE(r.ok());
  if (!r.ok()) return -1;
  if (path_out != nullptr) *path_out = r->critical_path;
  return r->measured_ms;
}

// --- The what-if acceptance bar: "source slow 2x faster" predicted
// from the 4000 ms run lands within 10% of an actual re-run whose
// injected slow profile is rescaled to 2000 ms (the seeded draw scales
// linearly with the mean, so the re-run IS the hypothetical). ---
TEST(CriticalPathTest, SourceSpeedupPredictionMatchesActualRerun) {
  std::shared_ptr<const CriticalPath> path;
  const double baseline_ms = RunFastSlowUnion(4000, &path);
  ASSERT_GT(baseline_ms, 0);
  ASSERT_NE(path, nullptr);

  const mediator::WhatIfResult* speedup = nullptr;
  for (const auto& w : path->what_ifs) {
    if (w.scenario.ToString() == "source 'slow' 2x faster") speedup = &w;
  }
  ASSERT_NE(speedup, nullptr) << path->ToText();
  EXPECT_NEAR(speedup->baseline_ms, baseline_ms, 1e-6);

  const double actual_ms = RunFastSlowUnion(2000, nullptr);
  ASSERT_GT(actual_ms, 0);
  EXPECT_LT(actual_ms, baseline_ms);
  // Within 10% of the true rescaled run (the unscaled remainder is the
  // per-message latency, a small fraction of the 4 s tail).
  EXPECT_NEAR(speedup->predicted_ms, actual_ms, 0.10 * actual_ms)
      << "predicted " << speedup->predicted_ms << " vs actual " << actual_ms;
}

/// East/west replicas; east is the primary, west the hedge target.
struct HedgeRig {
  std::unique_ptr<Mediator> med;
  FaultInjectingWrapper* east = nullptr;
  std::unique_ptr<algebra::Operator> plan;
};

HedgeRig MakeHedgeRig() {
  MediatorOptions opts;
  opts.fault_tolerance.federation.hedge = true;
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

// A hedge-won submit decomposes into hedge-wait (the threshold wait on
// the slow primary) + scatter-wait on the replica, and the ranked
// scenarios include "hedging disabled" predicting a slowdown reverted
// to the primary's full latency.
TEST(CriticalPathTest, HedgeWonPathBlamesThresholdAndReplica) {
  HedgeRig rig = MakeHedgeRig();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.med->Execute(*rig.plan).ok());
  }
  rig.east->SetProfile(FaultProfile::Slow(4000));
  auto r = rig.med->Execute(*rig.plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->critical_path, nullptr);
  const CriticalPath& p = *r->critical_path;
  EXPECT_NEAR(p.total_ms(), p.measured_ms, 1e-6) << p.ToText();
  EXPECT_GT(p.kind_ms("hedge-wait"), 0.0) << p.ToText();
  bool blames_west = false;
  for (const CriticalSegment& s : p.segments) {
    if (s.kind == "scatter-wait" && s.source == "west") blames_west = true;
  }
  EXPECT_TRUE(blames_west) << p.ToText();

  const mediator::WhatIfResult* no_hedge = nullptr;
  for (const auto& w : p.what_ifs) {
    if (w.scenario.ToString() == "hedging disabled") no_hedge = &w;
  }
  ASSERT_NE(no_hedge, nullptr) << p.ToText();
  // Without the hedge the slow primary (>= 2 s draw) is simply awaited.
  EXPECT_GT(no_hedge->predicted_ms, p.measured_ms) << p.ToText();
  EXPECT_GT(no_hedge->predicted_ms, 2000) << no_hedge->predicted_ms;
}

TEST(CriticalPathTest, SerialQueryPathIsCpuPlusWait) {
  auto med = MakeSimpleMediator();
  auto r = med->Query("SELECT k FROM T WHERE k <= 9");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->critical_path, nullptr);
  const CriticalPath& p = *r->critical_path;
  EXPECT_NEAR(p.total_ms(), p.measured_ms, 1e-6);
  EXPECT_EQ(p.scatter_ms, 0.0);
  EXPECT_EQ(p.kind_ms("scatter-wait") + p.kind_ms("hedge-wait") +
                p.kind_ms("stall"),
            0.0);
  ASSERT_NE(p.dominant(), nullptr);
  // Communication to the only source dominates a 40-row scan.
  EXPECT_EQ(p.dominant()->kind, "wait");
  EXPECT_EQ(p.dominant()->subject(), "src");
}

TEST(CriticalPathTest, AnalysisCanBeDisabled) {
  MediatorOptions opts;
  opts.critical_path_analysis = false;
  auto med = MakeSimpleMediator(opts);
  auto r = med->Query("SELECT k FROM T");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->critical_path, nullptr);
  EXPECT_EQ(med->critical_paths().total_queries(), 0);
}

TEST(CriticalPathTest, RegistryAggregatesBlameAndSuggestions) {
  auto med = MakeSimpleMediator();
  ASSERT_TRUE(med->Query("SELECT k FROM T WHERE k <= 9").ok());
  ASSERT_TRUE(med->Query("SELECT k FROM T WHERE k <= 9").ok());
  const mediator::CriticalPathRegistry& reg = med->critical_paths();
  EXPECT_EQ(reg.total_queries(), 2);
  EXPECT_EQ(reg.plan_count(), 1u);
  EXPECT_GT(reg.total_ms(), 0.0);

  auto bottlenecks = reg.TopBottlenecks(10);
  ASSERT_FALSE(bottlenecks.empty());
  double share = 0;
  for (const auto& b : bottlenecks) {
    EXPECT_GT(b.ms, 0.0);
    EXPECT_GE(b.queries, 1);
    share += b.share;
  }
  EXPECT_NEAR(share, 1.0, 1e-6);  // unclipped list covers everything
  EXPECT_EQ(bottlenecks[0].subject, "src");  // the wait dominates

  auto suggestions = reg.TopSuggestions(10);
  ASSERT_FALSE(suggestions.empty());
  EXPECT_GE(suggestions[0].predicted_delta_ms,
            suggestions.back().predicted_delta_ms);

  const std::string text = reg.ToText(5);
  EXPECT_NE(text.find("top bottlenecks"), std::string::npos) << text;
  EXPECT_NE(text.find("what-if suggestions"), std::string::npos) << text;
}

TEST(CriticalPathTest, MonitorReportShowsCritpathPanels) {
  auto med = MakeSimpleMediator();
  ASSERT_TRUE(med->Query("SELECT k FROM T WHERE k <= 9").ok());
  mediator::MonitorSnapshot snap = med->MonitorReport(5);
  EXPECT_EQ(snap.critpath_queries, 1);
  EXPECT_EQ(snap.critpath_plans, 1u);
  EXPECT_GT(snap.critpath_total_ms, 0.0);
  ASSERT_FALSE(snap.top_bottlenecks.empty());
  ASSERT_FALSE(snap.top_suggestions.empty());
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("critical paths:"), std::string::npos) << text;
  EXPECT_NE(text.find("top bottlenecks"), std::string::npos) << text;
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"critical_paths\":{\"queries\":1"), std::string::npos)
      << json;
  auto parsed = json::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(CriticalPathTest, ExplainAnalyzeAppendsCriticalPathBlock) {
  auto med = MakeSimpleMediator();
  auto report = med->ExplainAnalyze("SELECT k FROM T WHERE k <= 9");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("critical path:"), std::string::npos) << *report;
  EXPECT_NE(report->find("what-if (predicted response time):"),
            std::string::npos)
      << *report;
}

TEST(CriticalPathTest, QueryLogCarriesCritpathRollup) {
  auto med = MakeSimpleMediator();
  ASSERT_TRUE(med->Query("SELECT k FROM T WHERE k <= 9").ok());
  const std::string jsonl = med->query_log()->ToJsonl();
  EXPECT_NE(jsonl.find("\"critpath\":{\"ms\":"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"subject\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"share\":"), std::string::npos);
}

TEST(CriticalPathTest, TraceSpansGainCriticalArgs) {
  FederationOptions fed;
  fed.scatter = true;
  fed.deadline_ms = 1e9;
  auto med = MakeFourSourceMediator(fed);
  auto plan = FourWayUnion();
  auto r = med->Execute(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->trace, nullptr);
  const std::string chrome = r->trace->ToChromeJson();
  EXPECT_NE(chrome.find("\"critical\":\"scatter-wait\""), std::string::npos)
      << chrome;
  EXPECT_NE(chrome.find("\"critical_ms\":"), std::string::npos);
}

TEST(CriticalPathTest, MetricsFamilyPreRegisteredAndBumped) {
  auto med = MakeSimpleMediator();
  metrics::RegistrySnapshot before = med->metrics()->TakeSnapshot();
  ASSERT_TRUE(before.counters.count("disco.critpath.queries"));
  ASSERT_TRUE(before.histograms.count("disco.critpath.dominant_share"));
  EXPECT_EQ(before.counters["disco.critpath.queries"], 0);

  ASSERT_TRUE(med->Query("SELECT k FROM T WHERE k <= 9").ok());
  metrics::RegistrySnapshot after = med->metrics()->TakeSnapshot();
  EXPECT_EQ(after.counters["disco.critpath.queries"], 1);
  EXPECT_GT(after.counters["disco.critpath.segments"], 0);
  EXPECT_GT(after.histograms["disco.critpath.wait_ms"].count, 0);
}

TEST(CriticalPathTest, PathJsonParsesCleanly) {
  FederationOptions fed;
  fed.scatter = true;
  fed.deadline_ms = 1e9;
  PathSnapshot snap = RunFourSource(fed);
  ASSERT_TRUE(snap.ok);
  ASSERT_FALSE(snap.json.empty());
  auto parsed = json::ParseJson(snap.json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << snap.json;
  const json::JsonValue* segments = (*parsed)->Get("segments");
  ASSERT_NE(segments, nullptr);
  EXPECT_FALSE(segments->items.empty());
  const json::JsonValue* what_ifs = (*parsed)->Get("what_ifs");
  ASSERT_NE(what_ifs, nullptr);
  EXPECT_FALSE(what_ifs->items.empty());
}

}  // namespace
}  // namespace disco
