// Operator-level execution profiling (docs/OBSERVABILITY.md): per-node
// CPU/wait attribution on the simulated clock, the accounting identity
// against the query's measured time, byte-identical profiles across
// reruns, the folded-stack / waterfall / OpenMetrics
// exports, and the MonitorReport profiling panels.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "mediator/mediator.h"
#include "wrapper/fault_injection.h"

namespace disco {
namespace {

using algebra::Scan;
using algebra::Submit;
using mediator::FederationOptions;
using mediator::Mediator;
using mediator::MediatorOptions;
using mediator::PlanProfile;
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
/// 3) so retry backoff shows up as wait time.
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

struct ProfileSnapshot {
  bool ok = false;
  double measured_ms = 0;
  std::shared_ptr<const PlanProfile> profile;
  std::string folded;
  std::string waterfall;
};

ProfileSnapshot RunFourSource(const FederationOptions& fed) {
  std::unique_ptr<Mediator> med = MakeFourSourceMediator(fed);
  auto plan = FourWayUnion();
  auto r = med->Execute(*plan);
  ProfileSnapshot snap;
  snap.ok = r.ok();
  if (!r.ok()) return snap;
  snap.measured_ms = r->measured_ms;
  snap.profile = r->profile;
  if (r->profile != nullptr) {
    snap.folded = r->profile->ToFolded();
    snap.waterfall = r->profile->WaterfallText();
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

// --- The acceptance bar: same seed => byte-identical profile, folded
// dump, and waterfall across two scatter-path runs. ---
TEST(ProfilerTest, ByteIdenticalAcrossPoolSizes) {
  FederationOptions fed;
  fed.scatter = true;
  fed.deadline_ms = 1e9;  // never expires
  ProfileSnapshot base = RunFourSource(fed);
  ProfileSnapshot snap = RunFourSource(fed);
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(snap.ok);
  ASSERT_NE(base.profile, nullptr);
  ASSERT_NE(snap.profile, nullptr);
  ASSERT_FALSE(base.folded.empty());
  EXPECT_EQ(snap.measured_ms, base.measured_ms);
  EXPECT_EQ(snap.folded, base.folded);
  EXPECT_EQ(snap.waterfall, base.waterfall);
}

// Per-node CPU + wait reconstructs the query's measured time under the
// scatter max-not-sum accounting:
//   measured == scatter_charged + sum(self cpu)
//             + sum(self wait over non-concurrent nodes)
TEST(ProfilerTest, CpuPlusWaitSumsToMeasured) {
  for (bool scatter : {false, true}) {
    FederationOptions fed;
    fed.scatter = scatter;
    if (scatter) fed.deadline_ms = 1e9;
    ProfileSnapshot snap = RunFourSource(fed);
    ASSERT_TRUE(snap.ok);
    ASSERT_NE(snap.profile, nullptr);
    const PlanProfile& p = *snap.profile;
    EXPECT_EQ(p.measured_ms, snap.measured_ms);
    EXPECT_NEAR(p.measured_ms,
                p.scatter_charged_ms + p.total_cpu_ms() + p.total_wait_ms(),
                1e-6)
        << "scatter=" << scatter;
    if (!scatter) {
      EXPECT_EQ(p.scatter_charged_ms, 0.0);
    } else {
      // The scatter phase charged the concurrent lanes max-not-sum, and
      // flagged the overlapped submits.
      EXPECT_GT(p.scatter_charged_ms, 0.0);
      int concurrent = 0;
      for (const auto& n : p.nodes) concurrent += n.concurrent ? 1 : 0;
      EXPECT_EQ(concurrent, 4);
    }
  }
}

TEST(ProfilerTest, FoldedStacksHaveLeafFramesAndPositiveValues) {
  ProfileSnapshot snap = RunFourSource(FederationOptions{});
  ASSERT_TRUE(snap.ok);
  ASSERT_FALSE(snap.folded.empty());
  std::istringstream lines(snap.folded);
  std::string line;
  bool saw_wait = false;
  while (std::getline(lines, line)) {
    // "frame;frame;[cpu] 1234" -- a stack, a space, an integer value.
    const size_t space = line.find_last_of(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string stack = line.substr(0, space);
    EXPECT_GT(std::stoll(line.substr(space + 1)), 0) << line;
    const bool cpu = stack.find(";[cpu]") != std::string::npos;
    const bool wait = stack.find(";[wait]") != std::string::npos ||
                      stack.find(";[scatter-wait]") != std::string::npos;
    EXPECT_TRUE(cpu || wait) << line;
    saw_wait = saw_wait || wait;
  }
  // Four 100 ms submits: communication wait must dominate somewhere.
  EXPECT_TRUE(saw_wait);
}

TEST(ProfilerTest, WaterfallRendersDropsAndTotals) {
  auto med = MakeSimpleMediator();
  auto r = med->Query("SELECT k FROM T WHERE k <= 9");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->profile, nullptr);
  const std::string text = r->profile->WaterfallText();
  EXPECT_NE(text.find("cardinality waterfall (fingerprint"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("totals: cpu"), std::string::npos) << text;
  EXPECT_NE(text.find("= measured"), std::string::npos) << text;
}

TEST(ProfilerTest, ExplainAnalyzeAppendsWaterfall) {
  auto med = MakeSimpleMediator();
  auto report = med->ExplainAnalyze("SELECT k FROM T WHERE k <= 9");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("cardinality waterfall (fingerprint"),
            std::string::npos)
      << *report;
}

TEST(ProfilerTest, ProfilingCanBeDisabled) {
  MediatorOptions opts;
  opts.profile_execution = false;
  auto med = MakeSimpleMediator(opts);
  auto r = med->Query("SELECT k FROM T");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->profile, nullptr);
  EXPECT_EQ(med->profiles().total_queries(), 0);
}

TEST(ProfilerTest, QueryLogCarriesProfileRollup) {
  auto med = MakeSimpleMediator();
  ASSERT_TRUE(med->Query("SELECT k FROM T").ok());
  const std::string jsonl = med->query_log()->ToJsonl();
  EXPECT_NE(jsonl.find("\"profile\":{\"nodes\":"), std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"cpu_ms\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"wait_ms\":"), std::string::npos);
}

TEST(ProfilerTest, RegistryAggregatesAcrossQueries) {
  auto med = MakeSimpleMediator();
  ASSERT_TRUE(med->Query("SELECT k FROM T WHERE k <= 9").ok());
  ASSERT_TRUE(med->Query("SELECT k FROM T WHERE k <= 9").ok());
  EXPECT_EQ(med->profiles().total_queries(), 2);
  EXPECT_EQ(med->profiles().plan_count(), 1u);  // same plan shape
  auto hottest = med->profiles().HottestOperators(3);
  ASSERT_FALSE(hottest.empty());
  EXPECT_EQ(hottest[0].execs, 2);
  EXPECT_GT(hottest[0].total_ms(), 0.0);
  EXPECT_FALSE(med->profiles().ToFolded().empty());
}

TEST(ProfilerTest, MonitorReportShowsProfilingPanels) {
  auto med = MakeSimpleMediator();
  ASSERT_TRUE(med->Query("SELECT k FROM T WHERE k <= 9").ok());
  mediator::MonitorSnapshot snap = med->MonitorReport(5);
  EXPECT_EQ(snap.profiled_queries, 1);
  EXPECT_EQ(snap.profiled_plans, 1u);
  ASSERT_FALSE(snap.hottest_operators.empty());
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("hottest operators"), std::string::npos) << text;
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"profiles\":{\"queries\":1"), std::string::npos)
      << json;
  auto parsed = json::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(ProfilerTest, OperatorMetricsFamilyPreRegisteredAndBumped) {
  auto med = MakeSimpleMediator();
  // Pre-registered by the constructor: the whole family is visible at
  // value zero before any query runs.
  metrics::RegistrySnapshot before = med->metrics()->TakeSnapshot();
  ASSERT_TRUE(before.counters.count("disco.exec.operator.submit.evals"));
  ASSERT_TRUE(before.histograms.count("disco.exec.operator.submit.rows"));
  EXPECT_EQ(before.counters["disco.exec.operator.submit.evals"], 0);

  ASSERT_TRUE(med->Query("SELECT k FROM T WHERE k <= 9").ok());
  metrics::RegistrySnapshot after = med->metrics()->TakeSnapshot();
  EXPECT_GT(after.counters["disco.exec.operator.submit.evals"], 0);
  EXPECT_GT(after.histograms["disco.exec.operator.submit.rows"].count, 0);
}

TEST(ProfilerTest, TraceCarriesCounterTracksAndLaneNames) {
  auto med = MakeSimpleMediator();
  auto r = med->Query("SELECT k FROM T WHERE k <= 9");
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->trace, nullptr);
  const std::string chrome = r->trace->ToChromeJson();
  EXPECT_NE(chrome.find("\"ph\":\"M\""), std::string::npos) << chrome;
  EXPECT_NE(chrome.find("\"process_name\""), std::string::npos);
  EXPECT_NE(chrome.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(chrome.find("disco.exec.cpu_ms"), std::string::npos);
  EXPECT_NE(chrome.find("disco.exec.rows"), std::string::npos);
}

// OpenMetrics exposition round-trips histogram _sum/_count (and counter
// totals) against Registry::ToJson.
TEST(ProfilerTest, OpenMetricsRoundTripsAgainstRegistryJson) {
  auto med = MakeSimpleMediator();
  ASSERT_TRUE(med->Query("SELECT k FROM T WHERE k <= 9").ok());
  ASSERT_TRUE(med->Query("SELECT k FROM T").ok());

  auto parsed = json::ParseJson(med->metrics()->ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string om = med->metrics()->ToOpenMetrics();
  ASSERT_NE(om.find("# EOF\n"), std::string::npos);

  auto sanitize = [](const std::string& name) {
    std::string out;
    for (char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      out += ok ? c : '_';
    }
    return out;
  };
  auto om_value = [&om](const std::string& sample) {
    const std::string needle = "\n" + sample + " ";
    size_t at = om.find(needle);
    if (at == std::string::npos) {
      if (om.rfind(sample + " ", 0) == 0) {
        at = 0;
      } else {
        return std::nan("");
      }
    } else {
      at += 1;
    }
    return std::stod(om.substr(at + sample.size() + 1));
  };

  const json::JsonValue* histograms = (*parsed)->Get("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_FALSE(histograms->members.empty());
  for (const auto& [name, h] : histograms->members) {
    const std::string n = sanitize(name);
    const json::JsonValue* count = h->Get("count");
    const json::JsonValue* sum = h->Get("sum");
    ASSERT_NE(count, nullptr) << name;
    ASSERT_NE(sum, nullptr) << name;
    EXPECT_EQ(om_value(n + "_count"), count->number_value) << name;
    EXPECT_NEAR(om_value(n + "_sum"), sum->number_value, 1e-9) << name;
    // The +Inf bucket always closes the histogram at _count.
    EXPECT_NE(om.find(n + "_bucket{le=\"+Inf\"} "), std::string::npos)
        << name;
  }
  const json::JsonValue* counters = (*parsed)->Get("counters");
  ASSERT_NE(counters, nullptr);
  for (const auto& [name, c] : counters->members) {
    EXPECT_EQ(om_value(sanitize(name) + "_total"), c->number_value) << name;
  }
}

}  // namespace
}  // namespace disco
