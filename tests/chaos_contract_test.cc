// Degradation contracts end to end: a reduced chaos sweep (every
// scenario, two seeds, short query stream) must pass every contract on
// every run. The full 200-run sweep lives in bench_chaos; this test
// keeps the contracts under ctest -- and under the sanitizer jobs.

#include "chaos/chaos_harness.h"

#include <gtest/gtest.h>

namespace disco {
namespace chaos {
namespace {

ChaosOptions SmallOptions() {
  ChaosOptions options;
  options.seeds = 2;
  options.queries_per_run = 6;
  options.rows_per_source = 20;
  return options;
}

std::string Render(const ChaosRunResult& r) {
  std::string out = r.scenario + " seed " + std::to_string(r.seed);
  for (const std::string& v : r.violations) out += "\n  ! " + v;
  return out;
}

TEST(ChaosContractTest, EveryScenarioHoldsEveryContract) {
  ChaosSweepResult sweep = RunChaosSweep(SmallOptions());
  EXPECT_EQ(sweep.runs,
            static_cast<int>(AllChaosScenarios().size()) * 2);
  for (const ChaosRunResult& r : sweep.results) {
    EXPECT_TRUE(r.sound) << Render(r);
    EXPECT_TRUE(r.attributed) << Render(r);
    EXPECT_TRUE(r.breaker_ok) << Render(r);
    EXPECT_TRUE(r.no_open_calls) << Render(r);
    EXPECT_TRUE(r.replay_identical) << Render(r);
    EXPECT_GT(r.oracle_tuples, 0) << Render(r);
    EXPECT_LE(r.availability, 1.0) << Render(r);
  }
  EXPECT_TRUE(sweep.all_passed());
  EXPECT_DOUBLE_EQ(sweep.soundness, 1.0);
}

TEST(ChaosContractTest, LatencyStormsSlowButNeverLose) {
  // A pure latency storm degrades time, not answers: full availability.
  ChaosRunResult r = RunChaosScenario("latency-storm", 3, SmallOptions());
  EXPECT_TRUE(r.passed()) << Render(r);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  EXPECT_EQ(r.missing_tuples, 0);
  EXPECT_EQ(r.queries_failed, 0);
}

TEST(ChaosContractTest, MalformedResponsesAreQuarantinedAndWarned) {
  ChaosRunResult r = RunChaosScenario("malformed-types", 1, SmallOptions());
  EXPECT_TRUE(r.passed()) << Render(r);
  // The liar really lied, the guard really caught it, and the loss was
  // warned about -- otherwise this scenario tests nothing.
  EXPECT_GT(r.quarantined_rows, 0);
  EXPECT_GT(r.warning_count, 0);
  EXPECT_GT(r.missing_tuples, 0);
  EXPECT_LT(r.availability, 1.0);
}

TEST(ChaosContractTest, RunsAreDeterministicAcrossInvocations) {
  // Same (scenario, seed, options) twice: identical scores, not just
  // internally-consistent arms.
  ChaosRunResult a = RunChaosScenario("mixed", 2, SmallOptions());
  ChaosRunResult b = RunChaosScenario("mixed", 2, SmallOptions());
  EXPECT_TRUE(a.passed()) << Render(a);
  EXPECT_EQ(a.returned_tuples, b.returned_tuples);
  EXPECT_EQ(a.missing_tuples, b.missing_tuples);
  EXPECT_EQ(a.quarantined_rows, b.quarantined_rows);
  EXPECT_EQ(a.warning_count, b.warning_count);
  EXPECT_DOUBLE_EQ(a.availability, b.availability);
}

TEST(ChaosContractTest, UnknownScenarioFailsLoudly) {
  ChaosRunResult r = RunChaosScenario("does-not-exist", 1, SmallOptions());
  EXPECT_FALSE(r.passed());
  ASSERT_FALSE(r.violations.empty());
}

TEST(ChaosContractTest, SweepJsonCarriesTheGateMetrics) {
  ChaosOptions options = SmallOptions();
  options.seeds = 1;
  options.scenarios = {"outage-domain"};
  ChaosSweepResult sweep = RunChaosSweep(options);
  ASSERT_EQ(sweep.runs, 1);
  const std::string json = sweep.ToJson();
  EXPECT_NE(json.find("\"soundness\":1.0000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"availability\":"), std::string::npos);
  EXPECT_NE(json.find("\"outage-domain\""), std::string::npos);
}

}  // namespace
}  // namespace chaos
}  // namespace disco
