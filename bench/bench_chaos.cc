// Chaos sweep under degradation contracts (docs/ROBUSTNESS.md): every
// fault scenario x 25 seeds, each run racing a fault-free oracle over
// three arms (faults on, a byte-identity replay, and the oracle).
// The contracts are hard assertions here -- a run that returns a tuple
// the oracle didn't, loses one silently, breaks a breaker invariant,
// calls an open-breaker source, or fails to replay byte-identically
// aborts the bench. Scores land in BENCH_chaos.json for the CI gate
// (soundness must be exactly 1.0).
//
// Everything runs on the simulated clock with seeded RNGs, so the
// sweep -- all 200 runs -- is byte-stable across reruns.

#include <cstdio>

#include "chaos/chaos_harness.h"
#include "common/logging.h"

namespace disco {
namespace {

int Run() {
  chaos::ChaosOptions options;
  options.seeds = 25;  // x8 scenarios = 200 seed-scenario runs
  std::printf("# chaos sweep: %d seeds x %zu scenarios, %d queries/run, "
              "%d rows/source\n",
              options.seeds, chaos::AllChaosScenarios().size(),
              options.queries_per_run, options.rows_per_source);

  chaos::ChaosSweepResult sweep = chaos::RunChaosSweep(options);

  std::printf("%-20s %6s %6s %10s %10s\n", "scenario", "runs", "passed",
              "avail", "quarantined");
  {
    // Per-scenario roll-up for the human-readable table.
    std::string current;
    int runs = 0, passed = 0;
    double avail = 0;
    long long quarantined = 0;
    auto flush = [&]() {
      if (runs == 0) return;
      std::printf("%-20s %6d %6d %10.3f %10lld\n", current.c_str(), runs,
                  passed, avail / runs, quarantined);
    };
    for (const chaos::ChaosRunResult& r : sweep.results) {
      if (r.scenario != current) {
        flush();
        current = r.scenario;
        runs = passed = 0;
        avail = 0;
        quarantined = 0;
      }
      ++runs;
      if (r.passed()) ++passed;
      avail += r.availability;
      quarantined += r.quarantined_rows;
    }
    flush();
  }

  for (const chaos::ChaosRunResult& r : sweep.results) {
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "%s seed=%llu: %s\n", r.scenario.c_str(),
                   static_cast<unsigned long long>(r.seed), v.c_str());
    }
    DISCO_CHECK(r.sound) << r.scenario << " seed " << r.seed
                         << ": unsound tuples returned";
    DISCO_CHECK(r.attributed) << r.scenario << " seed " << r.seed
                              << ": silent tuple loss";
    DISCO_CHECK(r.breaker_ok) << r.scenario << " seed " << r.seed
                              << ": breaker invariant violated";
    DISCO_CHECK(r.no_open_calls) << r.scenario << " seed " << r.seed
                                 << ": call reached an open breaker";
    DISCO_CHECK(r.replay_identical) << r.scenario << " seed " << r.seed
                                    << ": replay diverged";
  }
  DISCO_CHECK(sweep.soundness == 1.0);
  DISCO_CHECK(sweep.runs >= 200) << "sweep shrank below the 200-run bar";

  std::FILE* f = std::fopen("BENCH_chaos.json", "w");
  DISCO_CHECK(f != nullptr) << "cannot write BENCH_chaos.json";
  std::fprintf(f, "%s\n", sweep.ToJson().c_str());
  std::fclose(f);
  std::printf("# wrote BENCH_chaos.json\n");

  // Machine-readable block for CI trending; fully seeded and simulated,
  // so byte-stable across reruns.
  std::printf("\n# BENCH_SUMMARY_BEGIN\n"
              "{\n"
              "  \"bench\": \"chaos\",\n"
              "  \"runs\": %d,\n"
              "  \"passed\": %d,\n"
              "  \"soundness\": %.4f,\n"
              "  \"availability\": %.4f,\n"
              "  \"quarantined_rows\": %lld\n"
              "}\n"
              "# BENCH_SUMMARY_END\n",
              sweep.runs, sweep.passed, sweep.soundness, sweep.availability,
              static_cast<long long>(sweep.quarantined_rows));
  return sweep.all_passed() ? 0 : 1;
}

}  // namespace
}  // namespace disco

int main() { return disco::Run(); }
