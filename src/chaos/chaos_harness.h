// Deterministic chaos harness: seed-swept fault scenarios checked
// against a fault-free oracle under machine-checked *degradation
// contracts* (docs/ROBUSTNESS.md, "Chaos harness").
//
// Each run pins one (scenario, seed) pair: a four-source federation
// with globally disjoint key ranges executes the same union query
// stream while a FaultSchedule (wrapper/fault_schedule.h) injects
// correlated outages, flaps, latency storms, or malformed responses.
// The same stack (scatter path on) runs three arms:
//
//   oracle     schedule disabled -- the ground-truth answer stream
//   faults     schedule enabled
//   replay     faults on again -- byte-identity of the whole run
//
// and every arm's full observable behaviour (per-query tuples,
// warnings, errors, simulated latency, guard roll-up, final breaker
// counters) is folded into a digest. The contracts:
//
//   soundness     returned tuples are a sub-multiset of the oracle's --
//                 chaos may *lose* rows, never invent or corrupt them
//   attribution   every missing tuple maps (by key range) to a source
//                 the query warned about or an explicit query error --
//                 degradation is never silent
//   breaker       per-source counters are monotone and states legal;
//                 a breaker open before and after a query admitted no
//                 wrapper call in between (no retries against open
//                 breakers)
//   determinism   the replay arm digests byte-identically to the
//                 faults arm
//
// Scores: availability = returned/oracle tuples (mean over runs),
// soundness = fraction of runs with zero unsound tuples. The chaos CLI
// (tools/chaos.cc) and bench_chaos gate on soundness == 1.0.

#ifndef DISCO_CHAOS_CHAOS_HARNESS_H_
#define DISCO_CHAOS_CHAOS_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace disco {
namespace chaos {

struct ChaosOptions {
  /// Seeds swept per scenario: seed_base .. seed_base + seeds - 1.
  int seeds = 25;
  uint64_t seed_base = 1;
  /// Union queries executed per arm (the schedule clock advances to the
  /// mediator's simulated clock before each).
  int queries_per_run = 10;
  /// Rows per source; source i owns keys [i*1000, i*1000 + rows).
  int rows_per_source = 40;
  /// Scenario names to run (empty = AllChaosScenarios()).
  std::vector<std::string> scenarios;
};

/// Outcome of one (scenario, seed) run across all three arms.
struct ChaosRunResult {
  std::string scenario;
  uint64_t seed = 0;

  int queries_ok = 0;      ///< faults-arm queries that returned ok
  int queries_failed = 0;  ///< faults-arm queries that errored
  int64_t oracle_tuples = 0;
  int64_t returned_tuples = 0;
  int64_t missing_tuples = 0;
  int64_t unsound_tuples = 0;  ///< returned but absent from the oracle
  int64_t quarantined_rows = 0;
  int64_t warning_count = 0;

  // Contract verdicts.
  bool sound = false;             ///< unsound_tuples == 0
  bool attributed = false;        ///< every missing tuple warned about
  bool breaker_ok = false;        ///< monotone counters, legal states
  bool no_open_calls = false;     ///< open breakers admitted no calls
  bool replay_identical = false;  ///< replay arm == faults arm digest

  /// Human-readable contract violations (empty when passed()).
  std::vector<std::string> violations;

  double availability = 0;  ///< returned_tuples / oracle_tuples

  bool passed() const {
    return sound && attributed && breaker_ok && no_open_calls &&
           replay_identical;
  }
};

/// Aggregate of a full sweep; ToJson() is the BENCH_chaos.json body.
struct ChaosSweepResult {
  int runs = 0;
  int passed = 0;
  double soundness = 0;     ///< fraction of runs with zero unsound tuples
  double availability = 0;  ///< mean per-run availability
  int64_t quarantined_rows = 0;
  std::vector<ChaosRunResult> results;

  bool all_passed() const { return passed == runs; }
  std::string ToJson() const;
};

/// The built-in scenario catalog (docs/ROBUSTNESS.md lists each):
/// outage-domain, flap, latency-storm, malformed-arity,
/// malformed-types, malformed-nonfinite, truncated-stream, mixed.
std::vector<std::string> AllChaosScenarios();

/// Runs one (scenario, seed) pair through all three arms and checks
/// every contract. Unknown scenario names fail with a violation.
ChaosRunResult RunChaosScenario(const std::string& scenario, uint64_t seed,
                                const ChaosOptions& options = {});

/// The full sweep: every scenario x every seed.
ChaosSweepResult RunChaosSweep(const ChaosOptions& options = {});

}  // namespace chaos
}  // namespace disco

#endif  // DISCO_CHAOS_CHAOS_HARNESS_H_
