// MonitorSnapshot: the dashboard-style operational report behind
// Mediator::MonitorReport() -- one deterministic picture of query
// volume, retry-budget consumption, breaker flapping, query-log
// occupancy, and the worst cost-model drift cells, renderable as text
// or JSON (field catalog in docs/OBSERVABILITY.md).
//
// Everything in the snapshot derives from simulated-clock state, so two
// same-seed runs render byte-identical reports.

#ifndef DISCO_MEDIATOR_MONITOR_REPORT_H_
#define DISCO_MEDIATOR_MONITOR_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace disco {
namespace mediator {

/// One registered source's breaker line.
struct MonitorBreakerRow {
  std::string source;       ///< lower-cased
  std::string state;        ///< effective state at snapshot time
  int64_t transitions = 0;  ///< lifetime state changes ("flaps")
  int64_t opens = 0;        ///< transitions into open
  int64_t rejected_submits = 0;
  int64_t failures = 0;
  int64_t successes = 0;
  /// Flap damping: consecutive failed half-open probes, and the cooldown
  /// the next re-probe must wait (base * 2^probes, capped).
  int probe_failures = 0;
  double effective_cooldown_ms = 0;
  /// Result-guard history: batches with quarantined/truncated answers,
  /// rows removed, and whether the current open was a lying-source trip.
  int64_t malformed_batches = 0;
  int64_t quarantined_rows = 0;
  bool lying = false;
};

/// One aggregated plan operator from the execution-profile registry:
/// either a "hottest operator" (by summed self CPU + wait) or a "worst
/// waterfall drop" (by rows_in - rows_out) row.
struct MonitorOperatorRow {
  std::string fingerprint;  ///< query-log plan fingerprint
  int node_id = 0;          ///< pre-order node index within the plan
  std::string label;        ///< algebra::NodeLabel of the node
  std::string op;           ///< operator kind
  int64_t execs = 0;        ///< queries that measured this node
  double cpu_ms = 0;        ///< summed self mediator-CPU ms
  double wait_ms = 0;       ///< summed self communication/wait ms
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  double drop_fraction = 0;  ///< (rows_in - rows_out) / rows_in
};

/// One aggregated blame subject from the critical-path registry: a
/// source or operator label plus the wait-class kind it was blamed
/// under, with its summed critical-path milliseconds.
struct MonitorBlameRow {
  std::string subject;  ///< source name or operator label
  std::string kind;     ///< cpu | wait | scatter-wait | hedge-wait | stall
  double ms = 0;        ///< summed critical-path ms across queries
  int64_t segments = 0;
  int64_t queries = 0;  ///< queries where this subject appeared
  double share = 0;     ///< ms / registry total critical-path ms
};

/// One aggregated what-if suggestion from the critical-path registry.
struct MonitorSuggestionRow {
  std::string description;       ///< WhatIfScenario::ToString()
  double predicted_delta_ms = 0; ///< summed predicted savings
  int64_t queries = 0;           ///< queries that ranked this scenario
};

/// One (source, operator, rule scope) drift cell, worst first.
struct MonitorDriftRow {
  std::string source;
  std::string op;     ///< root operator kind of the subquery
  std::string scope;  ///< winning rule scope behind the estimates
  int64_t window_count = 0;
  double window_q = 0;    ///< windowed q-error quantile
  double baseline_q = 0;  ///< frozen baseline quantile (0 = not frozen)
  bool breached = false;  ///< currently latched past the drift threshold
};

struct MonitorSnapshot {
  double now_ms = 0;  ///< simulated clock at snapshot time

  // Query volume.
  int64_t queries = 0;
  int64_t query_errors = 0;
  int64_t replans = 0;
  int64_t explain_analyzes = 0;

  // Retry-budget consumption across all submits.
  int retry_max_attempts = 0;  ///< configured per-submit budget
  int64_t submits = 0;
  int64_t submit_retries = 0;
  int64_t submit_failures = 0;  ///< submits that exhausted the budget
  int64_t breaker_rejections = 0;

  // Scatter-gather federation (docs/ROBUSTNESS.md).
  bool scatter = false;         ///< scatter knob set
  double deadline_ms = 0;       ///< configured per-query deadline (0 = off)
  bool hedging = false;         ///< hedged requests enabled
  int query_retry_budget = 0;   ///< per-query retry budget (0 = unlimited)
  int64_t scatter_queries = 0;  ///< queries that took the scatter path
  int64_t scatter_submits = 0;  ///< submits executed by the scatter phase
  int64_t hedges_launched = 0;
  int64_t hedges_won = 0;
  int64_t hedges_cancelled = 0;
  int64_t deadline_expired_submits = 0;
  int64_t deadline_expired_queries = 0;
  int64_t cancellations = 0;  ///< sibling submits aborted after a fatality
  int64_t retry_budget_exhaustions = 0;

  // Flight-recorder occupancy.
  size_t log_size = 0;
  size_t log_capacity = 0;
  int64_t log_dropped = 0;
  int64_t log_total = 0;

  // Fast planning path (docs/PERFORMANCE.md).
  size_t plan_cache_size = 0;
  size_t plan_cache_capacity = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t plan_cache_insertions = 0;
  int64_t plan_cache_invalidations = 0;
  int64_t plan_cache_evictions = 0;
  size_t cost_memo_entries = 0;
  int64_t cost_memo_hits = 0;
  int64_t cost_memo_misses = 0;
  int64_t cost_memo_invalidations = 0;

  // Execution profiling (docs/OBSERVABILITY.md, "Execution profiling").
  int64_t profiled_queries = 0;  ///< queries that recorded a PlanProfile
  size_t profiled_plans = 0;     ///< distinct plan fingerprints profiled
  /// Top-K operators by summed self time (CPU + wait), hottest first.
  std::vector<MonitorOperatorRow> hottest_operators;
  /// Top-K operators by rows dropped (rows_in - rows_out), worst first.
  std::vector<MonitorOperatorRow> worst_drops;

  // Critical-path analysis (docs/OBSERVABILITY.md, "Critical-path
  // analysis").
  int64_t critpath_queries = 0;  ///< queries with a critical path
  size_t critpath_plans = 0;     ///< distinct fingerprints analyzed
  double critpath_total_ms = 0;  ///< summed critical-path ms
  /// Top-K blame subjects by summed critical-path ms, worst first.
  std::vector<MonitorBlameRow> top_bottlenecks;
  /// Top-K what-if scenarios by summed predicted savings, best first.
  std::vector<MonitorSuggestionRow> top_suggestions;

  // Result guard (docs/ROBUSTNESS.md, "Malformed-response defense").
  int64_t guard_batches = 0;            ///< subanswers validated
  int64_t guard_malformed_batches = 0;  ///< with quarantine/truncation
  int64_t guard_quarantined_rows = 0;
  int64_t guard_truncated_streams = 0;
  int64_t lying_opens = 0;  ///< breaker opens caused by malformation

  // Cost-model drift.
  int64_t drift_events = 0;
  /// Top-K cells by windowed q-error (worst first).
  std::vector<MonitorDriftRow> worst_cells;
  /// ToString() of the most recent drift events (each names the cell
  /// and carries a recalibration recommendation), oldest first.
  std::vector<std::string> recent_events;

  /// One row per registered source, name order.
  std::vector<MonitorBreakerRow> breakers;

  std::string ToText() const;
  std::string ToJson() const;
};

}  // namespace mediator
}  // namespace disco

#endif  // DISCO_MEDIATOR_MONITOR_REPORT_H_
