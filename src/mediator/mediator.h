// The DISCO-style mediator: the public facade of this library.
//
//   Mediator med;                       // generic cost model installed
//   med.RegisterWrapper(std::move(w));  // registration phase (Figure 1)
//   auto result = med.Query("SELECT ... FROM ... WHERE ...");  // Figure 2
//
// Query() parses the declarative query, rewrites it over the local
// schemas, optimizes it with the blended cost model, executes the best
// plan (submitting subqueries to wrappers), and feeds measured subquery
// costs back into the history mechanism.

#ifndef DISCO_MEDIATOR_MEDIATOR_H_
#define DISCO_MEDIATOR_MEDIATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "costmodel/accuracy.h"
#include "costmodel/cost_memo.h"
#include "costmodel/drift.h"
#include "costmodel/estimator.h"
#include "costmodel/generic_model.h"
#include "costmodel/history.h"
#include "costmodel/registry.h"
#include "mediator/critical_path.h"
#include "mediator/exec.h"
#include "mediator/monitor_report.h"
#include "mediator/plan_cache.h"
#include "mediator/profiler.h"
#include "mediator/query_log.h"
#include "mediator/source_health.h"
#include "optimizer/optimizer.h"
#include "query/binder.h"
#include "query/sql_parser.h"
#include "wrapper/registration.h"
#include "wrapper/wrapper.h"

namespace disco {
namespace mediator {

struct MediatorOptions {
  /// Cost-model calibration; the executor charges message latency,
  /// per-byte shipping and mediator compares from the same constants.
  costmodel::CalibrationParams calibration;
  optimizer::OptimizerOptions optimizer;
  /// Record measured subquery costs as query-scope rules + adjustment
  /// factors (§4.3.1).
  bool record_history = true;
  double history_alpha = 0.3;
  /// Fault tolerance (docs/ROBUSTNESS.md): retry policy, partial-answer
  /// mode, and jitter seed for the executor.
  ExecOptions fault_tolerance;
  /// Circuit-breaker thresholds of the per-source health registry.
  SourceHealthOptions breaker;
  /// When a source dies mid-execution, replan once around it (using
  /// declared-equivalent collections) and re-execute before giving up.
  bool replan_on_source_failure = true;
  /// Collect a per-query span tree (QueryResult::trace). Driven entirely
  /// by the simulated clock, so traces are bit-identical across runs;
  /// see docs/OBSERVABILITY.md.
  bool collect_traces = true;
  /// Cost-model drift monitoring thresholds (costmodel/drift.h); set
  /// drift.enabled = false to turn the monitor off.
  costmodel::DriftOptions drift;
  /// Entries retained by the query-log flight recorder (0 disables it).
  size_t query_log_capacity = 256;
  /// Collect a per-query operator profile (QueryResult::profile) and
  /// aggregate it in the process-wide ProfileRegistry. Simulated-clock
  /// driven like traces, so profiles are byte-identical across runs
  /// (docs/OBSERVABILITY.md).
  bool profile_execution = true;
  /// Extract the per-query critical path (QueryResult::critical_path)
  /// from the profile + scatter timeline, rank what-if scenarios, and
  /// aggregate blame shares in the CriticalPathRegistry. Requires
  /// profile_execution; byte-identical across runs like profiles
  /// (docs/OBSERVABILITY.md, "Critical-path analysis").
  bool critical_path_analysis = true;
  /// Fast planning path (docs/PERFORMANCE.md): parameterized plan cache
  /// capacity (0 disables caching)...
  size_t plan_cache_capacity = 64;
  /// ...and the planning thread-pool size. 1 plans inline; N > 1 prices
  /// independent join-enumeration candidates on N threads with a
  /// deterministic reduction, so answers, traces, and metrics stay
  /// byte-identical across pool sizes.
  int planning_threads = 1;
  // Scatter-gather federation (docs/ROBUSTNESS.md) is configured via
  // fault_tolerance.federation: scatter, per-query deadline, hedging.
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<storage::Tuple> tuples;
  std::string plan_text;   ///< pretty-printed chosen plan
  /// 16-hex structural hash of the executed plan (the replanned one if a
  /// mid-query replan happened); also the query log's fingerprint.
  std::string plan_fingerprint;
  double estimated_ms = 0; ///< optimizer's estimate of the chosen plan
  double measured_ms = 0;  ///< simulated execution time
  int replans = 0;         ///< mid-query replans that happened (0 or 1)
  /// The plan came from the parameterized plan cache (join enumeration
  /// was skipped; optimizer_stats is empty in that case).
  bool plan_cache_hit = false;
  optimizer::EnumStats optimizer_stats;
  /// Degradations survived while answering (retries that recovered,
  /// dropped union branches, replica rerouting). Empty on a clean run.
  std::vector<ExecWarning> warnings;
  /// Result-guard roll-up (mediator/result_guard.h): subanswers checked
  /// against the catalog schema, malformed batches, quarantined rows,
  /// truncated streams. All zeros on a clean run.
  GuardStats guard;
  /// The query's span tree (null when MediatorOptions::collect_traces is
  /// off). Export with trace->ToChromeJson() for chrome://tracing.
  tracing::TraceHandle trace;
  /// Per-operator CPU/wait profile of the executed plan (null when
  /// MediatorOptions::profile_execution is off or execution failed).
  std::shared_ptr<const PlanProfile> profile;
  /// The query's critical path with ranked what-if suggestions (null
  /// when critical_path_analysis or profiling is off, or execution
  /// failed). Segment durations sum to measured_ms exactly.
  std::shared_ptr<const CriticalPath> critical_path;
};

class Mediator {
 public:
  explicit Mediator(MediatorOptions options = {});

  /// Registration phase: pulls schema / statistics / cost rules /
  /// capabilities from the wrapper and takes ownership of it.
  Status RegisterWrapper(std::unique_ptr<wrapper::Wrapper> w);

  /// Re-registration (paper §2.1's administrative interface): refreshes
  /// an already registered wrapper's statistics and replaces its cost
  /// rules and capabilities -- "when the cost formulas are improved by
  /// the wrapper implementor, or the statistics become out of date".
  /// Recorded query-scope entries for the source are dropped (they may
  /// reflect the old behaviour).
  Status ReRegisterWrapper(const std::string& name);

  /// Parse + bind only.
  Result<query::BoundQuery> Analyze(const std::string& sql) const;

  /// Parse + bind + optimize (no execution).
  Result<optimizer::OptimizedPlan> Plan(const std::string& sql) const;

  /// EXPLAIN: the chosen plan plus, per node, the winning cost rule of
  /// each cost variable (rendered via costmodel::FormatExplain).
  Result<std::string> Explain(const std::string& sql) const;

  /// EXPLAIN ANALYZE: optimizes AND executes, then renders the chosen
  /// plan with estimated vs. measured TotalTime / CountObject and the
  /// q-error per node, followed by the cumulative cost-model accuracy
  /// scoreboard (which rule scope produced each estimate, and how far
  /// off it was). Execution side effects (history feedback, breaker
  /// updates, clock advance) happen exactly as in Query().
  Result<std::string> ExplainAnalyze(const std::string& sql);

  /// Full query phase: returns the answer and updates history. When a
  /// source dies mid-execution, replans once around it (see
  /// MediatorOptions::replan_on_source_failure).
  Result<QueryResult> Query(const std::string& sql);

  /// Executes an already-built mediator plan.
  Result<QueryResult> Execute(const algebra::Operator& plan);

  /// Declares two registered collections to be replicas of the same
  /// logical data (forwarded to Catalog::DeclareEquivalent): the
  /// optimizer may then route around an unhealthy source.
  Status DeclareEquivalent(const std::string& collection_a,
                           const std::string& collection_b);

  // Component access (benches, tests, examples).
  const Catalog& catalog() const { return catalog_; }
  costmodel::RuleRegistry* registry() { return &registry_; }
  const costmodel::CostEstimator& estimator() const { return estimator_; }
  costmodel::HistoryManager* history() { return &history_; }
  const optimizer::CapabilityTable& capabilities() const { return caps_; }
  wrapper::Wrapper* wrapper(const std::string& name);
  const MediatorOptions& options() const { return options_; }
  SourceHealthRegistry* health() { return &health_; }
  const SourceHealthRegistry& health() const { return health_; }
  /// Process-lifetime metrics of this mediator (counters, histograms);
  /// the name catalog is in docs/OBSERVABILITY.md.
  metrics::Registry* metrics() { return &metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }
  /// Cumulative estimated-vs-measured scoreboard per (source, operator,
  /// winning rule scope).
  const costmodel::AccuracyTracker& accuracy() const { return accuracy_; }
  /// Windowed q-error drift monitor fed by the same measurement path as
  /// the history mechanism (docs/OBSERVABILITY.md).
  costmodel::DriftMonitor* drift() { return &drift_; }
  const costmodel::DriftMonitor& drift() const { return drift_; }
  /// Bounded flight recorder of executed queries (JSONL exportable,
  /// replayable via mediator/replay.h).
  QueryLog* query_log() { return &query_log_; }
  const QueryLog& query_log() const { return query_log_; }
  /// Per-operator execution profiles aggregated across queries, keyed
  /// by plan fingerprint (docs/OBSERVABILITY.md, "Execution profiling").
  const ProfileRegistry& profiles() const { return profiles_; }
  /// Critical-path blame shares and what-if suggestions aggregated
  /// across queries (docs/OBSERVABILITY.md, "Critical-path analysis").
  const CriticalPathRegistry& critical_paths() const { return critpaths_; }
  /// Parameterized plan cache consulted by Query()
  /// (docs/PERFORMANCE.md); empty when plan_cache_capacity is 0.
  PlanCache* plan_cache() { return &plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }
  /// Cross-query subplan cost memo handed to the optimizer; invalidated
  /// automatically against RuleRegistry::epoch().
  const costmodel::CostMemo& cost_memo() const { return cost_memo_; }
  /// Streaming per-source submit-latency quantiles feeding the hedge
  /// threshold (docs/ROBUSTNESS.md); spans queries.
  SubmitLatencyProfile* latency_profile() { return &latency_profile_; }
  const SubmitLatencyProfile& latency_profile() const {
    return latency_profile_;
  }
  /// Dashboard-style operational snapshot: query volume, retry-budget
  /// consumption, breaker flaps, query-log occupancy, and the `top_k`
  /// worst drift cells by windowed q-error. Deterministic: two same-seed
  /// runs render byte-identical reports.
  MonitorSnapshot MonitorReport(int top_k = 5) const;
  /// Cumulative simulated execution time across all queries -- the
  /// clock circuit-breaker cooldowns run on.
  double sim_now_ms() const { return sim_now_ms_; }

 private:
  /// Planning options with health-aware routing: avoid sources whose
  /// breaker is open, plus `extra_avoid` (sources that just failed).
  /// `trace` (may be null) receives the optimizer's rewrite/enumerate
  /// spans.
  optimizer::OptimizerOptions PlanningOptions(
      const std::vector<std::string>& extra_avoid,
      tracing::Trace* trace = nullptr) const;
  /// Query() body with phase spans emitted into `trace` (may be null).
  Result<QueryResult> QueryWithTrace(const std::string& sql,
                                     tracing::Trace* trace);
  /// Executes `plan`, advances the simulated clock (also on failure),
  /// feeds history + the accuracy tracker, and reports which sources
  /// exhausted their submits. `trace` and `node_measures` (both
  /// optional) receive per-node spans / measured costs.
  Result<QueryResult> ExecuteInternal(const algebra::Operator& plan,
                                      std::vector<std::string>* failed_sources,
                                      double* elapsed_ms,
                                      tracing::Trace* trace = nullptr,
                                      NodeMeasureMap* node_measures = nullptr);
  /// New trace anchored at the mediator clock, or null when disabled.
  tracing::TraceHandle NewTrace() const;
  /// Drops cached plan templates touching `source` and counts the drop
  /// in disco.plancache.invalidations.
  void InvalidateCachedPlansFor(const std::string& source);
  /// The plan-cache key of a bound query under the current health state:
  /// canonical shape plus the canonical avoid-set rendering.
  struct PlanCacheKeyParts {
    CanonicalQuery canon;
    std::string avoid_key;
  };
  PlanCacheKeyParts MakePlanCacheKey(const query::BoundQuery& bound) const;
  /// Files one flight-recorder entry for `result` (consumes the submits
  /// collected by the last ExecuteInternal). No-op when the log is off.
  void RecordQueryLog(const std::string& sql, double start_ms,
                      const Result<QueryResult>& result);

  MediatorOptions options_;
  Catalog catalog_;
  costmodel::RuleRegistry registry_;
  costmodel::HistoryManager history_;
  optimizer::CapabilityTable caps_;
  costmodel::CostEstimator estimator_;
  optimizer::Optimizer optimizer_;
  std::vector<std::unique_ptr<wrapper::Wrapper>> wrappers_;
  SourceHealthRegistry health_;
  double sim_now_ms_ = 0;
  metrics::Registry metrics_;
  /// Fast planning path (docs/PERFORMANCE.md). The memo and pool are
  /// mutable because const planning entry points (Plan, Explain) still
  /// warm the memo -- a cache, not observable state.
  mutable costmodel::CostMemo cost_memo_;
  std::unique_ptr<ThreadPool> planning_pool_;
  /// Per-source submit-latency quantile sketches driving hedge
  /// thresholds; fed by every successful submit across queries.
  SubmitLatencyProfile latency_profile_;
  PlanCache plan_cache_;
  costmodel::AccuracyTracker accuracy_;
  costmodel::DriftMonitor drift_;
  QueryLog query_log_;
  ProfileRegistry profiles_;
  CriticalPathRegistry critpaths_;
  /// Per-submit estimate-vs-measurement details of the most recent
  /// ExecuteInternal, consumed by RecordQueryLog.
  std::vector<QueryLogSubmit> last_submits_;
  /// Lifetime breaker flap counts per lower-cased source (MonitorReport).
  struct FlapCount {
    int64_t transitions = 0;
    int64_t opens = 0;
  };
  std::map<std::string, FlapCount> breaker_flaps_;
  /// Trace of the execution currently in flight (breaker transitions
  /// reported by the health registry and drift events land here as
  /// instant events).
  tracing::Trace* active_trace_ = nullptr;
};

}  // namespace mediator
}  // namespace disco

#endif  // DISCO_MEDIATOR_MEDIATOR_H_
