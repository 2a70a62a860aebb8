// Mediator-side plan execution (paper Figure 2, steps 4-6): submits
// subqueries to wrappers, combines subanswers with mediator-local
// physical operators, and accounts simulated communication and mediator
// CPU time.
//
// Fault tolerance (docs/ROBUSTNESS.md): each submit is gated by the
// per-source circuit breaker, retried per the RetryPolicy (backoff
// charged to the simulated clock), and -- in allow_partial mode --
// a union branch whose source stayed unavailable is dropped with a
// structured warning instead of failing the query. Failures that would
// change answer semantics (join inputs, bind-join probes) still abort.
//
// One submit engine (docs/PERFORMANCE.md) serves every path: the serial
// submit, the scatter phase, its hedges and the bind-join probe waves all
// run the same attempt loop on a *lane*. The serial lane charges the
// executor's own clock step by step; a concurrent lane runs on a relative
// clock against a private breaker registry, and the scatter or wave that
// owns it charges its lanes max-not-sum, replays their health events in
// timestamp order and commits the answers the query keeps. Lanes run one
// after another on the calling thread.

#ifndef DISCO_MEDIATOR_EXEC_H_
#define DISCO_MEDIATOR_EXEC_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/operator.h"
#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/tracing.h"
#include "costmodel/cost_vector.h"
#include "costmodel/generic_model.h"
#include "mediator/federation.h"
#include "mediator/result_guard.h"
#include "mediator/retry_policy.h"
#include "mediator/source_health.h"
#include "sources/source_engine.h"
#include "wrapper/wrapper.h"

namespace disco {
namespace mediator {

/// Fault-tolerance knobs of the executor.
struct ExecOptions {
  RetryPolicy retry;
  /// Degrade instead of abort where semantics allow it: a submit that
  /// stays unavailable under a Union yields an empty subanswer plus a
  /// warning. Join inputs and bind-join probes still abort.
  bool allow_partial = false;
  /// Seed for retry backoff jitter; fixed seed => bit-identical runs.
  uint64_t jitter_seed = 0x5EED;
  /// Scatter-gather federation (docs/ROBUSTNESS.md): concurrent submits
  /// charged max-not-sum, per-query deadline, hedged requests. With the
  /// default (inactive) options the serial submit loop runs unchanged.
  FederationOptions federation;
  /// Validate every subanswer against the catalog schema
  /// (mediator/result_guard.h): malformed rows are quarantined with a
  /// warning and persistent malformation trips the breaker as a lying
  /// source. Needs a catalog for type and truncation checks; without
  /// one only finiteness/arity are checked.
  bool guard_responses = true;
};

/// A structured per-query warning: something was degraded but the query
/// still produced an answer.
struct ExecWarning {
  std::string source;   ///< lower-cased source name involved
  std::string message;
  int attempts = 0;     ///< submit attempts behind this warning (0 = n/a)
  /// Circuit-breaker state of `source` at warning time ("" = unknown).
  std::string breaker;
  /// Pre-order index of the submit this warning belongs to (-1 = not
  /// tied to a specific submit). Set on warnings the scatter phase
  /// gathered; not part of ToString().
  int subplan_index = -1;

  std::string ToString() const;
};

/// What actually happened at one plan node during execution -- the
/// measured side of EXPLAIN ANALYZE. Keyed by node identity (the
/// `algebra::Operator*` of the executed plan tree).
struct NodeMeasure {
  double inclusive_ms = 0;  ///< simulated time charged in this subtree
  int64_t rows = -1;        ///< output cardinality; -1 = never produced
  bool ok = false;          ///< false: failed or dropped branch
  int attempts = 0;         ///< submit/bind-join nodes: submit attempts
  double source_ms = 0;     ///< submit nodes: time at the source (excl. comm)
  /// Inclusive mediator-CPU ms charged in this subtree (per-row compare,
  /// sort, merge work) -- the ChargeCpu() side of the simulated clock.
  double cpu_ms = 0;
  /// Inclusive communication/wait ms charged *serially* in this subtree
  /// (source time, message latency, byte shipping, retry backoff,
  /// timeout stall -- the ChargeWait() side). Excludes scatter_wait_ms.
  double wait_ms = 0;
  /// Submits resolved by the concurrent scatter phase: the submit's
  /// response time on its scatter lane. That time was charged to the
  /// query once, max-not-sum, so it is kept apart from wait_ms.
  double scatter_wait_ms = 0;
  /// True when scatter_wait_ms is the relevant wait (concurrent lane).
  bool concurrent = false;
  /// Submit nodes: the source's time to its first result row.
  double first_row_ms = 0;
};
using NodeMeasureMap = std::map<const algebra::Operator*, NodeMeasure>;

/// What one submitted subquery cost -- the raw material of the history
/// mechanism (§4.3.1): first-answer time, all-answers time, cardinality.
struct SubqueryRecord {
  std::string source;
  std::unique_ptr<algebra::Operator> subplan;
  costmodel::CostVector measured;
  double source_ms = 0;  ///< execution time at the source (excl. comm)
  int attempts = 1;      ///< submit attempts this record took (retries incl.)
};

struct ExecResult {
  std::vector<std::string> columns;
  std::vector<storage::Tuple> tuples;
  double measured_ms = 0;  ///< total simulated time at the mediator
  std::vector<SubqueryRecord> subqueries;
  std::vector<ExecWarning> warnings;  ///< degradations survived
};

/// One scatter-phase submit on the concurrent timeline, exported for
/// critical-path analysis (mediator/critical_path.h). Times are ms on
/// the scatter phase's relative clock (0 = phase start). The *original*
/// interval is the primary submit as it ran; the *effective* interval is
/// what the query actually waited for after hedge resolution, deadline
/// clipping, and cancellation -- the phase's max-not-sum charge equals
/// the max effective end across events.
struct ScatterTimelineEvent {
  int subplan_index = -1;    ///< pre-order index of the submit node
  std::string source;        ///< primary source group key (lower-cased)
  int lane = 0;              ///< concurrency lane (1 + group index)
  double start_rel = 0;      ///< primary submit, original interval
  double end_rel = 0;
  double eff_start_rel = 0;  ///< effective interval (see above)
  double eff_end_rel = 0;
  double source_ms = 0;      ///< winner's execution time at the source
  int attempts = 0;          ///< primary + hedge attempts
  /// Same taxonomy as the trace span arg: ok, hedge-won, cancelled,
  /// deadline-expired, unavailable, error.
  std::string outcome;
  bool hedge = false;        ///< a hedged backup submit was launched
  std::string hedge_source;  ///< replica the hedge went to
  double hedge_start_rel = 0;
  double hedge_end_rel = 0;
  bool hedge_won = false;
};

/// The whole scatter phase on its concurrent clock -- everything the
/// critical-path analyzer needs to tile [0, charged_ms] exactly.
/// Depends only on the plan's submit order.
struct ScatterTimeline {
  double charged_ms = 0;   ///< the single max-not-sum ChargeWait
  double deadline_ms = 0;  ///< per-query deadline (0 = none)
  std::vector<ScatterTimelineEvent> events;  ///< subplan-index order

  bool active() const { return !events.empty(); }
};

class MediatorExecutor {
 public:
  /// `params` supplies the communication and mediator-CPU constants
  /// (message latency, per-byte shipping, mediator compare) -- the same
  /// struct the cost model's rule text is rendered from. `catalog`
  /// supplies collection schemas for bind-join probing; it may be null
  /// if no plan contains bindjoin nodes. `health`, when given, is
  /// consulted before each submit (circuit breaker) and fed every submit
  /// outcome; `base_now_ms` anchors this execution on the mediator's
  /// cumulative simulated clock so breaker cooldowns span queries.
  MediatorExecutor(std::map<std::string, wrapper::Wrapper*> wrappers,
                   costmodel::CalibrationParams params,
                   const Catalog* catalog = nullptr,
                   ExecOptions exec_options = {},
                   SourceHealthRegistry* health = nullptr,
                   double base_now_ms = 0)
      : wrappers_(std::move(wrappers)),
        params_(params),
        catalog_(catalog),
        exec_options_(exec_options),
        health_(health),
        base_now_ms_(base_now_ms),
        rng_(exec_options.jitter_seed) {}

  // Observability hooks (all optional; null = disabled).
  /// Span per plan node and per submit, timestamps driven by the charged
  /// simulated time. The trace's clock is advanced alongside Charge().
  void set_trace(tracing::Trace* trace) { trace_ = trace; }
  /// Counters/histograms for submits, retries, warnings (see
  /// docs/OBSERVABILITY.md for the name catalog).
  void set_metrics(metrics::Registry* metrics) { metrics_ = metrics; }
  /// Per-node measured time/cardinality, filled during Execute().
  void set_node_measures(NodeMeasureMap* measures) {
    node_measures_ = measures;
  }
  /// Per-source latency quantiles feeding the hedge threshold. Also fed
  /// by this executor with every successful submit's charged duration.
  void set_latency_profile(SubmitLatencyProfile* profile) {
    profile_ = profile;
  }

  /// Executes a complete mediator plan. Every scan must sit under a
  /// submit to a registered wrapper.
  Result<ExecResult> Execute(const algebra::Operator& plan);

  /// Simulated time charged so far -- valid after Execute() even when it
  /// failed (honest accounting of work done before the failure).
  double elapsed_ms() const { return elapsed_ms_; }

  /// CPU/wait split of elapsed_ms(): mediator compare/sort/merge work
  /// vs. communication (source time, latency, backoff, stalls).
  double cpu_ms() const { return cpu_ms_; }
  double wait_ms() const { return wait_ms_; }
  /// The scatter phase's single max-not-sum charge during the last
  /// Execute() (0 when the federation layer was inactive). Included in
  /// wait_ms().
  double scatter_charged_ms() const { return scatter_charged_ms_; }

  /// The last Execute()'s scatter phase laid out on its concurrent
  /// clock (empty when the federation layer was inactive). Input to
  /// BuildCriticalPath (mediator/critical_path.h).
  const ScatterTimeline& scatter_timeline() const {
    return scatter_timeline_;
  }

  /// Sources whose submits exhausted all attempts during the last
  /// Execute() (lower-cased, in first-failure order).
  const std::vector<std::string>& failed_sources() const {
    return failed_sources_;
  }

  /// Result-guard roll-up of the last Execute(): subanswers checked,
  /// malformed batches, quarantined rows, truncated streams. Only
  /// committed answers count (discarded hedge losers do not).
  const GuardStats& guard_stats() const { return guard_stats_; }

 private:
  /// What the scatter phase decided for one kSubmit node; consumed by
  /// EvalSubmit instead of re-submitting. `duration_ms` is the submit's
  /// effective response time on the concurrent timeline (already part of
  /// the single max-not-sum scatter charge, so consumption charges 0).
  struct PrecomputedSubmit {
    Status status = Status::OK();
    sources::Rel rel;            ///< subanswer (valid when status is ok)
    double duration_ms = 0;
    double source_ms = 0;
    double first_tuple_ms = 0;   ///< source's time-to-first-row (ok only)
    int attempts = 0;
    /// Genuine submit exhaustion (replan-eligible); false for deadline
    /// expiry and cancellation, which are the mediator's doing.
    bool note_failed_source = false;
    /// Warnings surfaced when this submit is consumed (recoveries, hedge
    /// outcomes), in deterministic order.
    std::vector<ExecWarning> warnings;
    /// last_failure_ payload when status is not ok.
    ExecWarning failure;
  };

  /// Instrumented node dispatch: opens a span, runs EvalNode, records
  /// the node's measured time/cardinality.
  Result<sources::Rel> Eval(const algebra::Operator& op);
  Result<sources::Rel> EvalNode(const algebra::Operator& op);
  Result<sources::Rel> EvalSubmit(const algebra::Operator& op);
  Result<sources::Rel> EvalBindJoin(const algebra::Operator& op);
  /// Wave engine of the batched bind-join path (bind_batch_size or
  /// bind_parallelism > 1): partitions the distinct outer keys into
  /// fixed-size batches, ships each batch as one IN-set probe (or
  /// per-key selects for wrappers without in_select), and runs
  /// bind_parallelism batches per simulated-concurrent wave, one
  /// concurrent lane per batch, the clock charged max-not-sum per wave.
  /// Fills `answers` (indexed like `keys`) and the probe/batch counts. A
  /// probe failure or deadline expiry aborts the whole bind join --
  /// never a partial join.
  Status RunBindProbeWaves(const algebra::Operator& op, wrapper::Wrapper* w,
                           const std::vector<Value>& keys,
                           std::vector<std::vector<storage::Tuple>>* answers,
                           int64_t* probes, int64_t* batches);
  /// One submit on the serial lane: the attempt loop on the executor's
  /// own clock, registry and RNG, plus the submit span and failure
  /// bookkeeping.
  Result<sources::ExecutionResult> SubmitToSource(
      const std::string& source, const algebra::Operator& subplan);

  // ---- the submit engine (exec.cc) -------------------------------------
  /// Where an attempt loop runs: the serial lane or a concurrent one.
  struct Lane;
  /// Everything one attempt loop produced for one subplan.
  struct SubmitOutcome;
  /// Submit counters and retry-budget units of finished outcomes.
  struct Tally;
  /// The attempt loop: breaker gate, the wrapper call, attempt timeout,
  /// backoff, the per-query retry budget, the guard verdict and the
  /// health events, all on `lane`. `source` is the name messages quote;
  /// `key` its lower-cased wrapper key.
  SubmitOutcome RunAttempts(Lane* lane, wrapper::Wrapper* w,
                            const std::string& source, const std::string& key,
                            const algebra::Operator& subplan,
                            int max_attempts);
  /// A concurrent lane at `epoch_abs_ms` on the mediator's clock: private
  /// breaker registry seeded from the shared one for `key`, backoff RNG
  /// stream `jitter_seed ^ stream`, and `budget` retry units.
  Lane ConcurrentLane(const std::string& key, uint64_t stream,
                      double epoch_abs_ms, int budget) const;
  /// The commit step for an answer the query keeps: guard roll-up and
  /// quarantine warning, subquery record, latency profile,
  /// disco.submit.* histograms, then `notes` (recovery and hedge
  /// warnings). `response_ms` is what the query waited for the answer.
  /// Warnings go to `sink` when given, else straight to warnings_.
  void CommitAnswer(const SubmitOutcome& o, const std::string& record_source,
                    const algebra::Operator& subplan, int attempts,
                    double response_ms, std::vector<ExecWarning> notes,
                    std::vector<ExecWarning>* sink);
  /// Replays concurrent lanes' health events into the shared registry in
  /// global timestamp order (stable on ties: `logs` order). Each log is
  /// an outcome and the lane time past which its events never happened
  /// (cancellation, deadline).
  void ReplayHealth(
      const std::vector<std::pair<const SubmitOutcome*, double>>& logs,
      double epoch_abs_ms);
  /// Folds a tally into the submit counters and the per-query retry
  /// budget.
  void Reconcile(const Tally& tally);
  /// Retry units the per-query budget has left (INT_MAX = unlimited).
  int RetryBudgetLeft() const;
  int MaxAttempts() const {
    return std::max(1, exec_options_.retry.max_attempts);
  }

  Result<wrapper::Wrapper*> WrapperFor(const std::string& source) const;
  /// The scatter phase: runs every statically-known submit concurrently
  /// (grouped by wrapper, serial within a group), applies hedging,
  /// deadline clipping and cancellation, charges the clock max-not-sum,
  /// and stashes per-submit outcomes in precomputed_ for Eval to
  /// consume. No-op when the plan holds no submits.
  void ScatterGather(const algebra::Operator& plan);
  void Charge(double ms) {
    elapsed_ms_ += ms;
    if (trace_ != nullptr) trace_->Advance(ms);
  }
  /// Charge-site taxonomy behind the profiler's CPU/wait attribution:
  /// per-row mediator work charges CPU, everything a submit spends
  /// (source time, latency, bytes, backoff, stalls) charges wait.
  void ChargeCpu(double ms) {
    cpu_ms_ += ms;
    Charge(ms);
  }
  void ChargeWait(double ms) {
    wait_ms_ += ms;
    Charge(ms);
  }
  double Now() const { return base_now_ms_ + elapsed_ms_; }
  void NoteFailedSource(const std::string& source_lower);
  /// Appends a warning, mirroring it to the disco.exec.warnings counter.
  void AddWarning(ExecWarning warning);
  /// Breaker state of `source_lower` right now, "" without a registry.
  std::string BreakerStateNow(const std::string& source_lower) const;
  void BumpCounter(const char* name, int64_t delta = 1);

  std::map<std::string, wrapper::Wrapper*> wrappers_;
  costmodel::CalibrationParams params_;
  const Catalog* catalog_ = nullptr;
  ExecOptions exec_options_;
  SourceHealthRegistry* health_ = nullptr;
  double base_now_ms_ = 0;
  /// The serial lane's backoff RNG, re-seeded per Execute().
  Rng rng_;
  tracing::Trace* trace_ = nullptr;
  metrics::Registry* metrics_ = nullptr;
  NodeMeasureMap* node_measures_ = nullptr;
  SubmitLatencyProfile* profile_ = nullptr;
  double elapsed_ms_ = 0;
  double cpu_ms_ = 0;
  double wait_ms_ = 0;
  double scatter_charged_ms_ = 0;
  ScatterTimeline scatter_timeline_;
  /// Cumulative rows produced by mediator-side nodes (trace counters).
  int64_t rows_emitted_ = 0;
  std::vector<SubqueryRecord> subqueries_;
  std::vector<ExecWarning> warnings_;
  std::vector<std::string> failed_sources_;
  /// Per-query result-guard roll-up (result_guard.h).
  GuardStats guard_stats_;
  /// Details of the most recent exhausted submit (for union warnings).
  ExecWarning last_failure_;
  /// Attempts of the most recent submit (for per-node measures).
  int last_submit_attempts_ = 0;
  /// Retry-budget units consumed this query (retries + hedge launches);
  /// see RetryPolicy::query_retry_budget.
  int retries_used_ = 0;
  /// Scatter-phase outcomes keyed by submit node, consumed by EvalSubmit.
  std::map<const algebra::Operator*, PrecomputedSubmit> precomputed_;
  /// Response time of the precomputed submit just consumed; folded into
  /// that node's NodeMeasure::inclusive_ms by Eval (the scatter phase
  /// charged the time globally, so the node itself charges 0).
  double precomputed_bonus_ms_ = 0;
  /// True while precomputed_bonus_ms_ refers to a scatter-phase submit
  /// (marks the node's NodeMeasure as concurrent).
  bool precomputed_concurrent_ = false;
  /// Trace lanes the scatter phase occupied (primary + hedge groups);
  /// bind-join probe lanes are allocated above this so the two
  /// concurrent phases never share a lane.
  int trace_lane_base_ = 0;
  /// Probe lanes started this execution; seeds each lane's backoff RNG
  /// stream apart from the scatter/hedge streams.
  uint64_t bind_probe_lane_seq_ = 0;
};

}  // namespace mediator
}  // namespace disco

#endif  // DISCO_MEDIATOR_EXEC_H_
