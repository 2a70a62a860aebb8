#include "mediator/mediator.h"

#include <algorithm>
#include <limits>

#include "algebra/plan_printer.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "mediator/explain_analyze.h"

namespace disco {
namespace mediator {

namespace {

/// 16-hex structural hash identifying a plan shape in the query log.
std::string PlanFingerprint(const algebra::Operator& plan) {
  return StringPrintf("%016llx",
                      static_cast<unsigned long long>(plan.Hash()));
}

}  // namespace

Mediator::Mediator(MediatorOptions options)
    : options_(std::move(options)),
      history_(options_.history_alpha),
      estimator_(&registry_, &catalog_,
                 options_.record_history ? &history_ : nullptr),
      optimizer_(&estimator_, &caps_),
      health_(options_.breaker),
      drift_(options_.drift),
      query_log_(options_.query_log_capacity),
      planning_pool_(options_.planning_threads > 1
                         ? std::make_unique<ThreadPool>(
                               options_.planning_threads)
                         : nullptr),
      latency_profile_(options_.fault_tolerance.federation.hedge_quantile),
      plan_cache_(options_.plan_cache_capacity) {
  // The cost model prices bind joins the way the executor will run
  // them, so the probe-batching knobs mirror the federation options
  // unconditionally (a calibration override here could only make the
  // model disagree with execution).
  options_.calibration.bind_batch_size =
      options_.fault_tolerance.federation.bind_batch_size;
  options_.calibration.bind_parallelism =
      options_.fault_tolerance.federation.bind_parallelism;
  Status s = costmodel::InstallGenericModel(&registry_, options_.calibration);
  DISCO_CHECK(s.ok()) << "generic cost model failed to install: "
                      << s.ToString();
  // Pre-create the per-operator execution metrics family so metric
  // expositions list the whole catalog before the first query runs.
  RegisterOperatorMetrics(&metrics_);
  RegisterCritpathMetrics(&metrics_);
  // Result-guard family (docs/OBSERVABILITY.md): pre-created so metric
  // expositions list it even before the first malformed answer.
  metrics_.counter("disco.guard.batches");
  metrics_.counter("disco.guard.malformed_batches");
  metrics_.counter("disco.guard.quarantined_rows");
  metrics_.counter("disco.guard.truncated_streams");
  metrics_.counter("disco.breaker.lying_opens");
  // Observability: breaker state changes become counters and, during an
  // execution, instant trace events.
  health_.SetTransitionListener([this](const std::string& source,
                                       BreakerState from, BreakerState to,
                                       double now_ms) {
    // A breaker transition changes which sources planning may use:
    // templates touching the source are stale in both directions
    // (open: the plan submits to a dead source; close: a degraded
    // workaround plan is no longer the best choice).
    InvalidateCachedPlansFor(source);
    metrics_.counter("disco.breaker.transitions")->Increment();
    FlapCount& flaps = breaker_flaps_[source];
    ++flaps.transitions;
    if (to == BreakerState::kOpen) ++flaps.opens;
    if (to == BreakerState::kOpen) {
      metrics_.counter("disco.breaker.opens")->Increment();
      // A lying source opened because its answers could not be trusted,
      // not because it stopped answering -- distinct signal, distinct
      // counter (the result guard set the flag before transitioning).
      const bool lying = health_.Health(source).lying;
      if (lying) metrics_.counter("disco.breaker.lying_opens")->Increment();
      DISCO_LOG(Warning)
          << "circuit breaker for source '" << source << "' opened at "
          << now_ms << " ms"
          << (lying ? " (lying source: persistent malformed responses)"
                    : "");
    }
    metrics_.gauge("disco.breaker.state." + source)
        ->Set(static_cast<double>(to));
    if (active_trace_ != nullptr) {
      int mark = active_trace_->Instant(
          StringPrintf("breaker %s: %s -> %s", source.c_str(),
                       BreakerStateToString(from), BreakerStateToString(to)),
          "breaker");
      active_trace_->AddArg(mark, "source", source);
    }
  });
  // Drift breaches become a counter, a warning log line, and -- during
  // an execution -- an instant trace event carrying the recommendation.
  drift_.SetListener([this](const costmodel::DriftEvent& event) {
    // The cost knowledge the cached template was chosen under has
    // drifted past its threshold: replan this source's shapes fresh.
    InvalidateCachedPlansFor(event.source);
    metrics_.counter("disco.costmodel.drift_events")->Increment();
    DISCO_LOG(Warning) << "cost-model drift: " << event.ToString();
    if (active_trace_ != nullptr) {
      int mark = active_trace_->Instant(
          StringPrintf("cost-model drift @%s", event.source.c_str()),
          "drift");
      active_trace_->AddArg(mark, "source", event.source);
      active_trace_->AddArg(mark, "recommendation", event.recommendation);
    }
  });
}

tracing::TraceHandle Mediator::NewTrace() const {
  if (!options_.collect_traces) return nullptr;
  auto trace = std::make_shared<tracing::Trace>(sim_now_ms_);
  // Perfetto renders these "M" metadata names on the process header and
  // the serial lane; the scatter phase names its own lanes per group.
  trace->SetProcessName("disco mediator");
  trace->SetLaneName(0, "mediator");
  return trace;
}

void Mediator::InvalidateCachedPlansFor(const std::string& source) {
  const int64_t before = plan_cache_.stats().invalidations;
  plan_cache_.InvalidateSource(source);
  const int64_t dropped = plan_cache_.stats().invalidations - before;
  if (dropped > 0) {
    metrics_.counter("disco.plancache.invalidations")->Increment(dropped);
  }
}

Status Mediator::RegisterWrapper(std::unique_ptr<wrapper::Wrapper> w) {
  DISCO_ASSIGN_OR_RETURN(
      wrapper::RegistrationReport report,
      wrapper::RegisterWrapper(w.get(), &catalog_, &registry_, &caps_));
  (void)report;
  wrappers_.push_back(std::move(w));
  return Status::OK();
}

Status Mediator::ReRegisterWrapper(const std::string& name) {
  wrapper::Wrapper* w = wrapper(name);
  if (w == nullptr) {
    return Status::NotFound("no registered wrapper named '" + name + "'");
  }
  DISCO_RETURN_NOT_OK(wrapper::RefreshStatistics(w, &catalog_));
  registry_.RemoveWrapperRules(w->name());
  const std::string rule_text = w->ExportCostRules();
  if (!rule_text.empty()) {
    // Recompile against the wrapper's current schema.
    costlang::CompileSchema schema;
    for (const std::string& coll : catalog_.CollectionsOf(w->name())) {
      Result<CatalogEntry> entry = catalog_.Collection(coll);
      if (!entry.ok()) continue;
      std::vector<std::string> attrs;
      for (const AttributeDef& a : entry->schema.attributes()) {
        attrs.push_back(a.name);
      }
      schema.AddCollection(coll, attrs);
    }
    DISCO_ASSIGN_OR_RETURN(costlang::CompiledRuleSet rules,
                           costlang::CompileRuleText(rule_text, schema));
    DISCO_RETURN_NOT_OK(registry_.AddWrapperRules(w->name(), std::move(rules)));
  }
  caps_.Set(w->name(), w->ExportCapabilities());
  // An administrative refresh is a statement that the source is (again)
  // trustworthy: forget its breaker state, and let the drift monitor
  // re-freeze its baselines against the refreshed cost knowledge.
  health_.Reset(w->name());
  drift_.ResetBaseline(w->name());
  // Plans chosen under the old rules/statistics must not be replayed.
  InvalidateCachedPlansFor(w->name());
  return Status::OK();
}

Status Mediator::DeclareEquivalent(const std::string& collection_a,
                                   const std::string& collection_b) {
  DISCO_RETURN_NOT_OK(catalog_.DeclareEquivalent(collection_a, collection_b));
  // A new equivalence changes the plan space for every shape touching
  // the class (replica routing becomes possible), so drop everything.
  const int64_t dropped = static_cast<int64_t>(plan_cache_.size());
  plan_cache_.InvalidateAll();
  if (dropped > 0) {
    metrics_.counter("disco.plancache.invalidations")->Increment(dropped);
  }
  return Status::OK();
}

wrapper::Wrapper* Mediator::wrapper(const std::string& name) {
  for (auto& w : wrappers_) {
    if (EqualsIgnoreCase(w->name(), name)) return w.get();
  }
  return nullptr;
}

Mediator::PlanCacheKeyParts Mediator::MakePlanCacheKey(
    const query::BoundQuery& bound) const {
  PlanCacheKeyParts parts;
  parts.canon = Canonicalize(bound);
  std::vector<std::string> avoid = health_.OpenSources(sim_now_ms_);
  for (std::string& s : avoid) s = ToLower(s);
  std::sort(avoid.begin(), avoid.end());
  avoid.erase(std::unique(avoid.begin(), avoid.end()), avoid.end());
  parts.avoid_key = JoinStrings(avoid, ",");
  return parts;
}

Result<query::BoundQuery> Mediator::Analyze(const std::string& sql) const {
  DISCO_ASSIGN_OR_RETURN(query::ParsedQuery parsed, query::ParseSql(sql));
  return query::Bind(parsed, catalog_);
}

optimizer::OptimizerOptions Mediator::PlanningOptions(
    const std::vector<std::string>& extra_avoid,
    tracing::Trace* trace) const {
  optimizer::OptimizerOptions opts = options_.optimizer;
  opts.catalog = &catalog_;
  opts.trace = trace;
  // Fast planning path: the cross-query subplan memo and (when
  // configured) the deterministic planning pool.
  opts.memo = &cost_memo_;
  opts.pool = planning_pool_.get();
  opts.avoid_sources = health_.OpenSources(sim_now_ms_);
  for (const std::string& s : extra_avoid) {
    opts.avoid_sources.push_back(s);
  }
  return opts;
}

Result<optimizer::OptimizedPlan> Mediator::Plan(const std::string& sql) const {
  DISCO_ASSIGN_OR_RETURN(query::BoundQuery bound, Analyze(sql));
  return optimizer_.Optimize(bound, PlanningOptions({}));
}

Result<std::string> Mediator::Explain(const std::string& sql) const {
  DISCO_ASSIGN_OR_RETURN(optimizer::OptimizedPlan plan, Plan(sql));
  costmodel::EstimateOptions options = options_.optimizer.estimate;
  options.collect_explain = true;
  DISCO_ASSIGN_OR_RETURN(costmodel::PlanEstimate estimate,
                         estimator_.Estimate(*plan.plan, options));
  return costmodel::FormatExplain(estimate);
}

Result<std::string> Mediator::ExplainAnalyze(const std::string& sql) {
  metrics_.counter("disco.explain_analyze.count")->Increment();
  tracing::TraceHandle trace = NewTrace();
  tracing::ScopedSpan ea_span(trace.get(), "explain-analyze");
  ea_span.Arg("sql", sql);

  DISCO_ASSIGN_OR_RETURN(query::BoundQuery bound, Analyze(sql));
  optimizer::OptimizedPlan plan;
  {
    tracing::ScopedSpan span(trace.get(), "optimize");
    DISCO_ASSIGN_OR_RETURN(
        plan, optimizer_.Optimize(bound, PlanningOptions({}, trace.get())));
  }

  // Snapshot the estimate the optimizer believed, per node, BEFORE
  // executing: execution feeds history, which would contaminate a
  // post-hoc estimate. Visit every node so the rendering can pair each
  // plan node with its explain record.
  costmodel::EstimateOptions full = options_.optimizer.estimate;
  full.collect_explain = true;
  full.propagate_required_vars = false;
  full.prune_bound = std::numeric_limits<double>::infinity();
  DISCO_ASSIGN_OR_RETURN(costmodel::PlanEstimate estimate,
                         estimator_.Estimate(*plan.plan, full));

  NodeMeasureMap measures;
  const double start_ms = sim_now_ms_;
  DISCO_ASSIGN_OR_RETURN(
      QueryResult executed,
      ExecuteInternal(*plan.plan, nullptr, nullptr, trace.get(), &measures));
  executed.estimated_ms = plan.estimated_ms;
  executed.plan_fingerprint = PlanFingerprint(*plan.plan);
  RecordQueryLog(sql, start_ms, executed);

  ExplainAnalyzeReport report;
  report.plan = plan.plan.get();
  report.estimate = &estimate;
  report.measures = &measures;
  report.estimated_total_ms = plan.estimated_ms;
  report.measured_total_ms = executed.measured_ms;
  report.warnings = &executed.warnings;
  report.profile = executed.profile.get();
  report.critical_path = executed.critical_path.get();
  report.scoreboard = accuracy_.FormatScoreboard();
  return RenderExplainAnalyze(report);
}

namespace {

/// Does `op` (or any descendant) submit to one of `sources`?
bool PlanUsesAnySource(const algebra::Operator& op,
                       const std::vector<std::string>& sources) {
  if (op.kind == algebra::OpKind::kSubmit ||
      op.kind == algebra::OpKind::kBindJoin) {
    for (const std::string& s : sources) {
      if (EqualsIgnoreCase(s, op.source)) return true;
    }
  }
  for (int i = 0; i < op.num_children(); ++i) {
    if (PlanUsesAnySource(op.child(i), sources)) return true;
  }
  return false;
}

/// Surfaces replica rerouting decisions as structured warnings.
void AddReplicaWarnings(const optimizer::OptimizedPlan& plan,
                        const Catalog& catalog,
                        const SourceHealthRegistry& health, double now_ms,
                        metrics::Registry* metrics, QueryResult* out) {
  for (const auto& [original, replica] : plan.replica_substitutions) {
    Result<std::string> source = catalog.SourceOf(replica);
    const std::string source_lower =
        source.ok() ? ToLower(*source) : std::string();
    metrics->counter("disco.exec.warnings")->Increment();
    out->warnings.push_back(ExecWarning{
        source_lower,
        "rerouted '" + original + "' to replica '" + replica + "'", 0,
        source_lower.empty()
            ? std::string()
            : BreakerStateToString(health.StateAt(source_lower, now_ms))});
  }
}

}  // namespace

Result<QueryResult> Mediator::Query(const std::string& sql) {
  metrics_.counter("disco.query.count")->Increment();
  const double start_ms = sim_now_ms_;
  tracing::TraceHandle trace = NewTrace();
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    tracing::ScopedSpan query_span(trace.get(), "query");
    query_span.Arg("sql", sql);
    // The flight-recorder seq doubles as the trace id: stamping it on
    // the root span ties a trace file back to its JSONL log line.
    if (query_log_.enabled()) {
      query_span.Arg("trace_id", query_log_.next_seq());
    }
    Result<QueryResult> r = QueryWithTrace(sql, trace.get());
    if (!r.ok()) query_span.Arg("error", r.status().ToString());
    return r;
  }();
  if (result.ok()) {
    result->trace = trace;
    metrics_.histogram("disco.query.ms")->Record(result->measured_ms);
  } else {
    metrics_.counter("disco.query.errors")->Increment();
  }
  RecordQueryLog(sql, start_ms, result);
  return result;
}

void Mediator::RecordQueryLog(const std::string& sql, double start_ms,
                              const Result<QueryResult>& result) {
  std::vector<QueryLogSubmit> submits = std::move(last_submits_);
  last_submits_.clear();
  if (!query_log_.enabled()) return;
  QueryLogEntry entry;
  entry.sql = sql;
  entry.start_ms = start_ms;
  if (result.ok()) {
    entry.plan_fingerprint = result->plan_fingerprint;
    entry.estimated_ms = result->estimated_ms;
    entry.measured_ms = result->measured_ms;
    entry.replans = result->replans;
    if (result->profile != nullptr) {
      entry.profile_nodes =
          static_cast<int>(result->profile->nodes.size());
      entry.profile_cpu_ms = result->profile->total_cpu_ms();
      entry.profile_wait_ms = result->profile->total_wait_ms();
    }
    if (result->critical_path != nullptr) {
      const CriticalSegment* top = result->critical_path->dominant();
      if (top != nullptr) {
        entry.critpath_subject = top->subject();
        entry.critpath_kind = top->kind;
        entry.critpath_ms = top->ms;
        entry.critpath_share = result->measured_ms > 0
                                   ? top->ms / result->measured_ms
                                   : 0;
      }
    }
    entry.guard_batches = result->guard.batches_checked;
    entry.guard_malformed = result->guard.malformed_batches;
    entry.guard_quarantined_rows = result->guard.rows_quarantined;
    entry.guard_truncated = result->guard.truncated_streams;
    for (const ExecWarning& w : result->warnings) {
      entry.warnings.push_back(w.ToString());
    }
  } else {
    entry.ok = false;
    entry.error = result.status().ToString();
  }
  entry.submits = std::move(submits);
  query_log_.Record(std::move(entry));
}

Result<QueryResult> Mediator::QueryWithTrace(const std::string& sql,
                                             tracing::Trace* trace) {
  query::ParsedQuery parsed;
  {
    tracing::ScopedSpan span(trace, "parse");
    DISCO_ASSIGN_OR_RETURN(parsed, query::ParseSql(sql));
  }
  query::BoundQuery bound;
  {
    tracing::ScopedSpan span(trace, "bind");
    DISCO_ASSIGN_OR_RETURN(bound, query::Bind(parsed, catalog_));
    span.Arg("relations", static_cast<int64_t>(bound.relations.size()));
  }
  // Parameterized plan cache: canonicalize the bound query (constants
  // lifted into slots) and try to replay a cached winning plan under the
  // same catalog version and avoid-set (docs/PERFORMANCE.md).
  optimizer::OptimizedPlan plan;
  bool cache_hit = false;
  PlanCacheKeyParts cache_key;
  if (plan_cache_.enabled()) {
    tracing::ScopedSpan span(trace, "plan-cache", "plan");
    cache_key = MakePlanCacheKey(bound);
    std::unique_ptr<algebra::Operator> cached = plan_cache_.Lookup(
        cache_key.canon, catalog_.version(), cache_key.avoid_key);
    span.Arg("hit", int64_t{cached != nullptr ? 1 : 0});
    span.Arg("entries", static_cast<int64_t>(plan_cache_.size()));
    if (cached != nullptr) {
      metrics_.counter("disco.plancache.hits")->Increment();
      // Re-estimate the instantiated plan so estimated_ms reflects the
      // *current* constants and cost knowledge, not the cached run's.
      DISCO_ASSIGN_OR_RETURN(
          plan.final_estimate,
          estimator_.Estimate(*cached, options_.optimizer.estimate));
      plan.plan = std::move(cached);
      plan.estimated_ms = plan.final_estimate.root.total_time();
      span.Arg("estimated_ms", plan.estimated_ms);
      cache_hit = true;
    } else {
      metrics_.counter("disco.plancache.misses")->Increment();
    }
  }
  if (!cache_hit) {
    // The optimizer nests rewrite/enumerate spans below this one.
    tracing::ScopedSpan span(trace, "optimize");
    DISCO_ASSIGN_OR_RETURN(
        plan, optimizer_.Optimize(bound, PlanningOptions({}, trace)));
    span.Arg("estimated_ms", plan.estimated_ms);
    metrics_.counter("disco.optimizer.plans_costed")
        ->Increment(plan.stats.plans_costed);
    metrics_.counter("disco.optimizer.plans_pruned")
        ->Increment(plan.stats.plans_pruned);
    metrics_.counter("disco.optimizer.formulas_evaluated")
        ->Increment(plan.stats.formulas_evaluated);
    metrics_.counter("disco.optimizer.nodes_visited")
        ->Increment(plan.stats.nodes_visited);
    metrics_.counter("disco.optimizer.match_attempts")
        ->Increment(plan.stats.match_attempts);
    metrics_.counter("disco.costmemo.hits")->Increment(plan.stats.memo_hits);
    metrics_.counter("disco.costmemo.misses")
        ->Increment(plan.stats.memo_misses);
    // Cache the winner for the next query of this shape. Plans that were
    // rerouted to replicas are not cached: their warnings describe a
    // routing decision a replay would silently repeat.
    if (plan_cache_.enabled() && plan.replica_substitutions.empty()) {
      const int64_t before = plan_cache_.stats().insertions;
      plan_cache_.Insert(cache_key.canon, catalog_.version(),
                         cache_key.avoid_key, *plan.plan);
      if (plan_cache_.stats().insertions > before) {
        metrics_.counter("disco.plancache.insertions")->Increment();
      }
    }
  }
  std::vector<std::string> failed;
  double first_attempt_ms = 0;
  Result<QueryResult> result =
      ExecuteInternal(*plan.plan, &failed, &first_attempt_ms, trace);
  if (result.ok()) {
    result->estimated_ms = plan.estimated_ms;
    result->optimizer_stats = plan.stats;
    result->plan_fingerprint = PlanFingerprint(*plan.plan);
    result->plan_cache_hit = cache_hit;
    AddReplicaWarnings(plan, catalog_, health_, sim_now_ms_, &metrics_,
                       &*result);
    return result;
  }
  if (!options_.replan_on_source_failure || failed.empty() ||
      !result.status().IsUnavailable()) {
    return result;
  }
  // A source died mid-execution: replan once around it. Only worth
  // re-executing when the new plan actually avoids every dead source.
  // The whole recovery (re-optimize + re-execute) gets its own span so
  // the replan's cost is visible in the timeline.
  metrics_.counter("disco.mediator.replans")->Increment();
  DISCO_LOG(Info) << "replanning around unavailable source(s): "
                  << JoinStrings(failed, ", ");
  tracing::ScopedSpan replan_span(trace, "replan");
  replan_span.Arg("failed_sources", JoinStrings(failed, ","));
  Result<optimizer::OptimizedPlan> replanned = [&] {
    tracing::ScopedSpan span(trace, "replan-optimize");
    return optimizer_.Optimize(bound, PlanningOptions(failed, trace));
  }();
  if (!replanned.ok() || PlanUsesAnySource(*replanned->plan, failed)) {
    replan_span.Arg("outcome", "no-alternative-plan");
    return result;
  }
  Result<QueryResult> second =
      ExecuteInternal(*replanned->plan, nullptr, nullptr, trace);
  if (!second.ok()) {
    replan_span.Arg("outcome", "re-execution-failed");
    return result;  // report the original failure
  }
  replan_span.Arg("outcome", "recovered");
  second->estimated_ms = replanned->estimated_ms;
  second->optimizer_stats = replanned->stats;
  second->plan_fingerprint = PlanFingerprint(*replanned->plan);
  second->replans = 1;
  // The failed first execution still happened: charge its time.
  second->measured_ms += first_attempt_ms;
  metrics_.counter("disco.exec.warnings")->Increment();
  second->warnings.insert(
      second->warnings.begin(),
      ExecWarning{failed[0],
                  "replanned around unavailable source(s): " +
                      JoinStrings(failed, ", "),
                  0,
                  BreakerStateToString(
                      health_.StateAt(failed[0], sim_now_ms_))});
  AddReplicaWarnings(*replanned, catalog_, health_, sim_now_ms_, &metrics_,
                     &*second);
  return second;
}

Result<QueryResult> Mediator::Execute(const algebra::Operator& plan) {
  const double start_ms = sim_now_ms_;
  tracing::TraceHandle trace = NewTrace();
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    tracing::ScopedSpan span(trace.get(), "execute-plan");
    return ExecuteInternal(plan, nullptr, nullptr, trace.get());
  }();
  if (result.ok()) {
    result->trace = trace;
    result->plan_fingerprint = PlanFingerprint(plan);
  }
  // Plan-level executions leave a fingerprint-only entry (empty SQL):
  // replay skips them, but the flight recorder stays complete.
  RecordQueryLog("", start_ms, result);
  return result;
}

Result<QueryResult> Mediator::ExecuteInternal(
    const algebra::Operator& plan, std::vector<std::string>* failed_sources,
    double* elapsed_ms, tracing::Trace* trace,
    NodeMeasureMap* node_measures) {
  std::map<std::string, wrapper::Wrapper*> by_name;
  for (auto& w : wrappers_) by_name[ToLower(w->name())] = w.get();
  // Profiling rides on the same per-node measures EXPLAIN ANALYZE uses;
  // when the caller did not ask for them, collect into a local map.
  NodeMeasureMap profile_measures;
  if (options_.profile_execution && node_measures == nullptr) {
    node_measures = &profile_measures;
  }
  MediatorExecutor exec(std::move(by_name), options_.calibration, &catalog_,
                        options_.fault_tolerance, &health_, sim_now_ms_);
  exec.set_trace(trace);
  exec.set_metrics(&metrics_);
  exec.set_node_measures(node_measures);
  exec.set_latency_profile(&latency_profile_);
  // Breaker transitions and drift breaches land as instant events on
  // the active trace; drift fires from the feedback loop below, so the
  // trace stays active through it.
  active_trace_ = trace;
  last_submits_.clear();
  Result<ExecResult> raw = [&]() -> Result<ExecResult> {
    tracing::ScopedSpan span(trace, "execute");
    Result<ExecResult> r = exec.Execute(plan);
    if (!r.ok()) span.Arg("error", r.status().ToString());
    return r;
  }();
  // Time passed even if the query failed: advance the mediator clock so
  // breaker cooldowns keep running.
  sim_now_ms_ += exec.elapsed_ms();
  if (failed_sources != nullptr) *failed_sources = exec.failed_sources();
  if (elapsed_ms != nullptr) *elapsed_ms = exec.elapsed_ms();
  if (!raw.ok()) {
    active_trace_ = nullptr;
    return raw.status();
  }

  // Feed measured subquery costs back into the history mechanism (the
  // query scope records the exact cost; the adjustment factor tracks
  // observed/estimated per source x operator kind) and score the
  // estimate each subquery ran under against what was measured.
  if (options_.record_history) {
    tracing::ScopedSpan span(trace, "history-feedback");
    for (const SubqueryRecord& record : raw->subqueries) {
      // Score first: the estimate the optimizer believed (history and
      // all), attributed to the rule scope that produced its TotalTime.
      // Recording the execution below would make this subquery's own
      // measurement win the lookup and trivialize the comparison.
      costmodel::EstimateOptions scored = options_.optimizer.estimate;
      scored.collect_explain = true;
      Result<costmodel::PlanEstimate> believed =
          estimator_.EstimateAt(*record.subplan, record.source, scored);
      costmodel::Scope scope = costmodel::Scope::kDefault;
      if (believed.ok() && !believed->explain.empty()) {
        const costmodel::NodeExplain& root = believed->explain.front();
        if (root.from_query_scope) {
          scope = costmodel::Scope::kQuery;
        } else {
          for (const costmodel::VarExplain& v : root.vars) {
            if (v.var == costmodel::CostVarId::kTotalTime) scope = v.scope;
          }
        }
        accuracy_.Record(record.source, record.subplan->kind, scope,
                         believed->root.total_time(),
                         record.measured.total_time());
        // Same (estimate, measurement, scope) triple goes to the drift
        // monitor, stamped with the post-execution simulated clock.
        drift_.Observe(record.source, record.subplan->kind, scope,
                       believed->root.total_time(),
                       record.measured.total_time(), sim_now_ms_);
      }

      if (query_log_.enabled()) {
        QueryLogSubmit submit;
        submit.source = ToLower(record.source);
        submit.subplan = record.subplan->ToString();
        submit.scope = costmodel::ScopeToString(scope);
        submit.attempts = record.attempts;
        if (believed.ok()) submit.estimated = believed->root;
        submit.measured = record.measured;
        last_submits_.push_back(std::move(submit));
      }

      costmodel::EstimateOptions no_history;
      no_history.use_history = false;
      double estimated = 0;
      Result<costmodel::PlanEstimate> est = estimator_.EstimateAt(
          *record.subplan, record.source, no_history);
      if (est.ok()) estimated = est->root.total_time();
      history_.RecordExecution(&registry_, record.source, *record.subplan,
                               estimated, record.measured);
      metrics_.counter("disco.history.observations")->Increment();
    }
    span.Arg("subqueries", static_cast<int64_t>(raw->subqueries.size()));
  }
  // Re-evaluate drift latches against the post-execution clock: a cell
  // whose plan shape stopped executing (e.g. the plan cache pinned a
  // different winner after a drift-triggered invalidation) receives no
  // further observations, so its stale samples must age out of the
  // window here rather than at the next Observe().
  drift_.Refresh(sim_now_ms_);
  active_trace_ = nullptr;

  QueryResult out;
  out.columns = std::move(raw->columns);
  out.tuples = std::move(raw->tuples);
  out.plan_text = algebra::PrintPlan(plan);
  out.measured_ms = raw->measured_ms;
  out.warnings = std::move(raw->warnings);
  out.guard = exec.guard_stats();
  if (options_.profile_execution && node_measures != nullptr) {
    auto profile = std::make_shared<PlanProfile>(
        BuildPlanProfile(plan, *node_measures, raw->measured_ms,
                         exec.scatter_charged_ms(), PlanFingerprint(plan)));
    profiles_.Record(*profile);
    if (options_.critical_path_analysis) {
      // Critical path + ranked what-ifs: segment durations sum to
      // measured_ms exactly, byte-identical across runs (like the
      // profile it derives from).
      const ScatterTimeline& timeline = exec.scatter_timeline();
      auto path = std::make_shared<CriticalPath>(
          BuildCriticalPath(*profile, timeline));
      path->what_ifs = RankWhatIfs(*profile, timeline);
      critpaths_.Record(*path);
      RecordCritpathMetrics(*path, &metrics_);
      HighlightCriticalPath(*path, *profile, trace);
      out.critical_path = std::move(path);
    }
    out.profile = std::move(profile);
  }
  return out;
}

MonitorSnapshot Mediator::MonitorReport(int top_k) const {
  MonitorSnapshot snap;
  snap.now_ms = sim_now_ms_;

  const metrics::RegistrySnapshot m = metrics_.TakeSnapshot();
  auto counter = [&m](const char* name) -> int64_t {
    auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : it->second;
  };
  snap.queries = counter("disco.query.count");
  snap.query_errors = counter("disco.query.errors");
  snap.replans = counter("disco.mediator.replans");
  snap.explain_analyzes = counter("disco.explain_analyze.count");
  snap.submits = counter("disco.exec.submits");
  snap.submit_retries = counter("disco.exec.submit_retries");
  snap.submit_failures = counter("disco.exec.submit_failures");
  snap.breaker_rejections = counter("disco.exec.breaker_rejections");
  snap.drift_events = counter("disco.costmodel.drift_events");
  snap.guard_batches = counter("disco.guard.batches");
  snap.guard_malformed_batches = counter("disco.guard.malformed_batches");
  snap.guard_quarantined_rows = counter("disco.guard.quarantined_rows");
  snap.guard_truncated_streams = counter("disco.guard.truncated_streams");
  snap.lying_opens = counter("disco.breaker.lying_opens");
  snap.retry_max_attempts = options_.fault_tolerance.retry.max_attempts;

  const FederationOptions& fed = options_.fault_tolerance.federation;
  snap.scatter = fed.scatter;
  snap.deadline_ms = fed.deadline_ms;
  snap.hedging = fed.hedge;
  snap.query_retry_budget = options_.fault_tolerance.retry.query_retry_budget;
  snap.scatter_queries = counter("disco.mediator.scatter.queries");
  snap.scatter_submits = counter("disco.mediator.scatter.submits");
  snap.hedges_launched = counter("disco.mediator.hedges.launched");
  snap.hedges_won = counter("disco.mediator.hedges.won");
  snap.hedges_cancelled = counter("disco.mediator.hedges.cancelled");
  snap.deadline_expired_submits =
      counter("disco.mediator.deadline.expired_submits");
  snap.deadline_expired_queries =
      counter("disco.mediator.deadline.expired_queries");
  snap.cancellations = counter("disco.mediator.cancellations");
  snap.retry_budget_exhaustions =
      counter("disco.mediator.retry_budget.exhausted");

  snap.log_size = query_log_.size();
  snap.log_capacity = query_log_.capacity();
  snap.log_dropped = query_log_.dropped();
  snap.log_total = query_log_.total_recorded();

  snap.plan_cache_size = plan_cache_.size();
  snap.plan_cache_capacity = options_.plan_cache_capacity;
  snap.plan_cache_hits = plan_cache_.stats().hits;
  snap.plan_cache_misses = plan_cache_.stats().misses;
  snap.plan_cache_insertions = plan_cache_.stats().insertions;
  snap.plan_cache_invalidations = plan_cache_.stats().invalidations;
  snap.plan_cache_evictions = plan_cache_.stats().evictions;
  snap.cost_memo_entries = cost_memo_.size();
  snap.cost_memo_hits = cost_memo_.hits();
  snap.cost_memo_misses = cost_memo_.misses();
  snap.cost_memo_invalidations = cost_memo_.invalidations();

  // Execution-profile panels: hottest operators and worst cardinality
  // drops, aggregated across every profiled query by plan fingerprint.
  snap.profiled_queries = profiles_.total_queries();
  snap.profiled_plans = profiles_.plan_count();
  auto operator_row = [](const ProfileRegistry::OperatorStat& s) {
    MonitorOperatorRow row;
    row.fingerprint = s.fingerprint;
    row.node_id = s.node_id;
    row.label = s.label;
    row.op = algebra::OpKindToString(s.kind);
    row.execs = s.execs;
    row.cpu_ms = s.cpu_ms;
    row.wait_ms = s.wait_ms;
    row.rows_in = s.rows_in;
    row.rows_out = s.rows_out;
    row.drop_fraction = s.drop_fraction();
    return row;
  };
  const size_t k = top_k > 0 ? static_cast<size_t>(top_k) : 0;
  for (const ProfileRegistry::OperatorStat& s :
       profiles_.HottestOperators(k)) {
    snap.hottest_operators.push_back(operator_row(s));
  }
  for (const ProfileRegistry::OperatorStat& s : profiles_.WorstDrops(k)) {
    snap.worst_drops.push_back(operator_row(s));
  }

  // Critical-path panels: cumulative blame shares and what-if savings,
  // aggregated across every analyzed query.
  snap.critpath_queries = critpaths_.total_queries();
  snap.critpath_plans = critpaths_.plan_count();
  snap.critpath_total_ms = critpaths_.total_ms();
  for (const CriticalPathRegistry::Bottleneck& b :
       critpaths_.TopBottlenecks(k)) {
    MonitorBlameRow row;
    row.subject = b.subject;
    row.kind = b.kind;
    row.ms = b.ms;
    row.segments = b.segments;
    row.queries = b.queries;
    row.share = b.share;
    snap.top_bottlenecks.push_back(std::move(row));
  }
  for (const CriticalPathRegistry::Suggestion& s :
       critpaths_.TopSuggestions(k)) {
    MonitorSuggestionRow row;
    row.description = s.description;
    row.predicted_delta_ms = s.predicted_delta_ms;
    row.queries = s.queries;
    snap.top_suggestions.push_back(std::move(row));
  }

  // Worst drift cells first: highest windowed q-error, breached cells
  // breaking ties ahead of healthy ones (key order breaks the rest, so
  // the ranking is deterministic).
  std::vector<costmodel::DriftMonitor::CellStatus> cells =
      drift_.Cells(sim_now_ms_);
  std::stable_sort(cells.begin(), cells.end(),
                   [](const costmodel::DriftMonitor::CellStatus& a,
                      const costmodel::DriftMonitor::CellStatus& b) {
                     if (a.breached != b.breached) return a.breached;
                     return a.window_q > b.window_q;
                   });
  if (top_k > 0 && cells.size() > static_cast<size_t>(top_k)) {
    cells.resize(top_k);
  }
  for (const costmodel::DriftMonitor::CellStatus& c : cells) {
    MonitorDriftRow row;
    row.source = c.key.source;
    row.op = algebra::OpKindToString(c.key.kind);
    row.scope = costmodel::ScopeToString(c.key.scope);
    row.window_count = c.window_count;
    row.window_q = c.window_q;
    row.baseline_q = c.baseline_frozen ? c.baseline_q : 0;
    row.breached = c.breached;
    snap.worst_cells.push_back(std::move(row));
  }
  const std::vector<costmodel::DriftEvent>& events = drift_.events();
  const size_t first =
      top_k > 0 && events.size() > static_cast<size_t>(top_k)
          ? events.size() - static_cast<size_t>(top_k)
          : 0;
  for (size_t i = first; i < events.size(); ++i) {
    snap.recent_events.push_back(events[i].ToString());
  }

  std::vector<std::string> sources;
  for (const auto& w : wrappers_) sources.push_back(ToLower(w->name()));
  std::sort(sources.begin(), sources.end());
  for (const std::string& source : sources) {
    const SourceHealth h = health_.Health(source);
    MonitorBreakerRow row;
    row.source = source;
    row.state = BreakerStateToString(health_.StateAt(source, sim_now_ms_));
    auto it = breaker_flaps_.find(source);
    if (it != breaker_flaps_.end()) {
      row.transitions = it->second.transitions;
      row.opens = it->second.opens;
    }
    row.rejected_submits = h.rejected_submits;
    row.failures = h.total_failures;
    row.successes = h.total_successes;
    row.probe_failures = h.consecutive_probe_failures;
    row.effective_cooldown_ms = health_.EffectiveCooldownMs(source);
    row.malformed_batches = h.malformed_batches;
    row.quarantined_rows = h.quarantined_rows;
    row.lying = h.lying;
    snap.breakers.push_back(std::move(row));
  }
  return snap;
}

}  // namespace mediator
}  // namespace disco
