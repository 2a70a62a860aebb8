#include "mediator/exec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "algebra/plan_printer.h"
#include "common/str_util.h"

namespace disco {
namespace mediator {

namespace {

using algebra::OpKind;
using algebra::Operator;
using sources::Rel;
using storage::Tuple;

double Log2N(size_t n) {
  return std::log2(static_cast<double>(std::max<size_t>(n, 2)));
}

bool TupleLess(const Tuple& a, const Tuple& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    Result<int> c = a[i].Compare(b[i]);
    if (!c.ok()) continue;
    if (*c != 0) return *c < 0;
  }
  return a.size() < b.size();
}

/// Approximate wire size of a tuple in bytes.
int64_t TupleWireBytes(const Tuple& t) {
  int64_t bytes = 0;
  for (const Value& v : t) {
    switch (v.type()) {
      case ValueType::kNull:
        bytes += 1;
        break;
      case ValueType::kBool:
        bytes += 2;
        break;
      case ValueType::kInt64:
      case ValueType::kDouble:
        bytes += 9;
        break;
      case ValueType::kString:
        bytes += 5 + static_cast<int64_t>(v.AsString().size());
        break;
    }
  }
  return bytes;
}

}  // namespace

std::string ExecWarning::ToString() const {
  std::string out = "source '" + source + "': " + message;
  if (attempts > 0) {
    out += StringPrintf(" (%d attempt%s)", attempts, attempts == 1 ? "" : "s");
  }
  if (!breaker.empty()) {
    out += " [breaker " + breaker + "]";
  }
  return out;
}

Result<ExecResult> MediatorExecutor::Execute(const Operator& plan) {
  elapsed_ms_ = 0;
  cpu_ms_ = 0;
  wait_ms_ = 0;
  scatter_charged_ms_ = 0;
  scatter_timeline_ = ScatterTimeline{};
  rows_emitted_ = 0;
  subqueries_.clear();
  warnings_.clear();
  failed_sources_.clear();
  guard_stats_ = GuardStats{};
  precomputed_.clear();
  retries_used_ = 0;
  precomputed_bonus_ms_ = 0;
  precomputed_concurrent_ = false;
  trace_lane_base_ = 0;
  bind_probe_lane_seq_ = 0;
  // Re-seed so repeated executions of the same plan are bit-identical.
  rng_ = Rng(exec_options_.jitter_seed);
  DISCO_RETURN_NOT_OK(plan.CheckWellFormed());

  // Scatter phase: when the federation layer is active, every
  // statically-known submit runs (conceptually) concurrently here, and
  // Eval below consumes the gathered outcomes instead of re-submitting.
  if (exec_options_.federation.active()) ScatterGather(plan);

  Result<Rel> eval = Eval(plan);
  precomputed_.clear();  // drop outcomes an aborted eval never consumed
  DISCO_RETURN_NOT_OK(eval.status());
  Rel rel = std::move(*eval);

  ExecResult out;
  out.columns = std::move(rel.columns);
  out.tuples = std::move(rel.tuples);
  out.measured_ms = elapsed_ms_;
  out.subqueries = std::move(subqueries_);
  out.warnings = std::move(warnings_);
  return out;
}

Result<wrapper::Wrapper*> MediatorExecutor::WrapperFor(
    const std::string& source) const {
  auto wit = wrappers_.find(ToLower(source));
  if (wit == wrappers_.end()) {
    for (const auto& [name, w] : wrappers_) {
      if (EqualsIgnoreCase(name, source)) return w;
    }
    return Status::NotFound("no registered wrapper named '" + source + "'");
  }
  return wit->second;
}

void MediatorExecutor::NoteFailedSource(const std::string& source_lower) {
  for (const std::string& s : failed_sources_) {
    if (s == source_lower) return;
  }
  failed_sources_.push_back(source_lower);
}

void MediatorExecutor::AddWarning(ExecWarning warning) {
  BumpCounter("disco.exec.warnings");
  warnings_.push_back(std::move(warning));
}

std::string MediatorExecutor::BreakerStateNow(
    const std::string& source_lower) const {
  if (health_ == nullptr) return "";
  return BreakerStateToString(health_->StateAt(source_lower, Now()));
}

void MediatorExecutor::BumpCounter(const char* name, int64_t delta) {
  if (metrics_ != nullptr) metrics_->counter(name)->Increment(delta);
}

// ---- the submit engine ----------------------------------------------------
//
// One attempt loop (RunAttempts), one health replay (ReplayHealth), one
// counter/budget reconciliation (Reconcile) and one commit step
// (CommitAnswer), shared by the serial submit, the scatter phase, its
// hedges and the bind-join probe waves. What differs between them is the
// lane the loop runs on.

namespace {

/// One breaker-relevant outcome a concurrent lane observed, replayed into
/// the shared registry in global timestamp order.
struct HealthEvent {
  /// kGate replays an AllowSubmit (admitted or rejected): the shared
  /// registry must take the same half-open probe admissions as the
  /// lane's private copy, or probe bookkeeping (single-probe gating,
  /// flap-damped cooldowns) would drift between them.
  enum Kind { kGate, kSuccess, kFailure, kMalformed, kWellFormed };
  Kind kind = kSuccess;
  double at_ms = 0;  ///< on the lane clock
  int64_t rows = 0;  ///< kMalformed: rows the guard quarantined
};

/// Applies `ev` to `registry` at `at_abs_ms`. Returns the gate's verdict
/// for kGate, true otherwise.
bool ApplyHealthEvent(SourceHealthRegistry* registry, const std::string& key,
                      const HealthEvent& ev, double at_abs_ms) {
  switch (ev.kind) {
    case HealthEvent::kGate:
      return registry->AllowSubmit(key, at_abs_ms);
    case HealthEvent::kSuccess:
      registry->RecordSuccess(key, at_abs_ms);
      break;
    case HealthEvent::kFailure:
      registry->RecordFailure(key, at_abs_ms);
      break;
    case HealthEvent::kMalformed:
      registry->RecordMalformed(key, at_abs_ms, ev.rows);
      break;
    case HealthEvent::kWellFormed:
      registry->RecordWellFormed(key, at_abs_ms);
      break;
  }
  return true;
}

}  // namespace

struct MediatorExecutor::SubmitOutcome {
  std::string key;                ///< lower-cased source the attempts went to
  Status status;
  sources::ExecutionResult exec;  ///< valid when status is ok
  int64_t bytes = 0;              ///< wire size of the answer
  double start_ms = 0;            ///< lane clock
  double end_ms = 0;
  int attempts = 0;
  int retries = 0;  ///< retries scheduled = retry-budget units spent
  int rejections = 0;
  bool budget_exhausted = false;
  /// Genuine source-availability exhaustion (replan/breaker relevant);
  /// false for hard errors, which retrying cannot help.
  bool availability_failure = false;
  GuardReport guard;           ///< result-guard findings on `exec`
  bool guard_checked = false;  ///< the guard ran on this answer
  /// The lane's breaker state when the answer was validated (after the
  /// success, before the guard verdict) -- the one read behind this
  /// answer's quarantine warning. "" without a registry.
  std::string breaker;
  std::vector<ExecWarning> recoveries;  ///< "recovered after ..." warnings
  ExecWarning failure;                  ///< filled when status is not ok
  std::vector<HealthEvent> events;      ///< concurrent lanes: replay log
};

/// The serial lane is the executor itself: its clock (every step charged
/// with ChargeWait, so measured_ms, breaker timestamps and trace instants
/// see the same additions step by step), the shared registry, the
/// executor's RNG and budget, and live trace instants. A concurrent lane
/// (scatter group, hedge group, probe-wave lane) runs on a relative
/// clock against a private registry and a seeded RNG stream, and logs
/// its health events for ReplayHealth.
struct MediatorExecutor::Lane {
  /// Serial lane: the executor each step is also charged to. Null on a
  /// concurrent lane.
  MediatorExecutor* serial = nullptr;
  SourceHealthRegistry* health = nullptr;  ///< breaker gate; null = none
  std::unique_ptr<SourceHealthRegistry> private_health;
  Rng rng{0};
  double epoch_abs_ms = 0;  ///< lane clock 0 on the mediator's clock
  double clock_ms = 0;
  int budget = std::numeric_limits<int>::max();  ///< retry units left

  double now_abs_ms() const { return epoch_abs_ms + clock_ms; }
  void Advance(double ms) {
    clock_ms += ms;
    if (serial != nullptr) serial->ChargeWait(ms);
  }
  std::string BreakerState(const std::string& key) const {
    return health == nullptr
               ? std::string()
               : BreakerStateToString(health->StateAt(key, now_abs_ms()));
  }
  /// Feeds one health event to the lane's registry and, on a concurrent
  /// lane, logs it for the replay. Returns the gate's verdict for kGate.
  bool Note(SubmitOutcome* o, HealthEvent::Kind kind, int64_t rows = 0) {
    if (health == nullptr) return true;
    const HealthEvent ev{kind, clock_ms, rows};
    if (serial == nullptr) o->events.push_back(ev);
    return ApplyHealthEvent(health, o->key, ev, now_abs_ms());
  }
};

struct MediatorExecutor::Tally {
  int64_t submits = 0;
  int64_t attempts = 0;
  int64_t retries = 0;  ///< the disco.exec.submit_retries increment
  int64_t rejections = 0;
  int64_t exhausted = 0;
  int budget_units = 0;

  void Add(const SubmitOutcome& o) {
    attempts += o.attempts;
    retries += o.retries;
    rejections += o.rejections;
    if (o.budget_exhausted) ++exhausted;
    budget_units += o.retries;
  }
};

int MediatorExecutor::RetryBudgetLeft() const {
  const int budget = exec_options_.retry.query_retry_budget;
  return budget > 0 ? std::max(0, budget - retries_used_)
                    : std::numeric_limits<int>::max();
}

MediatorExecutor::Lane MediatorExecutor::ConcurrentLane(
    const std::string& key, uint64_t stream, double epoch_abs_ms,
    int budget) const {
  Lane lane;
  lane.rng = Rng(exec_options_.jitter_seed ^ stream);
  lane.epoch_abs_ms = epoch_abs_ms;
  lane.budget = budget;
  if (health_ != nullptr) {
    lane.private_health =
        std::make_unique<SourceHealthRegistry>(health_->options());
    lane.private_health->Adopt(key, health_->Health(key));
    lane.health = lane.private_health.get();
  }
  return lane;
}

MediatorExecutor::SubmitOutcome MediatorExecutor::RunAttempts(
    Lane* lane, wrapper::Wrapper* w, const std::string& source,
    const std::string& key, const Operator& subplan, int max_attempts) {
  const RetryPolicy& retry = exec_options_.retry;
  // The serial lane marks its steps on the trace as they happen;
  // concurrent lanes are drawn as spans when they are gathered.
  tracing::Trace* live = lane->serial != nullptr ? trace_ : nullptr;
  SubmitOutcome o;
  o.key = key;
  o.start_ms = lane->clock_ms;
  Status last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (!lane->Note(&o, HealthEvent::kGate)) {
      ++o.rejections;
      if (live != nullptr) {
        live->Instant("breaker rejected submit @" + key, "breaker");
      }
      if (last.ok()) {
        last = Status::Unavailable("source '" + source +
                                   "': circuit breaker open");
      }
      break;  // the breaker tripped: further retries are pointless
    }
    o.attempts = attempt;
    Result<sources::ExecutionResult> result = w->Execute(subplan);
    if (!result.ok() && !result.status().IsUnavailable() &&
        !result.status().IsExecutionError()) {
      // Not a source-availability failure (e.g. a malformed subplan):
      // retrying cannot help and the breaker must not trip.
      o.status = result.status().WithContext("source '" + source + "'");
      o.end_ms = lane->clock_ms;
      o.failure = ExecWarning{key, o.status.message(), attempt, ""};
      return o;
    }
    const bool timed_out = result.ok() && retry.attempt_timeout_ms > 0 &&
                           result->total_ms > retry.attempt_timeout_ms;
    if (result.ok() && !timed_out) {
      // Communication: one round trip plus shipping the subanswer.
      for (const Tuple& t : result->tuples) o.bytes += TupleWireBytes(t);
      lane->Advance(result->total_ms + params_.ms_msg_latency +
                    params_.ms_per_net_byte * static_cast<double>(o.bytes));
      lane->Note(&o, HealthEvent::kSuccess);
      // Result guard: validate the subanswer against the catalog shape
      // *after* paying to ship it (corrupted bytes still crossed the
      // wire), quarantining malformed rows before anything downstream
      // sees them.
      if (exec_options_.guard_responses) {
        GuardExpectation expect;
        if (catalog_ != nullptr) {
          expect = MakeGuardExpectation(subplan, *catalog_);
        }
        o.guard = ValidateSubanswer(expect, &*result);
        o.guard_checked = true;
      }
      o.breaker = lane->BreakerState(key);
      o.exec = std::move(*result);
      o.end_ms = lane->clock_ms;
      // The serial lane keeps every answer, so it commits here, before
      // the guard verdict reaches the breaker: the quarantine instant
      // then precedes any lying-source transition it causes (its
      // recovery warning follows in SubmitToSource). Concurrent lanes
      // commit when they are gathered.
      if (lane->serial != nullptr) {
        CommitAnswer(o, source, subplan, attempt, o.end_ms - o.start_ms, {},
                     nullptr);
      }
      // Persistent malformation reaches the breaker as a lying-source
      // signal.
      if (o.guard_checked) {
        lane->Note(&o,
                   o.guard.any() ? HealthEvent::kMalformed
                                 : HealthEvent::kWellFormed,
                   o.guard.rows_quarantined);
      }
      // A recovery reports the breaker as the guard verdict left it.
      if (attempt > 1) {
        o.recoveries.push_back(ExecWarning{
            key,
            StringPrintf("recovered after %d failed attempt%s", attempt - 1,
                         attempt == 2 ? "" : "s"),
            attempt, lane->BreakerState(key)});
      }
      return o;
    }
    // Failed attempt: a timeout charges the budget it burned; an error
    // charges the round trip that discovered it.
    if (timed_out) {
      lane->Advance(params_.ms_msg_latency + retry.attempt_timeout_ms);
      last = Status::Unavailable(StringPrintf(
          "source '%s': attempt timed out (%.1f ms > %.1f ms budget)",
          source.c_str(), result->total_ms, retry.attempt_timeout_ms));
    } else {
      lane->Advance(params_.ms_msg_latency);
      last = result.status().WithContext("source '" + source + "'");
    }
    lane->Note(&o, HealthEvent::kFailure);
    if (live != nullptr) {
      int mark = live->Instant(
          timed_out ? "attempt timed out" : "attempt failed", "submit");
      live->AddArg(mark, "attempt", int64_t{attempt});
    }
    if (attempt < max_attempts) {
      // The per-query retry budget is shared across every submit (and
      // hedge) of this execution: once spent, no source gets another
      // attempt, so a multi-source flap cannot multiply into a storm.
      if (retry.query_retry_budget > 0 && lane->budget <= 0) {
        o.budget_exhausted = true;
        last = Status::Unavailable(last.message() +
                                   " (query retry budget exhausted)");
        break;
      }
      --lane->budget;
      ++o.retries;
      lane->Advance(retry.BackoffMs(attempt, &lane->rng));
    }
  }

  o.availability_failure = true;
  std::string msg = last.message();
  if (o.attempts > 1) {
    msg += StringPrintf(" (gave up after %d attempts)", o.attempts);
  }
  o.status = Status::Unavailable(msg);
  o.end_ms = lane->clock_ms;
  o.failure = ExecWarning{key, msg, o.attempts, lane->BreakerState(key)};
  return o;
}

void MediatorExecutor::CommitAnswer(const SubmitOutcome& o,
                                    const std::string& record_source,
                                    const Operator& subplan, int attempts,
                                    double response_ms,
                                    std::vector<ExecWarning> notes,
                                    std::vector<ExecWarning>* sink) {
  auto emit = [&](ExecWarning w) {
    if (sink != nullptr) {
      sink->push_back(std::move(w));
    } else {
      AddWarning(std::move(w));
    }
  };
  // Only a kept answer's guard report counts: a quarantine on a
  // discarded hedge loser never reached the query (its breaker effects
  // still replay).
  if (o.guard_checked) {
    const GuardReport& report = o.guard;
    guard_stats_.Absorb(report);
    BumpCounter("disco.guard.batches");
    if (report.any()) {
      BumpCounter("disco.guard.malformed_batches");
      if (report.rows_quarantined > 0) {
        BumpCounter("disco.guard.quarantined_rows", report.rows_quarantined);
      }
      if (report.truncated) BumpCounter("disco.guard.truncated_streams");
      if (trace_ != nullptr) {
        trace_->Instant("result guard quarantine @" + o.key, "guard");
      }
      emit(ExecWarning{o.key, report.Message(), attempts, o.breaker});
    }
  }

  SubqueryRecord record;
  record.source = record_source;
  record.subplan = subplan.Clone();
  record.source_ms = o.exec.total_ms;
  record.attempts = attempts;
  const auto n = static_cast<double>(o.exec.tuples.size());
  const auto bytes = static_cast<double>(o.bytes);
  record.measured = costmodel::CostVector::Full(
      n, bytes, n > 0 ? bytes / n : 0, o.exec.first_tuple_ms,
      n > 1 ? (o.exec.total_ms - o.exec.first_tuple_ms) / (n - 1) : 0,
      o.exec.total_ms);
  subqueries_.push_back(std::move(record));

  if (metrics_ != nullptr) {
    metrics_->histogram("disco.submit.ms")->Record(response_ms);
    metrics_->histogram("disco.submit.rows")->Record(n);
  }
  // The answering source's own latency feeds the hedge thresholds.
  if (profile_ != nullptr) profile_->Observe(o.key, o.end_ms - o.start_ms);
  for (ExecWarning& w : notes) emit(std::move(w));
}

void MediatorExecutor::ReplayHealth(
    const std::vector<std::pair<const SubmitOutcome*, double>>& logs,
    double epoch_abs_ms) {
  if (health_ == nullptr) return;
  struct Replay {
    const HealthEvent* ev;
    const std::string* key;
  };
  std::vector<Replay> replays;
  for (const auto& [o, cut] : logs) {
    for (const HealthEvent& ev : o->events) {
      if (ev.at_ms <= cut) replays.push_back({&ev, &o->key});
    }
  }
  std::stable_sort(replays.begin(), replays.end(),
                   [](const Replay& a, const Replay& b) {
                     return a.ev->at_ms < b.ev->at_ms;
                   });
  for (const Replay& r : replays) {
    ApplyHealthEvent(health_, *r.key, *r.ev, epoch_abs_ms + r.ev->at_ms);
  }
}

void MediatorExecutor::Reconcile(const Tally& tally) {
  retries_used_ += tally.budget_units;
  BumpCounter("disco.exec.submits", tally.submits);
  BumpCounter("disco.exec.submit_attempts", tally.attempts);
  if (tally.retries > 0) {
    BumpCounter("disco.exec.submit_retries", tally.retries);
  }
  if (tally.rejections > 0) {
    BumpCounter("disco.exec.breaker_rejections", tally.rejections);
  }
  if (tally.exhausted > 0) {
    BumpCounter("disco.mediator.retry_budget.exhausted", tally.exhausted);
  }
}

Result<sources::ExecutionResult> MediatorExecutor::SubmitToSource(
    const std::string& source, const Operator& subplan) {
  DISCO_ASSIGN_OR_RETURN(wrapper::Wrapper * w, WrapperFor(source));
  const std::string key = ToLower(source);

  tracing::ScopedSpan span(trace_, "submit @" + key, "submit");
  const std::string breaker_before = BreakerStateNow(key);
  if (!breaker_before.empty()) span.Arg("breaker_before", breaker_before);

  Lane lane;
  lane.serial = this;
  lane.health = health_;
  lane.rng = rng_;
  lane.epoch_abs_ms = base_now_ms_;
  lane.clock_ms = elapsed_ms_;
  lane.budget = RetryBudgetLeft();
  SubmitOutcome o = RunAttempts(&lane, w, source, key, subplan, MaxAttempts());
  rng_ = lane.rng;

  Tally tally;
  tally.Add(o);
  tally.submits = 1;
  // The serial lane counts the retries that ran; concurrent lanes count
  // the retries they scheduled, one the breaker then rejected included.
  tally.retries = std::max(0, o.attempts - 1);
  Reconcile(tally);
  for (ExecWarning& w : o.recoveries) AddWarning(std::move(w));

  if (!o.status.ok() && !o.availability_failure) {
    span.Arg("outcome", "error");
    return o.status;
  }
  last_submit_attempts_ = o.attempts;
  span.Arg("attempts", int64_t{o.attempts});
  if (o.status.ok()) {
    span.Arg("rows", static_cast<int64_t>(o.exec.tuples.size()));
    span.Arg("source_ms", o.exec.total_ms);
    span.Arg("outcome", "ok");
  } else {
    BumpCounter("disco.exec.submit_failures");
    NoteFailedSource(key);
    last_failure_ = o.failure;
    span.Arg("outcome", "unavailable");
  }
  const std::string breaker_after = BreakerStateNow(key);
  if (!breaker_after.empty() && breaker_after != breaker_before) {
    span.Arg("breaker_after", breaker_after);
  }
  if (!o.status.ok()) return o.status;
  return std::move(o.exec);
}

Result<Rel> MediatorExecutor::EvalBindJoin(const Operator& op) {
  // Fail fast on an unknown wrapper before evaluating the outer side.
  DISCO_ASSIGN_OR_RETURN(wrapper::Wrapper * w, WrapperFor(op.source));
  if (catalog_ == nullptr) {
    return Status::ExecutionError(
        "bind join needs a catalog for the probed collection's schema");
  }
  DISCO_ASSIGN_OR_RETURN(CatalogEntry entry,
                         catalog_->Collection(op.collection));

  DISCO_ASSIGN_OR_RETURN(Rel left, Eval(op.child(0)));
  DISCO_ASSIGN_OR_RETURN(int lcol,
                         left.ColumnIndex(op.join_pred->left_attribute));

  Rel out;
  out.columns = left.columns;
  for (const AttributeDef& a : entry.schema.attributes()) {
    out.columns.push_back(a.name);
  }

  // Deduplicate outer keys up front on *typed* Value equality -- the
  // string rendering would alias or miss numerically equal keys that
  // render differently (1 vs 1.0). One cache-lookup comparison is
  // charged per outer tuple.
  std::vector<Value> keys;                       // first-appearance order
  std::vector<size_t> key_of(left.tuples.size());
  {
    struct KeyHash {
      size_t operator()(const Value& v) const { return v.Hash(); }
    };
    struct KeyEq {
      bool operator()(const Value& a, const Value& b) const { return a == b; }
    };
    std::unordered_map<Value, size_t, KeyHash, KeyEq> index;
    ChargeCpu(static_cast<double>(left.tuples.size()) * params_.ms_med_cmp);
    for (size_t i = 0; i < left.tuples.size(); ++i) {
      const Value& key = left.tuples[i][static_cast<size_t>(lcol)];
      auto [it, inserted] = index.emplace(key, keys.size());
      if (inserted) keys.push_back(key);
      key_of[i] = it->second;
    }
  }
  const int64_t cache_hits = static_cast<int64_t>(left.tuples.size()) -
                             static_cast<int64_t>(keys.size());

  // Per-key probe answers, indexed like `keys`.
  std::vector<std::vector<Tuple>> answers(keys.size());
  const FederationOptions& fed = exec_options_.federation;
  int64_t probes = 0, batches = 0;

  if (fed.bind_batch_size <= 1 && fed.bind_parallelism <= 1) {
    // Original serial path, kept byte-identical at the default knobs:
    // one equality probe per distinct key, in first-appearance order.
    for (size_t k = 0; k < keys.size(); ++k) {
      std::unique_ptr<Operator> probe = algebra::Select(
          algebra::Scan(op.collection), op.join_pred->right_attribute,
          algebra::CmpOp::kEq, keys[k]);
      // Probe failures abort the query even under allow_partial: a
      // missing probe answer would silently change the join result.
      DISCO_ASSIGN_OR_RETURN(sources::ExecutionResult result,
                             SubmitToSource(op.source, *probe));
      answers[k] = std::move(result.tuples);
      ++probes;
      ++batches;
    }
  } else {
    DISCO_RETURN_NOT_OK(
        RunBindProbeWaves(op, w, keys, &answers, &probes, &batches));
  }

  // Merge in outer-tuple order; cache-hit rows pay the same per-row
  // merge comparison as freshly probed rows.
  int64_t emitted = 0;
  for (size_t i = 0; i < left.tuples.size(); ++i) {
    const Tuple& lt = left.tuples[i];
    for (const Tuple& rt : answers[key_of[i]]) {
      Tuple joined = lt;
      joined.insert(joined.end(), rt.begin(), rt.end());
      out.tuples.push_back(std::move(joined));
      ++emitted;
    }
  }
  ChargeCpu(static_cast<double>(emitted) * params_.ms_med_cmp);

  if (probes > 0) BumpCounter("disco.exec.bindjoin.probes", probes);
  if (batches > 0) BumpCounter("disco.exec.bindjoin.batches", batches);
  if (cache_hits > 0) {
    BumpCounter("disco.exec.bindjoin.cache_hits", cache_hits);
  }

  // The wave path charged its probes max-not-sum, like the scatter
  // phase: mark this node concurrent (with no extra bonus time -- the
  // waves already charged the clock inside this node's span) so the
  // profiler keeps its self-wait out of the serial wait total.
  if ((fed.bind_batch_size > 1 || fed.bind_parallelism > 1) &&
      !keys.empty()) {
    precomputed_bonus_ms_ = 0;
    precomputed_concurrent_ = true;
  }
  return out;
}

Result<Rel> MediatorExecutor::EvalSubmit(const Operator& op) {
  // Scatter-gather: this submit already ran during the scatter phase --
  // surface its gathered outcome (time was charged max-not-sum there,
  // so nothing is charged here).
  auto pre = precomputed_.find(&op);
  if (pre != precomputed_.end()) {
    PrecomputedSubmit pc = std::move(pre->second);
    precomputed_.erase(pre);
    for (ExecWarning& w : pc.warnings) AddWarning(std::move(w));
    last_submit_attempts_ = pc.attempts;
    precomputed_bonus_ms_ = pc.duration_ms;
    precomputed_concurrent_ = true;
    if (node_measures_ != nullptr) {
      NodeMeasure& m = (*node_measures_)[&op];
      m.attempts = pc.attempts;
      m.source_ms = pc.source_ms;
      m.first_row_ms = pc.first_tuple_ms;
    }
    if (!pc.status.ok()) {
      if (pc.note_failed_source) NoteFailedSource(pc.failure.source);
      last_failure_ = std::move(pc.failure);
      return pc.status;
    }
    return std::move(pc.rel);
  }

  Result<sources::ExecutionResult> result =
      SubmitToSource(op.source, op.child(0));
  if (node_measures_ != nullptr) {
    NodeMeasure& m = (*node_measures_)[&op];
    m.attempts = last_submit_attempts_;
    if (result.ok()) {
      m.source_ms = result->total_ms;
      m.first_row_ms = result->first_tuple_ms;
    }
  }
  DISCO_RETURN_NOT_OK(result.status());
  Rel rel;
  rel.columns = std::move(result->columns);
  rel.tuples = std::move(result->tuples);
  return rel;
}

Result<Rel> MediatorExecutor::Eval(const Operator& op) {
  // Instrumentation wrapper: one span per plan node, plus the node's
  // measured inclusive time and output cardinality.
  if (trace_ == nullptr && node_measures_ == nullptr &&
      metrics_ == nullptr) {
    return EvalNode(op);
  }
  const double start_ms = elapsed_ms_;
  const double start_cpu_ms = cpu_ms_;
  const double start_wait_ms = wait_ms_;
  tracing::ScopedSpan span(trace_, algebra::NodeLabel(op), "plan");
  Result<Rel> result = EvalNode(op);
  if (result.ok()) {
    span.Arg("rows", static_cast<int64_t>(result->tuples.size()));
  } else {
    span.Arg("outcome", "failed");
  }
  if (metrics_ != nullptr) {
    const std::string family = std::string("disco.exec.operator.") +
                               algebra::OpKindToString(op.kind);
    metrics_->counter(family + ".evals")->Increment();
    if (result.ok()) {
      metrics_->histogram(family + ".rows")
          ->Record(static_cast<double>(result->tuples.size()));
    }
  }
  if (node_measures_ != nullptr) {
    NodeMeasure& m = (*node_measures_)[&op];
    // A precomputed submit charged nothing during eval; its scatter-phase
    // response time is folded back in so EXPLAIN ANALYZE stays honest.
    m.inclusive_ms = elapsed_ms_ - start_ms + precomputed_bonus_ms_;
    m.cpu_ms = cpu_ms_ - start_cpu_ms;
    m.wait_ms = wait_ms_ - start_wait_ms;
    m.scatter_wait_ms = precomputed_bonus_ms_;
    m.concurrent = precomputed_concurrent_;
    m.ok = result.ok();
    m.rows = result.ok() ? static_cast<int64_t>(result->tuples.size()) : -1;
  }
  if (trace_ != nullptr) {
    // Counter-event tracks: cumulative CPU/wait split and rows produced,
    // sampled at every node completion (Perfetto renders "C" events as
    // counter tracks alongside the span lanes).
    trace_->CounterEvent("disco.exec.cpu_ms", cpu_ms_);
    trace_->CounterEvent("disco.exec.wait_ms", wait_ms_);
    if (result.ok()) {
      rows_emitted_ += static_cast<int64_t>(result->tuples.size());
      trace_->CounterEvent("disco.exec.rows",
                           static_cast<double>(rows_emitted_));
    }
  }
  precomputed_bonus_ms_ = 0;
  precomputed_concurrent_ = false;
  return result;
}

Result<Rel> MediatorExecutor::EvalNode(const Operator& op) {
  switch (op.kind) {
    case OpKind::kSubmit:
      return EvalSubmit(op);

    case OpKind::kBindJoin:
      return EvalBindJoin(op);

    case OpKind::kScan:
      return Status::ExecutionError(
          "scan(" + op.collection +
          ") reached the mediator executor outside a submit");

    case OpKind::kSelect: {
      DISCO_ASSIGN_OR_RETURN(Rel rel, Eval(op.child(0)));
      DISCO_ASSIGN_OR_RETURN(int col,
                             rel.ColumnIndex(op.select_pred->attribute));
      ChargeCpu(static_cast<double>(rel.tuples.size()) * params_.ms_med_cmp);
      Rel out;
      out.columns = rel.columns;
      for (Tuple& t : rel.tuples) {
        DISCO_ASSIGN_OR_RETURN(
            bool keep, algebra::EvalPredicate(t[static_cast<size_t>(col)],
                                              *op.select_pred));
        if (keep) out.tuples.push_back(std::move(t));
      }
      return out;
    }

    case OpKind::kProject: {
      DISCO_ASSIGN_OR_RETURN(Rel rel, Eval(op.child(0)));
      std::vector<int> cols;
      for (const std::string& a : op.project_attrs) {
        DISCO_ASSIGN_OR_RETURN(int c, rel.ColumnIndex(a));
        cols.push_back(c);
      }
      ChargeCpu(static_cast<double>(rel.tuples.size()) * params_.ms_med_cmp);
      Rel out;
      out.columns = op.project_attrs;
      for (const Tuple& t : rel.tuples) {
        Tuple nt;
        for (int c : cols) nt.push_back(t[static_cast<size_t>(c)]);
        out.tuples.push_back(std::move(nt));
      }
      return out;
    }

    case OpKind::kSort: {
      DISCO_ASSIGN_OR_RETURN(Rel rel, Eval(op.child(0)));
      DISCO_ASSIGN_OR_RETURN(int col, rel.ColumnIndex(op.sort_attr));
      ChargeCpu(static_cast<double>(rel.tuples.size()) *
                Log2N(rel.tuples.size()) * params_.ms_med_cmp);
      Status status = Status::OK();
      std::stable_sort(rel.tuples.begin(), rel.tuples.end(),
                       [&](const Tuple& a, const Tuple& b) {
                         Result<int> c = a[static_cast<size_t>(col)].Compare(
                             b[static_cast<size_t>(col)]);
                         if (!c.ok()) {
                           if (status.ok()) status = c.status();
                           return false;
                         }
                         return op.sort_ascending ? *c < 0 : *c > 0;
                       });
      DISCO_RETURN_NOT_OK(status);
      return rel;
    }

    case OpKind::kDedup: {
      DISCO_ASSIGN_OR_RETURN(Rel rel, Eval(op.child(0)));
      ChargeCpu(static_cast<double>(rel.tuples.size()) *
                Log2N(rel.tuples.size()) * params_.ms_med_cmp);
      std::stable_sort(rel.tuples.begin(), rel.tuples.end(), TupleLess);
      Rel out;
      out.columns = rel.columns;
      for (Tuple& t : rel.tuples) {
        if (out.tuples.empty() || !(out.tuples.back() == t)) {
          out.tuples.push_back(std::move(t));
        }
      }
      return out;
    }

    case OpKind::kAggregate: {
      DISCO_ASSIGN_OR_RETURN(Rel rel, Eval(op.child(0)));
      ChargeCpu(static_cast<double>(rel.tuples.size()) * params_.ms_med_cmp);
      int agg_col = -1;
      if (!op.agg_attr.empty()) {
        DISCO_ASSIGN_OR_RETURN(agg_col, rel.ColumnIndex(op.agg_attr));
      }
      std::vector<int> group_cols;
      for (const std::string& g : op.group_by) {
        DISCO_ASSIGN_OR_RETURN(int c, rel.ColumnIndex(g));
        group_cols.push_back(c);
      }
      struct Acc {
        int64_t count = 0;
        double sum = 0;
        std::optional<Value> min, max;
      };
      std::map<std::string, std::pair<Tuple, Acc>> groups;
      for (const Tuple& t : rel.tuples) {
        std::string key;
        Tuple vals;
        for (int c : group_cols) {
          key += t[static_cast<size_t>(c)].ToString();
          key += '\x1f';
          vals.push_back(t[static_cast<size_t>(c)]);
        }
        auto& [gvals, acc] = groups[key];
        gvals = vals;
        ++acc.count;
        if (agg_col >= 0) {
          const Value& v = t[static_cast<size_t>(agg_col)];
          if (v.is_numeric()) acc.sum += v.AsDouble();
          if (!acc.min.has_value()) {
            acc.min = v;
            acc.max = v;
          } else {
            Result<int> lo = v.Compare(*acc.min);
            Result<int> hi = v.Compare(*acc.max);
            if (lo.ok() && *lo < 0) acc.min = v;
            if (hi.ok() && *hi > 0) acc.max = v;
          }
        }
      }
      if (groups.empty() && op.group_by.empty()) {
        groups[""] = {Tuple{}, Acc{}};
      }
      Rel out;
      out.columns = op.group_by;
      std::string agg_name = algebra::AggFuncToString(op.agg_func);
      agg_name +=
          "(" + (op.agg_attr.empty() ? std::string("*") : op.agg_attr) + ")";
      out.columns.push_back(agg_name);
      for (auto& [key, entry] : groups) {
        auto& [vals, acc] = entry;
        Tuple t = vals;
        switch (op.agg_func) {
          case algebra::AggFunc::kCount:
            t.push_back(Value(acc.count));
            break;
          case algebra::AggFunc::kSum:
            t.push_back(Value(acc.sum));
            break;
          case algebra::AggFunc::kAvg:
            t.push_back(Value(
                acc.count > 0 ? acc.sum / static_cast<double>(acc.count)
                              : 0.0));
            break;
          case algebra::AggFunc::kMin:
            t.push_back(acc.min.value_or(Value::Null()));
            break;
          case algebra::AggFunc::kMax:
            t.push_back(acc.max.value_or(Value::Null()));
            break;
        }
        out.tuples.push_back(std::move(t));
      }
      return out;
    }

    case OpKind::kJoin: {
      DISCO_ASSIGN_OR_RETURN(Rel left, Eval(op.child(0)));
      DISCO_ASSIGN_OR_RETURN(Rel right, Eval(op.child(1)));
      DISCO_ASSIGN_OR_RETURN(int lcol,
                             left.ColumnIndex(op.join_pred->left_attribute));
      DISCO_ASSIGN_OR_RETURN(int rcol,
                             right.ColumnIndex(op.join_pred->right_attribute));
      Rel out;
      out.columns = left.columns;
      out.columns.insert(out.columns.end(), right.columns.begin(),
                         right.columns.end());
      // Sort-merge (charging both sorts and the merge).
      ChargeCpu(static_cast<double>(left.tuples.size()) *
                    Log2N(left.tuples.size()) * params_.ms_med_cmp +
                static_cast<double>(right.tuples.size()) *
                    Log2N(right.tuples.size()) * params_.ms_med_cmp);
      auto sort_by = [&](Rel* rel, int col) {
        std::stable_sort(rel->tuples.begin(), rel->tuples.end(),
                         [col](const Tuple& a, const Tuple& b) {
                           Result<int> c = a[static_cast<size_t>(col)].Compare(
                               b[static_cast<size_t>(col)]);
                           return c.ok() && *c < 0;
                         });
      };
      sort_by(&left, lcol);
      sort_by(&right, rcol);
      size_t i = 0, j = 0;
      while (i < left.tuples.size() && j < right.tuples.size()) {
        ChargeCpu(params_.ms_med_cmp);
        DISCO_ASSIGN_OR_RETURN(
            int c, left.tuples[i][static_cast<size_t>(lcol)].Compare(
                       right.tuples[j][static_cast<size_t>(rcol)]));
        if (c < 0) {
          ++i;
        } else if (c > 0) {
          ++j;
        } else {
          for (size_t j2 = j; j2 < right.tuples.size(); ++j2) {
            DISCO_ASSIGN_OR_RETURN(
                int c2, left.tuples[i][static_cast<size_t>(lcol)].Compare(
                            right.tuples[j2][static_cast<size_t>(rcol)]));
            if (c2 != 0) break;
            Tuple joined = left.tuples[i];
            joined.insert(joined.end(), right.tuples[j2].begin(),
                          right.tuples[j2].end());
            out.tuples.push_back(std::move(joined));
          }
          ++i;
        }
      }
      return out;
    }

    case OpKind::kUnion: {
      // Graceful degradation: a union branch is the one place a source
      // failure does not change the semantics of what remains -- the
      // other branch is still a correct (partial) subanswer. Under
      // allow_partial a branch whose source stayed unavailable is
      // dropped with a warning; any other failure aborts as before.
      auto tolerable = [&](const Status& s) {
        return exec_options_.allow_partial && s.IsUnavailable();
      };
      Result<Rel> left = Eval(op.child(0));
      if (!left.ok() && !tolerable(left.status())) return left.status();
      Result<Rel> right = Eval(op.child(1));
      if (!right.ok() && !tolerable(right.status())) return right.status();
      if (!left.ok() && !right.ok()) {
        return left.status();  // nothing to degrade to
      }
      if (!left.ok() || !right.ok()) {
        const Status& dropped =
            left.ok() ? right.status() : left.status();
        AddWarning(ExecWarning{last_failure_.source,
                               "union branch dropped: " + dropped.message(),
                               last_failure_.attempts,
                               last_failure_.breaker,
                               last_failure_.subplan_index});
        return left.ok() ? std::move(*left) : std::move(*right);
      }
      if (left->columns.size() != right->columns.size()) {
        return Status::ExecutionError("union inputs have different arity");
      }
      ChargeCpu(static_cast<double>(right->tuples.size()) *
                params_.ms_med_cmp);
      Rel out = std::move(*left);
      for (Tuple& t : right->tuples) out.tuples.push_back(std::move(t));
      return out;
    }
  }
  return Status::Internal("bad operator kind");
}

Status MediatorExecutor::RunBindProbeWaves(
    const Operator& op, wrapper::Wrapper* w, const std::vector<Value>& keys,
    std::vector<std::vector<Tuple>>* answers, int64_t* probes,
    int64_t* batches) {
  const FederationOptions& fed = exec_options_.federation;
  const double kInf = std::numeric_limits<double>::infinity();
  const int batch_size = std::max(1, fed.bind_batch_size);
  const int parallelism = std::max(1, fed.bind_parallelism);
  const std::string key = ToLower(op.source);
  const std::string& right_attr = op.join_pred->right_attribute;
  // Capability gate: wrappers without in_select get each batch
  // decomposed into per-key equality selects (still one probe lane).
  const bool in_capable = w->ExportCapabilities().in_select;

  // ---- deterministic fixed-size batches over the distinct keys --------
  struct Batch {
    std::vector<size_t> key_slots;  ///< indices into `keys`
    std::vector<std::unique_ptr<Operator>> subplans;  ///< 1 (IN) or per-key
  };
  std::vector<Batch> all;
  for (size_t start = 0; start < keys.size();
       start += static_cast<size_t>(batch_size)) {
    Batch b;
    const size_t end =
        std::min(keys.size(), start + static_cast<size_t>(batch_size));
    for (size_t k = start; k < end; ++k) b.key_slots.push_back(k);
    if (in_capable && b.key_slots.size() > 1) {
      std::vector<Value> vals;
      vals.reserve(b.key_slots.size());
      for (size_t k : b.key_slots) vals.push_back(keys[k]);
      b.subplans.push_back(algebra::SelectIn(algebra::Scan(op.collection),
                                             right_attr, std::move(vals)));
    } else {
      for (size_t k : b.key_slots) {
        b.subplans.push_back(algebra::Select(algebra::Scan(op.collection),
                                             right_attr, algebra::CmpOp::kEq,
                                             keys[k]));
      }
    }
    all.push_back(std::move(b));
  }
  *batches = static_cast<int64_t>(all.size());

  const int lane_base = 1 + trace_lane_base_;
  int lanes_named = 0;

  size_t next = 0;
  while (next < all.size()) {
    // Per-query deadline: a wave never starts past the budget, and one
    // that runs past it aborts the whole bind join (below) -- never a
    // partial join.
    if (fed.deadline_ms > 0 && elapsed_ms_ >= fed.deadline_ms) {
      BumpCounter("disco.exec.bindjoin.deadline_aborts");
      const std::string msg = StringPrintf(
          "query deadline (%.1f ms) expired before bind-join probe wave",
          fed.deadline_ms);
      last_failure_ = ExecWarning{key, msg, 0, BreakerStateNow(key)};
      return Status::Unavailable("source '" + key + "': " + msg);
    }
    // Breaker single-probe rule: a breaker that is not fully closed
    // admits at most one probe per cooldown, so the wave collapses to a
    // single lane instead of racing several admissions at once.
    int width = parallelism;
    if (health_ != nullptr &&
        health_->StateAt(key, Now()) != BreakerState::kClosed) {
      width = 1;
    }
    const size_t wave_begin = next;
    const size_t wave_end =
        std::min(all.size(), wave_begin + static_cast<size_t>(width));
    next = wave_end;

    // ---- run the wave's lanes -----------------------------------------
    // Each batch is one concurrent lane starting at the wave epoch; the
    // wave charges max-not-sum.
    const double wave_start_ms = elapsed_ms_;
    const double wave_trace_ms = trace_ != nullptr ? trace_->now_ms() : 0;
    const double wave_abs_ms = Now();
    struct WaveLane {
      double clock_ms = 0;                  ///< where the lane stopped
      std::vector<SubmitOutcome> outcomes;  ///< one per batch subplan
      int failed = -1;  ///< index of the failing subplan (-1 = none)
    };
    std::vector<WaveLane> lanes(wave_end - wave_begin);
    for (size_t li = 0; li < lanes.size(); ++li) {
      WaveLane& wl = lanes[li];
      const Batch& b = all[wave_begin + li];
      // Probe-lane RNG stream, disjoint from the scatter/hedge streams.
      Lane lane = ConcurrentLane(
          key, 0xC2B2AE3D27D4EB4FULL * (++bind_probe_lane_seq_), wave_abs_ms,
          RetryBudgetLeft());
      for (size_t pi = 0; pi < b.subplans.size(); ++pi) {
        wl.outcomes.push_back(RunAttempts(&lane, w, op.source, key,
                                          *b.subplans[pi], MaxAttempts()));
        if (!wl.outcomes.back().status.ok()) {
          wl.failed = static_cast<int>(pi);
          break;  // the rest of this lane's keys are moot: the join aborts
        }
      }
      wl.clock_ms = lane.clock_ms;
    }

    // ---- resolve the wave: earliest failure clips its siblings --------
    double fatal_rel = kInf;
    int fatal_lane = -1;
    for (size_t li = 0; li < lanes.size(); ++li) {
      if (lanes[li].failed < 0) continue;
      if (lanes[li].clock_ms < fatal_rel) {
        fatal_rel = lanes[li].clock_ms;
        fatal_lane = static_cast<int>(li);
      }
    }
    double span = 0;
    for (const WaveLane& wl : lanes) {
      span = std::max(span, std::min(wl.clock_ms, fatal_rel));
    }
    // Deadline clipping: the wave stops charging at the budget and the
    // join aborts; work past the deadline (answers, health events) is
    // abandoned exactly like an expired scatter submit.
    bool deadline_hit = false;
    double cut = fatal_rel;
    if (fed.deadline_ms > 0 && wave_start_ms + span > fed.deadline_ms) {
      deadline_hit = true;
      span = std::max(0.0, fed.deadline_ms - wave_start_ms);
      cut = span;
    }
    ChargeWait(span);
    scatter_charged_ms_ += span;

    // Shared-registry replay, clipped at the cancellation/deadline cut
    // (the fatal lane's own events all happened), then the shared retry
    // budget and counters (optimistic split, like scatter).
    std::vector<std::pair<const SubmitOutcome*, double>> logs;
    Tally tally;
    for (size_t li = 0; li < lanes.size(); ++li) {
      const double lane_cut =
          !deadline_hit && static_cast<int>(li) == fatal_lane ? kInf : cut;
      for (const SubmitOutcome& o : lanes[li].outcomes) {
        logs.emplace_back(&o, lane_cut);
        tally.Add(o);
        ++tally.submits;
      }
    }
    ReplayHealth(logs, wave_abs_ms);
    Reconcile(tally);
    BumpCounter("disco.exec.bindjoin.waves");

    // ---- commit, lane order --------------------------------------------
    Status fatal_status;
    ExecWarning fatal_warning;
    bool fatal_note = false;
    for (size_t li = 0; li < lanes.size(); ++li) {
      WaveLane& wl = lanes[li];
      const Batch& b = all[wave_begin + li];
      if (trace_ != nullptr && static_cast<int>(li) >= lanes_named) {
        trace_->SetLaneName(lane_base + static_cast<int>(li),
                            "bindjoin @" + key);
        lanes_named = static_cast<int>(li) + 1;
      }
      for (size_t pi = 0; pi < wl.outcomes.size(); ++pi) {
        SubmitOutcome& o = wl.outcomes[pi];
        const bool is_fatal = static_cast<int>(li) == fatal_lane &&
                              static_cast<int>(pi) == wl.failed;
        // A probe is committed only when it finished before the wave's
        // cut; later answers were cancelled/expired with the wave.
        const bool committed = o.status.ok() && o.end_ms <= cut;
        if (trace_ != nullptr) {
          const double shown_end = std::min(o.end_ms, cut);
          int sid = trace_->AddCompleteSpan(
              "probe @" + key, "bindjoin-probe",
              wave_trace_ms + std::min(o.start_ms, shown_end),
              wave_trace_ms + shown_end, lane_base + static_cast<int>(li));
          trace_->AddArg(sid, "batch",
                         static_cast<int64_t>(wave_begin + li));
          trace_->AddArg(sid, "keys",
                         static_cast<int64_t>(b.key_slots.size()));
          trace_->AddArg(sid, "attempts", int64_t{o.attempts});
          const char* outcome =
              committed ? "ok"
                        : is_fatal && !deadline_hit
                              ? (o.availability_failure ? "unavailable"
                                                        : "error")
                              : deadline_hit ? "deadline-expired"
                                             : o.status.ok() ? "cancelled"
                                                             : "unavailable";
          trace_->AddArg(sid, "outcome", outcome);
          if (committed) {
            trace_->AddArg(sid, "rows",
                           static_cast<int64_t>(o.exec.tuples.size()));
          }
        }
        if (committed) {
          CommitAnswer(o, op.source, *b.subplans[pi], o.attempts,
                       o.end_ms - o.start_ms, std::move(o.recoveries),
                       nullptr);
          ++*probes;

          // Distribute the batch answer onto its keys. An IN probe's
          // rows interleave keys, so each row is matched (typed
          // equality) against the batch's key set; a per-key probe maps
          // straight through.
          if (b.subplans.size() == 1 && b.key_slots.size() > 1) {
            Rel shape;
            shape.columns = o.exec.columns;
            DISCO_ASSIGN_OR_RETURN(int pcol, shape.ColumnIndex(right_attr));
            ChargeCpu(static_cast<double>(o.exec.tuples.size()) *
                      params_.ms_med_cmp);
            for (Tuple& t : o.exec.tuples) {
              const Value& v = t[static_cast<size_t>(pcol)];
              for (size_t k : b.key_slots) {
                if (v == keys[k]) {
                  (*answers)[k].push_back(std::move(t));
                  break;
                }
              }
            }
          } else {
            (*answers)[b.key_slots[pi]] = std::move(o.exec.tuples);
          }
        } else if (is_fatal && !deadline_hit) {
          BumpCounter("disco.exec.submit_failures");
          fatal_status = o.status;
          fatal_warning = o.failure;
          fatal_note = o.availability_failure;
        }
      }
    }

    if (deadline_hit) {
      BumpCounter("disco.exec.bindjoin.deadline_aborts");
      const std::string msg = StringPrintf(
          "query deadline (%.1f ms) expired with a bind-join probe wave "
          "in flight",
          fed.deadline_ms);
      last_failure_ = ExecWarning{key, msg, 0, BreakerStateNow(key)};
      return Status::Unavailable("source '" + key + "': " + msg);
    }
    if (fatal_lane >= 0) {
      // Probe failures abort the query even under allow_partial: a
      // missing probe answer would silently change the join result.
      if (fatal_note) NoteFailedSource(key);
      fatal_warning.breaker = BreakerStateNow(key);
      last_failure_ = fatal_warning;
      return fatal_status;
    }
  }
  return Status::OK();
}

void MediatorExecutor::ScatterGather(const Operator& plan) {
  const FederationOptions& fed = exec_options_.federation;
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<ScatterSubmit> submits =
      CollectScatterSubmits(plan, exec_options_.allow_partial);
  if (submits.empty()) return;

  // ---- group submits by wrapper, first-appearance order ---------------
  // Each group is one concurrent lane: submits to the same wrapper stay
  // serial within it (preserving the wrapper's internal call order and
  // fault-injection RNG stream), distinct groups overlap.
  struct Group {
    std::string source;  ///< as written in the plan (for messages)
    std::string key;     ///< lower-cased wrapper key
    wrapper::Wrapper* w = nullptr;
    std::vector<size_t> slots;  ///< indices into submits/outcomes
  };
  std::vector<Group> groups;
  std::map<std::string, size_t> group_index;
  std::vector<int> group_of_slot(submits.size(), -1);
  for (size_t i = 0; i < submits.size(); ++i) {
    Result<wrapper::Wrapper*> w = WrapperFor(submits[i].op->source);
    if (!w.ok()) continue;  // EvalSubmit will surface the NotFound serially
    const std::string key = ToLower(submits[i].op->source);
    auto it = group_index.find(key);
    if (it == group_index.end()) {
      it = group_index.emplace(key, groups.size()).first;
      Group g;
      g.source = submits[i].op->source;
      g.key = key;
      g.w = *w;
      groups.push_back(std::move(g));
    }
    groups[it->second].slots.push_back(i);
    group_of_slot[i] = static_cast<int>(it->second);
  }
  if (groups.empty()) return;

  const double scatter_abs_ms = Now();
  const double trace_start_ms = trace_ != nullptr ? trace_->now_ms() : 0;
  if (trace_ != nullptr) {
    // Name the concurrency lanes so Perfetto renders source groups
    // instead of bare tids (Chrome metadata events, tid = 1 + lane).
    for (size_t g = 0; g < groups.size(); ++g) {
      trace_->SetLaneName(1 + static_cast<int>(g),
                          "scatter @" + groups[g].key);
    }
  }

  // ---- primary lanes ----------------------------------------------------
  // Optimistic budget split: each group sees the budget remaining at
  // scatter start; consumption is reconciled below.
  const int budget_at_start = RetryBudgetLeft();
  std::vector<SubmitOutcome> outcomes(submits.size());
  int phase_a_retries = 0;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& g = groups[gi];
    Lane lane = ConcurrentLane(g.key, 0x9E3779B97F4A7C15ULL * (gi + 1),
                               scatter_abs_ms, budget_at_start);
    for (size_t slot : g.slots) {
      outcomes[slot] = RunAttempts(&lane, g.w, g.source, g.key,
                                   submits[slot].op->child(0), MaxAttempts());
      phase_a_retries += outcomes[slot].retries;
    }
  }

  // ---- hedge decisions (subplan-index order) ----------------------------
  // A primary that ran longer than the adaptive threshold gets a backup
  // submit to a DeclareEquivalent replica; the earlier answer wins and
  // the loser is cancelled. Decisions are taken from the completed
  // primary timeline.
  struct HedgeTask {
    size_t slot = 0;          ///< primary submit slot
    std::string source;       ///< replica source (lower-cased)
    wrapper::Wrapper* w = nullptr;
    std::unique_ptr<algebra::Operator> subplan;
    double nominal_start_rel = 0;  ///< primary start + threshold
    double threshold_ms = 0;
  };
  std::vector<HedgeTask> hedges;
  int hedge_budget = budget_at_start - phase_a_retries;
  if (fed.hedge && profile_ != nullptr && catalog_ != nullptr) {
    for (size_t i = 0; i < submits.size(); ++i) {
      if (group_of_slot[i] < 0) continue;
      const Group& g = groups[static_cast<size_t>(group_of_slot[i])];
      const SubmitOutcome& prim = outcomes[i];
      // Hard errors are about semantics, not latency: never hedge them.
      if (!prim.status.ok() && !prim.availability_failure) continue;
      if (profile_->count(g.key) < fed.hedge_min_samples) continue;
      const double threshold =
          std::max(profile_->QuantileMs(g.key), fed.hedge_min_ms);
      if (threshold <= 0) continue;
      if (prim.end_ms - prim.start_ms <= threshold) continue;
      if (hedge_budget <= 0) {
        BumpCounter("disco.mediator.retry_budget.exhausted");
        continue;  // hedges share the per-query retry budget
      }
      HedgePlan hp = MakeHedgePlan(
          submits[i].op->child(0), *catalog_, g.key,
          [&](const std::string& candidate) {
            if (wrappers_.find(candidate) == wrappers_.end()) return false;
            // Only fully-closed replicas may serve a hedge: a half-open
            // breaker admits exactly one probe per cooldown, and the
            // hedge path cannot coordinate with a concurrent primary
            // group that may be probing the same source.
            return health_ == nullptr ||
                   health_->StateAt(candidate, scatter_abs_ms) ==
                       BreakerState::kClosed;
          });
      if (!hp.viable()) continue;
      --hedge_budget;
      HedgeTask task;
      task.slot = i;
      task.source = hp.source;
      task.w = wrappers_.find(hp.source)->second;
      task.subplan = std::move(hp.subplan);
      task.nominal_start_rel = prim.start_ms + threshold;
      task.threshold_ms = threshold;
      hedges.push_back(std::move(task));
    }
  }

  // ---- hedge lanes: backup submits, one lane per replica wrapper --------
  std::vector<SubmitOutcome> hedge_outcomes(hedges.size());
  std::vector<std::vector<size_t>> hedge_groups;
  std::vector<int> hedge_lane(hedges.size());  ///< trace lane per hedge
  {
    std::map<std::string, size_t> hg_index;
    for (size_t h = 0; h < hedges.size(); ++h) {
      auto it = hg_index.find(hedges[h].source);
      if (it == hg_index.end()) {
        it = hg_index.emplace(hedges[h].source, hedge_groups.size()).first;
        hedge_groups.emplace_back();
      }
      hedge_groups[it->second].push_back(h);
      hedge_lane[h] = 1 + static_cast<int>(groups.size() + it->second);
    }
  }
  for (size_t hg = 0; hg < hedge_groups.size(); ++hg) {
    const std::string& key = hedges[hedge_groups[hg][0]].source;
    if (trace_ != nullptr) {
      trace_->SetLaneName(1 + static_cast<int>(groups.size() + hg),
                          "hedge @" + key);
    }
    // Seed domain offset by the primary group count so hedge jitter
    // never collides with a primary group's stream. Hedges were paid
    // for from the retry budget at launch.
    Lane lane = ConcurrentLane(
        key, 0x9E3779B97F4A7C15ULL * (groups.size() + 1 + hg),
        scatter_abs_ms, std::numeric_limits<int>::max());
    for (size_t h : hedge_groups[hg]) {
      HedgeTask& t = hedges[h];
      lane.clock_ms = std::max(lane.clock_ms, t.nominal_start_rel);
      hedge_outcomes[h] = RunAttempts(&lane, t.w, t.source, t.source,
                                      *t.subplan, /*max_attempts=*/1);
    }
  }

  // Bind-join probe lanes (if the plan has a bind join) render above
  // every scatter and hedge lane this execution used.
  trace_lane_base_ =
      static_cast<int>(groups.size() + hedge_groups.size());

  // ---- gather: combine, clip to the deadline, propagate cancellation --
  std::vector<int> hedge_for_slot(submits.size(), -1);
  for (size_t h = 0; h < hedges.size(); ++h) {
    hedge_for_slot[hedges[h].slot] = static_cast<int>(h);
  }

  /// The per-submit effective outcome after hedging/deadline/cancellation.
  struct Eff {
    bool ran = false;
    Status status;
    SubmitOutcome* answer = nullptr;  ///< whose tuples to keep when ok
    double start_rel = 0, end_rel = 0;
    int attempts = 0;
    double source_ms = 0;
    const algebra::Operator* record_plan = nullptr;  ///< for SubqueryRecord
    std::vector<ExecWarning> warnings;
    ExecWarning failure;
    bool note_failed = false;
    bool expired = false;
    bool cancelled = false;
    bool hedge_won = false;
  };
  std::vector<Eff> eff(submits.size());
  // Replay cutoffs: health events after a submit was cancelled/expired
  // never happened as far as the shared registry is concerned.
  std::vector<double> prim_cut(submits.size(), kInf);
  std::vector<double> hedge_cut(submits.size(), kInf);
  int64_t hedges_won = 0, hedges_cancelled = 0;

  for (size_t i = 0; i < submits.size(); ++i) {
    if (group_of_slot[i] < 0) continue;
    const Group& g = groups[static_cast<size_t>(group_of_slot[i])];
    SubmitOutcome& prim = outcomes[i];
    Eff& e = eff[i];
    e.ran = true;
    e.status = prim.status;
    e.answer = &prim;
    e.start_rel = prim.start_ms;
    e.end_rel = prim.end_ms;
    e.attempts = prim.attempts;
    e.record_plan = &submits[i].op->child(0);
    e.warnings = std::move(prim.recoveries);
    e.failure = prim.failure;
    e.note_failed = prim.availability_failure;
    if (prim.status.ok()) e.source_ms = prim.exec.total_ms;

    const int h = hedge_for_slot[i];
    if (h < 0) continue;
    SubmitOutcome& ho = hedge_outcomes[static_cast<size_t>(h)];
    const HedgeTask& task = hedges[static_cast<size_t>(h)];
    const bool prim_ok = prim.status.ok();
    const bool hedge_ok = ho.status.ok();
    if (prim_ok && (!hedge_ok || prim.end_ms <= ho.end_ms)) {
      // Primary answered first: cancel the hedge if it is still in
      // flight (its late answer -- and health events -- are discarded).
      if (ho.end_ms > prim.end_ms) {
        ++hedges_cancelled;
        hedge_cut[i] = prim.end_ms;
      }
      e.warnings.push_back(ExecWarning{
          g.key,
          StringPrintf("hedged to replica '%s' after %.1f ms; "
                       "primary answered first",
                       task.source.c_str(), task.threshold_ms),
          0, ""});
    } else if (hedge_ok) {
      ++hedges_won;
      if (!prim_ok || prim.end_ms > ho.end_ms) {
        // The slower (or failed) primary is the cancelled loser.
        if (prim_ok) ++hedges_cancelled;
        prim_cut[i] = std::min(prim_cut[i], ho.end_ms);
      }
      e.hedge_won = true;
      e.status = Status::OK();
      e.answer = &ho;
      e.end_rel = ho.end_ms;
      e.attempts = prim.attempts + ho.attempts;
      e.source_ms = ho.exec.total_ms;
      e.record_plan = task.subplan.get();
      e.note_failed = false;
      e.warnings.push_back(ExecWarning{
          g.key,
          StringPrintf("hedged to replica '%s' after %.1f ms; replica "
                       "answered first (%.1f ms vs %.1f ms)",
                       task.source.c_str(), task.threshold_ms,
                       ho.end_ms - prim.start_ms,
                       prim.end_ms - prim.start_ms),
          0, ""});
    } else {
      // Both failed: the submit is over when the later of the two gave
      // up; the primary's failure is the one reported.
      e.end_rel = std::max(prim.end_ms, ho.end_ms);
      e.warnings.push_back(ExecWarning{task.source,
                                       "hedge submit failed: " +
                                           ho.status.message(),
                                       ho.attempts, ""});
    }
  }

  // Deadline pass: submits still unfinished when the per-query budget
  // expires are abandoned. Deadline expiry is the mediator's decision,
  // not the source's fault -- it records no breaker failure and does not
  // make the source replan-eligible.
  int64_t expired_submits = 0;
  if (fed.deadline_ms > 0) {
    for (size_t i = 0; i < submits.size(); ++i) {
      Eff& e = eff[i];
      if (!e.ran || e.end_rel <= fed.deadline_ms) continue;
      ++expired_submits;
      const bool started = e.start_rel < fed.deadline_ms;
      const std::string key =
          groups[static_cast<size_t>(group_of_slot[i])].key;
      const std::string msg = StringPrintf(
          "query deadline (%.1f ms) expired %s", fed.deadline_ms,
          started ? "with the submit in flight"
                  : "before the submit started");
      e.expired = true;
      e.status = Status::Unavailable("source '" + key + "': " + msg);
      e.failure = ExecWarning{key, msg, e.attempts, ""};
      e.answer = nullptr;  // a partial subanswer is discarded, not kept
      e.note_failed = false;
      e.start_rel = std::min(e.start_rel, fed.deadline_ms);
      e.end_rel = fed.deadline_ms;
      prim_cut[i] = std::min(prim_cut[i], fed.deadline_ms);
      hedge_cut[i] = std::min(hedge_cut[i], fed.deadline_ms);
    }
  }

  // Cancellation pass: the earliest non-droppable failure is fatal to
  // the whole query, so every submit still in flight at that moment is
  // cancelled -- no point finishing work the query can never use.
  double fatal_rel = kInf;
  size_t fatal_slot = submits.size();
  for (size_t i = 0; i < submits.size(); ++i) {
    if (!eff[i].ran || eff[i].status.ok()) continue;
    if (submits[i].droppable) continue;
    if (eff[i].end_rel < fatal_rel) {
      fatal_rel = eff[i].end_rel;
      fatal_slot = i;
    }
  }
  int64_t cancellations = 0;
  if (fatal_slot < submits.size()) {
    const std::string& fatal_key =
        groups[static_cast<size_t>(group_of_slot[fatal_slot])].key;
    // Make sure the true culprit reaches failed_sources_ even if eval
    // aborts on a cancelled sibling before consuming the fatal submit.
    if (eff[fatal_slot].note_failed) NoteFailedSource(fatal_key);
    for (size_t i = 0; i < submits.size(); ++i) {
      Eff& e = eff[i];
      if (!e.ran || i == fatal_slot || e.end_rel <= fatal_rel) continue;
      ++cancellations;
      const std::string key =
          groups[static_cast<size_t>(group_of_slot[i])].key;
      const std::string msg = StringPrintf(
          "cancelled at %.1f ms: submit to '%s' failed", fatal_rel,
          fatal_key.c_str());
      e.cancelled = true;
      e.expired = false;
      e.status = Status::Unavailable("source '" + key + "': " + msg);
      e.failure = ExecWarning{key, msg, e.attempts, ""};
      e.answer = nullptr;
      e.note_failed = false;
      e.start_rel = std::min(e.start_rel, fatal_rel);
      e.end_rel = fatal_rel;
      prim_cut[i] = std::min(prim_cut[i], fatal_rel);
      hedge_cut[i] = std::min(hedge_cut[i], fatal_rel);
    }
  }

  // ---- commit: timeline, trace, kept answers, precomputed outcomes -----
  // Everything below iterates submits in subplan-index order, so
  // gathered warnings, spans, subquery records and profile observations
  // (hence later hedge thresholds) come out in a deterministic order.
  std::vector<size_t> order(submits.size());
  for (size_t i = 0; i < submits.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return submits[a].index < submits[b].index;
  });

  double total_rel = 0;
  for (const Eff& e : eff) {
    if (e.ran) total_rel = std::max(total_rel, e.end_rel);
  }

  tracing::ScopedSpan scatter_span(trace_, "scatter", "federation");
  Tally tally;
  std::vector<std::pair<const SubmitOutcome*, double>> logs;
  int64_t failures = 0;
  for (size_t i : order) {
    if (group_of_slot[i] < 0) continue;
    Eff& e = eff[i];
    const int gi = group_of_slot[i];
    const int h = hedge_for_slot[i];
    const SubmitOutcome& prim = outcomes[i];
    tally.Add(prim);
    ++tally.submits;
    logs.emplace_back(&prim, prim_cut[i]);
    if (h >= 0) {
      tally.Add(hedge_outcomes[static_cast<size_t>(h)]);
      logs.emplace_back(&hedge_outcomes[static_cast<size_t>(h)], hedge_cut[i]);
    }
    if (!e.status.ok() && e.note_failed) ++failures;

    const char* outcome = e.status.ok()
                              ? (e.hedge_won ? "hedge-won" : "ok")
                              : e.cancelled
                                    ? "cancelled"
                                    : e.expired ? "deadline-expired"
                                                : e.note_failed
                                                      ? "unavailable"
                                                      : "error";

    // Lay the submit on the exported concurrent timeline (the input to
    // critical-path analysis): relative clock, subplan-index order.
    {
      ScatterTimelineEvent tev;
      tev.subplan_index = submits[i].index;
      tev.source = groups[static_cast<size_t>(gi)].key;
      tev.lane = 1 + gi;
      tev.start_rel = prim.start_ms;
      tev.end_rel = prim.end_ms;
      tev.eff_start_rel = e.start_rel;
      tev.eff_end_rel = e.end_rel;
      tev.source_ms = e.source_ms;
      tev.attempts = e.attempts;
      tev.outcome = outcome;
      if (h >= 0) {
        const SubmitOutcome& ho = hedge_outcomes[static_cast<size_t>(h)];
        const HedgeTask& task = hedges[static_cast<size_t>(h)];
        const double hedge_end = std::min(ho.end_ms, hedge_cut[i]);
        tev.hedge = true;
        tev.hedge_source = task.source;
        tev.hedge_start_rel = std::min(ho.start_ms, hedge_end);
        tev.hedge_end_rel = hedge_end;
        tev.hedge_won = e.hedge_won;
      }
      scatter_timeline_.events.push_back(std::move(tev));
    }

    if (trace_ != nullptr) {
      const Group& g = groups[static_cast<size_t>(gi)];
      int sid = trace_->AddCompleteSpan(
          "submit @" + g.key, "submit", trace_start_ms + e.start_rel,
          trace_start_ms + e.end_rel, /*lane=*/1 + gi);
      trace_->AddArg(sid, "subplan_index", int64_t{submits[i].index});
      trace_->AddArg(sid, "attempts", int64_t{e.attempts});
      trace_->AddArg(sid, "outcome", outcome);
      if (e.status.ok() && e.answer != nullptr) {
        trace_->AddArg(
            sid, "rows",
            static_cast<int64_t>(e.answer->exec.tuples.size()));
        trace_->AddArg(sid, "source_ms", e.source_ms);
      }
      if (h >= 0) {
        const SubmitOutcome& ho = hedge_outcomes[static_cast<size_t>(h)];
        const HedgeTask& task = hedges[static_cast<size_t>(h)];
        const double hedge_end = std::min(ho.end_ms, hedge_cut[i]);
        int hid = trace_->AddCompleteSpan(
            "hedge @" + task.source, "hedge",
            trace_start_ms + std::min(ho.start_ms, hedge_end),
            trace_start_ms + hedge_end, hedge_lane[static_cast<size_t>(h)]);
        trace_->AddArg(hid, "subplan_index", int64_t{submits[i].index});
        trace_->AddArg(hid, "threshold_ms", task.threshold_ms);
        trace_->AddArg(hid, "outcome",
                       e.hedge_won ? "won"
                                   : ho.status.ok()
                                         ? "lost"
                                         : ho.end_ms > hedge_cut[i]
                                               ? "cancelled"
                                               : "failed");
      }
    }

    PrecomputedSubmit pc;
    pc.status = e.status;
    pc.duration_ms = e.end_rel - e.start_rel;
    pc.source_ms = e.source_ms;
    pc.attempts = e.attempts;
    pc.note_failed_source = e.note_failed;
    if (e.status.ok() && e.answer != nullptr) {
      SubmitOutcome& win = *e.answer;
      CommitAnswer(win, win.key, *e.record_plan, e.attempts,
                   e.end_rel - e.start_rel, std::move(e.warnings),
                   &pc.warnings);
      pc.first_tuple_ms = win.exec.first_tuple_ms;
      pc.rel.columns = std::move(win.exec.columns);
      pc.rel.tuples = std::move(win.exec.tuples);
    } else {
      pc.warnings = std::move(e.warnings);
    }
    for (ExecWarning& w : pc.warnings) {
      w.subplan_index = submits[i].index;
    }
    e.failure.subplan_index = submits[i].index;
    pc.failure = std::move(e.failure);
    precomputed_[submits[i].op] = std::move(pc);
  }

  // The scatter phase charges max-not-sum: the whole concurrent phase
  // costs what its slowest surviving lane cost. It is communication
  // wait, but attributed to the phase rather than to any single submit
  // (PlanProfile::scatter_charged_ms keeps the accounting honest).
  ChargeWait(total_rel);
  scatter_charged_ms_ += total_rel;
  scatter_timeline_.charged_ms = total_rel;
  scatter_timeline_.deadline_ms = fed.deadline_ms > 0 ? fed.deadline_ms : 0;

  // Breaker transitions and their listeners fire in global timestamp
  // order (ties: subplan-index order, primary before hedge); the retry
  // budget takes the primaries' retries plus one unit per launched hedge.
  ReplayHealth(logs, scatter_abs_ms);
  tally.budget_units += static_cast<int>(hedges.size());
  Reconcile(tally);

  // Metrics (see docs/OBSERVABILITY.md for the catalog).
  BumpCounter("disco.mediator.scatter.queries");
  BumpCounter("disco.mediator.scatter.groups",
              static_cast<int64_t>(groups.size()));
  BumpCounter("disco.mediator.scatter.submits", tally.submits);
  if (failures > 0) BumpCounter("disco.exec.submit_failures", failures);
  if (!hedges.empty()) {
    BumpCounter("disco.mediator.hedges.launched",
                static_cast<int64_t>(hedges.size()));
  }
  if (hedges_won > 0) BumpCounter("disco.mediator.hedges.won", hedges_won);
  if (hedges_cancelled > 0) {
    BumpCounter("disco.mediator.hedges.cancelled", hedges_cancelled);
  }
  if (expired_submits > 0) {
    BumpCounter("disco.mediator.deadline.expired_submits", expired_submits);
    BumpCounter("disco.mediator.deadline.expired_queries");
  }
  if (cancellations > 0) {
    BumpCounter("disco.mediator.cancellations", cancellations);
  }

  scatter_span.Arg("groups", static_cast<int64_t>(groups.size()));
  scatter_span.Arg("submits", tally.submits);
  scatter_span.Arg("charged_ms", total_rel);
  if (!hedges.empty()) {
    scatter_span.Arg("hedges", static_cast<int64_t>(hedges.size()));
  }
}

}  // namespace mediator
}  // namespace disco
