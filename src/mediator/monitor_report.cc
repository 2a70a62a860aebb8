#include "mediator/monitor_report.h"

#include "common/str_util.h"

namespace disco {
namespace mediator {

std::string MonitorSnapshot::ToText() const {
  std::string out = StringPrintf("== mediator monitor @ %.1f ms\n", now_ms);
  out += StringPrintf(
      "queries: %lld (%lld errors, %lld replans, %lld explain-analyze)\n",
      static_cast<long long>(queries), static_cast<long long>(query_errors),
      static_cast<long long>(replans),
      static_cast<long long>(explain_analyzes));
  out += StringPrintf(
      "submits: %lld (%lld retries, %lld exhausted, %lld breaker-rejected; "
      "budget %d attempts/submit)\n",
      static_cast<long long>(submits), static_cast<long long>(submit_retries),
      static_cast<long long>(submit_failures),
      static_cast<long long>(breaker_rejections), retry_max_attempts);
  out += StringPrintf(
      "federation: scatter %s, deadline %s, hedging %s, retry budget %s\n",
      scatter ? "on" : "off",
      deadline_ms > 0 ? StringPrintf("%.1f ms", deadline_ms).c_str() : "off",
      hedging ? "on" : "off",
      query_retry_budget > 0
          ? StringPrintf("%d/query", query_retry_budget).c_str()
          : "unlimited");
  out += StringPrintf(
      "  scatter: %lld quer%s, %lld submits; hedges %lld launched / %lld "
      "won / %lld cancelled; deadline expiries %lld submits / %lld queries; "
      "%lld cancellations, %lld budget exhaustions\n",
      static_cast<long long>(scatter_queries),
      scatter_queries == 1 ? "y" : "ies",
      static_cast<long long>(scatter_submits),
      static_cast<long long>(hedges_launched),
      static_cast<long long>(hedges_won),
      static_cast<long long>(hedges_cancelled),
      static_cast<long long>(deadline_expired_submits),
      static_cast<long long>(deadline_expired_queries),
      static_cast<long long>(cancellations),
      static_cast<long long>(retry_budget_exhaustions));
  out += StringPrintf(
      "query log: %zu/%zu entries (%lld recorded, %lld dropped)\n", log_size,
      log_capacity, static_cast<long long>(log_total),
      static_cast<long long>(log_dropped));
  out += StringPrintf(
      "plan cache: %zu/%zu entries (%lld hits, %lld misses, %lld inserted, "
      "%lld invalidated, %lld evicted)\n",
      plan_cache_size, plan_cache_capacity,
      static_cast<long long>(plan_cache_hits),
      static_cast<long long>(plan_cache_misses),
      static_cast<long long>(plan_cache_insertions),
      static_cast<long long>(plan_cache_invalidations),
      static_cast<long long>(plan_cache_evictions));
  out += StringPrintf(
      "cost memo: %zu entries (%lld hits, %lld misses, %lld invalidations)\n",
      cost_memo_entries, static_cast<long long>(cost_memo_hits),
      static_cast<long long>(cost_memo_misses),
      static_cast<long long>(cost_memo_invalidations));

  out += StringPrintf(
      "result guard: %lld batches (%lld malformed, %lld rows quarantined, "
      "%lld truncated streams, %lld lying-source opens)\n",
      static_cast<long long>(guard_batches),
      static_cast<long long>(guard_malformed_batches),
      static_cast<long long>(guard_quarantined_rows),
      static_cast<long long>(guard_truncated_streams),
      static_cast<long long>(lying_opens));

  out += StringPrintf("breakers (%zu sources):\n", breakers.size());
  for (const MonitorBreakerRow& b : breakers) {
    out += StringPrintf(
        "  %-12s %-9s flaps=%lld opens=%lld rejected=%lld ok=%lld fail=%lld "
        "probe-fails=%d cooldown=%.0fms malformed=%lld quarantined=%lld%s\n",
        b.source.c_str(), b.state.c_str(),
        static_cast<long long>(b.transitions), static_cast<long long>(b.opens),
        static_cast<long long>(b.rejected_submits),
        static_cast<long long>(b.successes),
        static_cast<long long>(b.failures), b.probe_failures,
        b.effective_cooldown_ms,
        static_cast<long long>(b.malformed_batches),
        static_cast<long long>(b.quarantined_rows),
        b.lying ? " LYING" : "");
  }

  out += StringPrintf("profiles: %lld quer%s over %zu plan shape%s\n",
                      static_cast<long long>(profiled_queries),
                      profiled_queries == 1 ? "y" : "ies", profiled_plans,
                      profiled_plans == 1 ? "" : "s");
  if (!hottest_operators.empty()) {
    out += "  hottest operators (summed self time):\n";
    out += StringPrintf("  %-28s %-10s %6s %10s %10s %10s\n", "operator",
                        "plan", "execs", "cpu ms", "wait ms", "rows out");
    for (const MonitorOperatorRow& r : hottest_operators) {
      out += StringPrintf(
          "  %-28s %-10.10s %6lld %10.3f %10.3f %10lld\n", r.label.c_str(),
          r.fingerprint.c_str(), static_cast<long long>(r.execs), r.cpu_ms,
          r.wait_ms, static_cast<long long>(r.rows_out));
    }
  }
  if (!worst_drops.empty()) {
    out += "  worst waterfall drops (rows in -> out):\n";
    out += StringPrintf("  %-28s %-10s %10s %10s %7s\n", "operator", "plan",
                        "rows in", "rows out", "drop");
    for (const MonitorOperatorRow& r : worst_drops) {
      out += StringPrintf("  %-28s %-10.10s %10lld %10lld %6.1f%%\n",
                          r.label.c_str(), r.fingerprint.c_str(),
                          static_cast<long long>(r.rows_in),
                          static_cast<long long>(r.rows_out),
                          100.0 * r.drop_fraction);
    }
  }

  out += StringPrintf("critical paths: %lld quer%s over %zu plan shape%s, "
                      "%.3f ms on the path\n",
                      static_cast<long long>(critpath_queries),
                      critpath_queries == 1 ? "y" : "ies", critpath_plans,
                      critpath_plans == 1 ? "" : "s", critpath_total_ms);
  if (!top_bottlenecks.empty()) {
    out += "  top bottlenecks (summed critical-path time):\n";
    out += StringPrintf("  %-28s %-13s %10s %6s %8s %7s\n", "subject", "kind",
                        "ms", "segs", "queries", "share");
    for (const MonitorBlameRow& b : top_bottlenecks) {
      out += StringPrintf("  %-28s %-13s %10.3f %6lld %8lld %6.1f%%\n",
                          b.subject.c_str(), b.kind.c_str(), b.ms,
                          static_cast<long long>(b.segments),
                          static_cast<long long>(b.queries), 100.0 * b.share);
    }
  }
  if (!top_suggestions.empty()) {
    out += "  what-if suggestions (summed predicted savings):\n";
    for (const MonitorSuggestionRow& s : top_suggestions) {
      out += StringPrintf("  %-44s saves %10.3f ms over %lld quer%s\n",
                          s.description.c_str(), s.predicted_delta_ms,
                          static_cast<long long>(s.queries),
                          s.queries == 1 ? "y" : "ies");
    }
  }

  out += StringPrintf("drift: %lld event%s raised\n",
                      static_cast<long long>(drift_events),
                      drift_events == 1 ? "" : "s");
  if (!worst_cells.empty()) {
    out += StringPrintf("  %-12s %-10s %-10s %8s %10s %10s  %s\n", "source",
                        "operator", "scope", "n(win)", "window_q",
                        "baseline_q", "status");
    for (const MonitorDriftRow& c : worst_cells) {
      out += StringPrintf("  %-12s %-10s %-10s %8lld %10.3f %10.3f  %s\n",
                          c.source.c_str(), c.op.c_str(), c.scope.c_str(),
                          static_cast<long long>(c.window_count), c.window_q,
                          c.baseline_q,
                          c.breached ? "BREACHED" : "ok");
    }
  }
  for (const std::string& e : recent_events) {
    out += "  event: " + e + "\n";
  }
  return out;
}

std::string MonitorSnapshot::ToJson() const {
  std::string out = StringPrintf(
      "{\"now_ms\":%.3f,\"queries\":%lld,\"query_errors\":%lld,"
      "\"replans\":%lld,\"explain_analyzes\":%lld,"
      "\"submits\":%lld,\"submit_retries\":%lld,\"submit_failures\":%lld,"
      "\"breaker_rejections\":%lld,\"retry_max_attempts\":%d,"
      "\"federation\":{\"scatter\":%s,\"deadline_ms\":%.3f,"
      "\"hedging\":%s,\"query_retry_budget\":%d,"
      "\"scatter_queries\":%lld,\"scatter_submits\":%lld,"
      "\"hedges_launched\":%lld,\"hedges_won\":%lld,"
      "\"hedges_cancelled\":%lld,\"deadline_expired_submits\":%lld,"
      "\"deadline_expired_queries\":%lld,\"cancellations\":%lld,"
      "\"retry_budget_exhaustions\":%lld},"
      "\"query_log\":{\"size\":%zu,\"capacity\":%zu,\"recorded\":%lld,"
      "\"dropped\":%lld},"
      "\"plan_cache\":{\"size\":%zu,\"capacity\":%zu,\"hits\":%lld,"
      "\"misses\":%lld,\"insertions\":%lld,\"invalidations\":%lld,"
      "\"evictions\":%lld},"
      "\"cost_memo\":{\"entries\":%zu,\"hits\":%lld,\"misses\":%lld,"
      "\"invalidations\":%lld},",
      now_ms, static_cast<long long>(queries),
      static_cast<long long>(query_errors), static_cast<long long>(replans),
      static_cast<long long>(explain_analyzes),
      static_cast<long long>(submits), static_cast<long long>(submit_retries),
      static_cast<long long>(submit_failures),
      static_cast<long long>(breaker_rejections), retry_max_attempts,
      scatter ? "true" : "false", deadline_ms, hedging ? "true" : "false",
      query_retry_budget, static_cast<long long>(scatter_queries),
      static_cast<long long>(scatter_submits),
      static_cast<long long>(hedges_launched),
      static_cast<long long>(hedges_won),
      static_cast<long long>(hedges_cancelled),
      static_cast<long long>(deadline_expired_submits),
      static_cast<long long>(deadline_expired_queries),
      static_cast<long long>(cancellations),
      static_cast<long long>(retry_budget_exhaustions),
      log_size, log_capacity, static_cast<long long>(log_total),
      static_cast<long long>(log_dropped), plan_cache_size,
      plan_cache_capacity, static_cast<long long>(plan_cache_hits),
      static_cast<long long>(plan_cache_misses),
      static_cast<long long>(plan_cache_insertions),
      static_cast<long long>(plan_cache_invalidations),
      static_cast<long long>(plan_cache_evictions), cost_memo_entries,
      static_cast<long long>(cost_memo_hits),
      static_cast<long long>(cost_memo_misses),
      static_cast<long long>(cost_memo_invalidations));
  auto operator_row = [](const MonitorOperatorRow& r) {
    return StringPrintf(
        "{\"fingerprint\":\"%s\",\"node_id\":%d,\"label\":\"%s\","
        "\"op\":\"%s\",\"execs\":%lld,\"cpu_ms\":%.3f,\"wait_ms\":%.3f,"
        "\"rows_in\":%lld,\"rows_out\":%lld,\"drop_fraction\":%.4f}",
        JsonEscape(r.fingerprint).c_str(), r.node_id,
        JsonEscape(r.label).c_str(), JsonEscape(r.op).c_str(),
        static_cast<long long>(r.execs), r.cpu_ms, r.wait_ms,
        static_cast<long long>(r.rows_in),
        static_cast<long long>(r.rows_out), r.drop_fraction);
  };
  out += StringPrintf(
      "\"profiles\":{\"queries\":%lld,\"plans\":%zu,\"hottest_operators\":[",
      static_cast<long long>(profiled_queries), profiled_plans);
  for (size_t i = 0; i < hottest_operators.size(); ++i) {
    out += (i == 0 ? "" : ",") + operator_row(hottest_operators[i]);
  }
  out += "],\"worst_drops\":[";
  for (size_t i = 0; i < worst_drops.size(); ++i) {
    out += (i == 0 ? "" : ",") + operator_row(worst_drops[i]);
  }
  out += "]},";
  out += StringPrintf(
      "\"critical_paths\":{\"queries\":%lld,\"plans\":%zu,"
      "\"total_ms\":%.3f,\"top_bottlenecks\":[",
      static_cast<long long>(critpath_queries), critpath_plans,
      critpath_total_ms);
  for (size_t i = 0; i < top_bottlenecks.size(); ++i) {
    const MonitorBlameRow& b = top_bottlenecks[i];
    out += StringPrintf(
        "%s{\"subject\":\"%s\",\"kind\":\"%s\",\"ms\":%.3f,"
        "\"segments\":%lld,\"queries\":%lld,\"share\":%.4f}",
        i == 0 ? "" : ",", JsonEscape(b.subject).c_str(),
        JsonEscape(b.kind).c_str(), b.ms,
        static_cast<long long>(b.segments),
        static_cast<long long>(b.queries), b.share);
  }
  out += "],\"top_suggestions\":[";
  for (size_t i = 0; i < top_suggestions.size(); ++i) {
    const MonitorSuggestionRow& s = top_suggestions[i];
    out += StringPrintf(
        "%s{\"description\":\"%s\",\"predicted_delta_ms\":%.3f,"
        "\"queries\":%lld}",
        i == 0 ? "" : ",", JsonEscape(s.description).c_str(),
        s.predicted_delta_ms, static_cast<long long>(s.queries));
  }
  out += "]},";
  out += StringPrintf(
      "\"guard\":{\"batches\":%lld,\"malformed_batches\":%lld,"
      "\"quarantined_rows\":%lld,\"truncated_streams\":%lld,"
      "\"lying_opens\":%lld},",
      static_cast<long long>(guard_batches),
      static_cast<long long>(guard_malformed_batches),
      static_cast<long long>(guard_quarantined_rows),
      static_cast<long long>(guard_truncated_streams),
      static_cast<long long>(lying_opens));
  out += StringPrintf("\"drift_events\":%lld,\"worst_cells\":[",
                      static_cast<long long>(drift_events));
  for (size_t i = 0; i < worst_cells.size(); ++i) {
    const MonitorDriftRow& c = worst_cells[i];
    out += StringPrintf(
        "%s{\"source\":\"%s\",\"op\":\"%s\",\"scope\":\"%s\","
        "\"window_count\":%lld,\"window_q\":%.3f,\"baseline_q\":%.3f,"
        "\"breached\":%s}",
        i == 0 ? "" : ",", JsonEscape(c.source).c_str(),
        JsonEscape(c.op).c_str(), JsonEscape(c.scope).c_str(),
        static_cast<long long>(c.window_count), c.window_q, c.baseline_q,
        c.breached ? "true" : "false");
  }
  out += "],\"recent_events\":[";
  for (size_t i = 0; i < recent_events.size(); ++i) {
    out += StringPrintf("%s\"%s\"", i == 0 ? "" : ",",
                        JsonEscape(recent_events[i]).c_str());
  }
  out += "],\"breakers\":[";
  for (size_t i = 0; i < breakers.size(); ++i) {
    const MonitorBreakerRow& b = breakers[i];
    out += StringPrintf(
        "%s{\"source\":\"%s\",\"state\":\"%s\",\"transitions\":%lld,"
        "\"opens\":%lld,\"rejected_submits\":%lld,\"failures\":%lld,"
        "\"successes\":%lld,\"probe_failures\":%d,"
        "\"effective_cooldown_ms\":%.3f,\"malformed_batches\":%lld,"
        "\"quarantined_rows\":%lld,\"lying\":%s}",
        i == 0 ? "" : ",", JsonEscape(b.source).c_str(),
        JsonEscape(b.state).c_str(), static_cast<long long>(b.transitions),
        static_cast<long long>(b.opens),
        static_cast<long long>(b.rejected_submits),
        static_cast<long long>(b.failures),
        static_cast<long long>(b.successes), b.probe_failures,
        b.effective_cooldown_ms,
        static_cast<long long>(b.malformed_batches),
        static_cast<long long>(b.quarantined_rows),
        b.lying ? "true" : "false");
  }
  out += "]}";
  return out;
}

}  // namespace mediator
}  // namespace disco
