// Critical-path analysis and what-if latency modeling over execution
// traces (docs/OBSERVABILITY.md).
//
// PR 6 made the scatter phase concurrent (the clock is charged
// max-not-sum) and PR 7 split every node's simulated time into CPU vs.
// wait; this module answers the operator question those two left open:
// *what actually bounds this query's response time, and what would
// change if a source were faster?*
//
// BuildCriticalPath() consumes a PlanProfile plus the executor's
// ScatterTimeline and extracts the exact critical path through the
// scatter/hedge/retry DAG on the simulated clock: a segment list whose
// durations sum to measured_ms exactly (the accounting identity of the
// profiler, asserted in tests) and which is byte-identical across
// runs. On top of it:
//
//  - a what-if engine re-solves the DAG under hypothetical changes
//    ("source B 2x faster", "hedges disabled", "operator X free") and
//    reports the predicted response-time delta;
//  - a fingerprint-keyed CriticalPathRegistry aggregates blame shares
//    (which source / operator / wait-class bounds response time, and by
//    how much) across queries, feeding MonitorReport panels, the
//    disco.critpath.* metrics, and the tools/critpath CLI.

#ifndef DISCO_MEDIATOR_CRITICAL_PATH_H_
#define DISCO_MEDIATOR_CRITICAL_PATH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/tracing.h"
#include "mediator/exec.h"
#include "mediator/profiler.h"

namespace disco {
namespace mediator {

/// One contiguous stretch of the query's measured response time,
/// attributed to a single cause. Kinds:
///   cpu          - mediator per-row compare/merge/sort work
///   wait         - serially-charged communication (source time,
///                  latency, bytes, backoff, stalls)
///   scatter-wait - time on the slowest-lane chain of the concurrent
///                  scatter phase (the max-not-sum charge, decomposed)
///   hedge-wait   - the hedge-threshold wait on a primary before its
///                  winning replica was launched
///   stall        - scatter-phase time not covered by any submit on the
///                  critical lane (filler; keeps the tiling exact)
struct CriticalSegment {
  int node_id = -1;        ///< pre-order plan-node id (-1 = phase-level)
  std::string label;       ///< plan-node label or "submit @<source>" etc.
  std::string kind;        ///< see taxonomy above
  std::string source;      ///< source to blame ("" = mediator-side)
  double ms = 0;
  int subplan_index = -1;  ///< scatter segments: the submit's pre-order idx

  /// Who to blame in aggregations: the source when one is involved,
  /// otherwise the operator label (mediator-side CPU).
  const std::string& subject() const { return source.empty() ? label : source; }
};

/// A hypothetical change to re-solve the DAG under.
struct WhatIfScenario {
  enum class Kind {
    kSourceSpeedup,   ///< `source` executes `factor`x faster
    kDisableHedges,   ///< no hedged requests (winners revert to primary)
    kOperatorFree,    ///< plan node `node_id` costs nothing
  };
  Kind kind = Kind::kSourceSpeedup;
  std::string source;       ///< kSourceSpeedup
  double factor = 2.0;      ///< kSourceSpeedup: speedup factor (>= 1)
  int node_id = -1;         ///< kOperatorFree
  std::string node_label;   ///< kOperatorFree (for rendering)

  std::string ToString() const;
};

struct WhatIfResult {
  WhatIfScenario scenario;
  /// The model evaluated under the identity change -- equals measured_ms
  /// whenever the model's lane re-solve reproduces the actual schedule
  /// (it does for every schedule the executor emits today).
  double baseline_ms = 0;
  double predicted_ms = 0;

  double delta_ms() const { return baseline_ms - predicted_ms; }
  double speedup() const {
    return predicted_ms > 1e-12 ? baseline_ms / predicted_ms : 1.0;
  }
};

/// The critical path of one executed query. Identity (asserted in
/// tests/critical_path_test.cc, mirroring the profiler's):
///
///   sum(segment.ms) == measured_ms
///
/// and the segment list is byte-identical across runs (every input comes
/// from the simulated clock).
struct CriticalPath {
  std::string fingerprint;   ///< query-log plan fingerprint
  double measured_ms = 0;
  /// The scatter phase's max-not-sum charge; the scatter-wait /
  /// hedge-wait / stall segments tile exactly this much time.
  double scatter_ms = 0;
  /// Chronological scatter-chain segments first, then per-node serial
  /// segments in plan pre-order.
  std::vector<CriticalSegment> segments;
  /// Ranked what-if suggestions (filled by RankWhatIfs; optional).
  std::vector<WhatIfResult> what_ifs;

  double total_ms() const;
  /// Summed ms over segments of `kind`.
  double kind_ms(const std::string& kind) const;
  /// The largest segment (ties: earliest), nullptr when empty.
  const CriticalSegment* dominant() const;

  /// Human-readable block (appended to EXPLAIN ANALYZE).
  std::string ToText() const;
  /// One JSON object (segments + what-ifs).
  std::string ToJson() const;
};

/// Extracts the critical path from one query's profile + scatter
/// timeline. With an inactive timeline (serial execution) the path is
/// the serial CPU/wait decomposition alone.
CriticalPath BuildCriticalPath(const PlanProfile& profile,
                               const ScatterTimeline& timeline);

/// Re-solves the DAG under `scenario` and predicts the response time.
WhatIfResult EvaluateWhatIf(const PlanProfile& profile,
                            const ScatterTimeline& timeline,
                            const WhatIfScenario& scenario);

/// Generates the standard scenario sweep (every involved source 2x
/// faster, hedges disabled, each of the hottest operators free),
/// evaluates all of them, and returns the top_k by predicted delta
/// (descending; ties by rendered scenario, so the order is total).
std::vector<WhatIfResult> RankWhatIfs(const PlanProfile& profile,
                                      const ScatterTimeline& timeline,
                                      size_t top_k = 5);

/// Marks the spans on the query's critical path: matching submit/hedge
/// spans (by subplan_index arg) and plan-node spans (by creation order,
/// which is the profile's measured pre-order) gain `critical` (the
/// segment kind) and `critical_ms` args, so the Chrome export
/// highlights the path.
void HighlightCriticalPath(const CriticalPath& path,
                           const PlanProfile& profile,
                           tracing::Trace* trace);

/// Aggregates critical paths across queries, keyed by plan fingerprint.
/// Not thread-safe (owned by the single-threaded query path, like the
/// query log and the ProfileRegistry).
class CriticalPathRegistry {
 public:
  /// One (subject, kind) blame cell aggregated across every recorded
  /// query: how much critical-path time that source / operator /
  /// wait-class is responsible for.
  struct Bottleneck {
    std::string subject;  ///< source name or mediator operator label
    std::string kind;     ///< segment kind
    double ms = 0;        ///< summed critical-path ms
    int64_t segments = 0;
    int64_t queries = 0;  ///< queries in which this cell appeared
    double share = 0;     ///< ms / total critical-path ms recorded
  };

  /// One what-if scenario aggregated across queries by its rendering.
  struct Suggestion {
    std::string description;
    double predicted_delta_ms = 0;  ///< summed predicted saving
    int64_t queries = 0;
  };

  void Record(const CriticalPath& path);

  int64_t total_queries() const { return total_queries_; }
  size_t plan_count() const { return plans_.size(); }
  double total_ms() const { return total_ms_; }

  /// Top-k blame cells by summed ms, descending; ties broken by
  /// (subject, kind) so the order is total.
  std::vector<Bottleneck> TopBottlenecks(size_t top_k) const;
  /// Top-k what-if suggestions by summed predicted delta, descending;
  /// ties broken by description.
  std::vector<Suggestion> TopSuggestions(size_t top_k) const;

  /// Terminal rendering of both rankings (the tools/critpath report).
  std::string ToText(size_t top_k) const;

 private:
  struct BlameAgg {
    double ms = 0;
    int64_t segments = 0;
    int64_t queries = 0;
  };
  struct PlanAgg {
    int64_t queries = 0;
    double critical_ms = 0;
  };
  /// (subject, kind) -> aggregate, across all plans.
  std::map<std::pair<std::string, std::string>, BlameAgg> blame_;
  std::map<std::string, PlanAgg> plans_;  ///< by fingerprint
  std::map<std::string, std::pair<double, int64_t>> suggestions_;
  int64_t total_queries_ = 0;
  double total_ms_ = 0;
};

/// Pre-registers the disco.critpath.* family so expositions list the
/// whole catalog from the first scrape; `RecordCritpathMetrics` bumps
/// them per recorded query.
void RegisterCritpathMetrics(metrics::Registry* registry);
void RecordCritpathMetrics(const CriticalPath& path,
                           metrics::Registry* registry);

}  // namespace mediator
}  // namespace disco

#endif  // DISCO_MEDIATOR_CRITICAL_PATH_H_
