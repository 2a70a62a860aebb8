// Operator-level execution profiling (docs/OBSERVABILITY.md).
//
// The paper's cost model prices plans per operator (TimeFirst /
// TimeNext / TotalTime, §2.3); this module gives the runtime the same
// granularity: a per-query PlanProfile that splits every plan node's
// simulated time into mediator CPU vs. communication wait, tracks the
// cardinality waterfall (rows in -> rows out), and renders both as a
// folded-stack flame graph and a waterfall text block. A process-wide
// ProfileRegistry aggregates profiles across queries keyed by the
// query-log plan fingerprint, feeding MonitorReport's "hottest
// operators" and "worst waterfall drops" panels.
//
// Everything is driven by the simulated clock, so profiles are
// byte-identical run to run.

#ifndef DISCO_MEDIATOR_PROFILER_H_
#define DISCO_MEDIATOR_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "common/metrics.h"
#include "mediator/exec.h"

namespace disco {
namespace mediator {

/// One plan node's measured profile. `id` is the node's pre-order index
/// in the executed plan tree -- stable across runs of the same plan, so
/// aggregation by (fingerprint, id) is well defined.
struct NodeProfile {
  int id = 0;
  int parent = -1;  ///< pre-order index of the parent, -1 for the root
  int depth = 0;
  algebra::OpKind kind = algebra::OpKind::kScan;
  std::string label;  ///< algebra::NodeLabel of the node

  /// False for nodes the mediator never evaluated itself (subtrees under
  /// a submit execute at the source; dropped branches never produced).
  bool measured = false;
  bool ok = false;

  int64_t rows_in = 0;    ///< sum of the children's output cardinalities
  int64_t rows_out = -1;  ///< -1 = never produced
  int attempts = 0;       ///< submit/bind-join nodes

  /// Inclusive simulated time (the whole subtree), mirroring
  /// NodeMeasure::inclusive_ms.
  double inclusive_ms = 0;
  /// Self mediator-CPU ms: per-row compare/merge/sort work charged by
  /// this node itself (children excluded).
  double cpu_ms = 0;
  /// Self communication/wait ms: source execution, message latency,
  /// byte shipping, retry backoff, timeout stall -- attributed to the
  /// submit that caused them. For `concurrent` nodes this is the
  /// submit's response time on the scatter timeline (charged to the
  /// query max-not-sum, see PlanProfile::scatter_charged_ms).
  double wait_ms = 0;
  /// True for submits resolved by the concurrent scatter phase: their
  /// wait_ms overlapped other lanes and is NOT additive toward the
  /// query's measured time.
  bool concurrent = false;

  /// Submit nodes: the source's time to its first result row.
  double first_row_ms = 0;
  /// Submit nodes: total execution time at the source (excl. comm).
  double source_ms = 0;

  double self_ms() const { return cpu_ms + wait_ms; }
  /// Self time per output row (0 when the node produced no rows).
  double per_row_ms() const {
    return rows_out > 0 ? self_ms() / static_cast<double>(rows_out) : 0;
  }
  /// Fraction of input rows dropped by this node, in [0, 1].
  double drop_fraction() const {
    if (rows_in <= 0 || rows_out < 0 || rows_out >= rows_in) return 0;
    return static_cast<double>(rows_in - rows_out) /
           static_cast<double>(rows_in);
  }
};

/// The execution profile of one query: per-node CPU/wait attribution
/// plus the scatter phase's max-not-sum charge. Accounting identity
/// (asserted in tests):
///
///   measured_ms == scatter_charged_ms
///               + sum(node.cpu_ms)
///               + sum(node.wait_ms over non-concurrent nodes)
struct PlanProfile {
  std::string fingerprint;  ///< query-log plan fingerprint (plan.Hash())
  double measured_ms = 0;
  /// The single max-not-sum charge of the concurrent scatter phase
  /// (0 when the federation layer was inactive).
  double scatter_charged_ms = 0;
  std::vector<NodeProfile> nodes;  ///< pre-order

  /// Sum of self CPU over all nodes.
  double total_cpu_ms() const;
  /// Sum of self wait over serially-charged (non-concurrent) nodes.
  double total_wait_ms() const;

  /// Folded-stack flame-graph lines ("a;b;[cpu] 1234\n"), one line per
  /// nonzero self value, values in integer microseconds. Loadable in
  /// speedscope / flamegraph.pl. Concurrent scatter waits are emitted
  /// under a "[scatter-wait]" leaf: they overlap in wall time, so a
  /// flame graph of a scattered query is wider than measured_ms.
  std::string ToFolded() const;
  /// Accumulates this profile's folded stacks into `acc` (stack ->
  /// microseconds), the merge format ProfileRegistry exports.
  void AccumulateFolded(std::map<std::string, int64_t>* acc) const;

  /// The cardinality-waterfall text block appended to EXPLAIN ANALYZE:
  /// per node rows in -> out, drop %, time-to-first-row, self CPU/wait.
  std::string WaterfallText() const;
};

/// Builds the profile of one executed plan from the executor's per-node
/// measures. `scatter_charged_ms` is MediatorExecutor::scatter_charged_ms()
/// after the run.
PlanProfile BuildPlanProfile(const algebra::Operator& plan,
                             const NodeMeasureMap& measures,
                             double measured_ms, double scatter_charged_ms,
                             const std::string& fingerprint);

/// Aggregates PlanProfiles across queries, keyed by plan fingerprint.
/// Not thread-safe (owned by the single-threaded query path, like the
/// query log).
class ProfileRegistry {
 public:
  /// Per-(plan, node) aggregate across every recorded query.
  struct OperatorStat {
    std::string fingerprint;
    int node_id = 0;
    std::string label;
    algebra::OpKind kind = algebra::OpKind::kScan;
    int64_t execs = 0;  ///< queries in which this node was measured
    double cpu_ms = 0;  ///< summed self CPU
    double wait_ms = 0; ///< summed self wait (concurrent included)
    int64_t rows_in = 0;
    int64_t rows_out = 0;

    double total_ms() const { return cpu_ms + wait_ms; }
    int64_t rows_dropped() const {
      return rows_in > rows_out ? rows_in - rows_out : 0;
    }
    double drop_fraction() const {
      return rows_in > 0
                 ? static_cast<double>(rows_dropped()) /
                       static_cast<double>(rows_in)
                 : 0;
    }
  };

  void Record(const PlanProfile& profile);

  int64_t total_queries() const { return total_queries_; }
  size_t plan_count() const { return plans_.size(); }

  /// Top-k operators by summed self time (CPU + wait), descending;
  /// ties broken by (fingerprint, node id) so the order is total.
  std::vector<OperatorStat> HottestOperators(size_t top_k) const;
  /// Top-k operators by rows dropped (rows_in - rows_out), descending --
  /// the worst cardinality-waterfall drops; nodes that drop nothing are
  /// excluded.
  std::vector<OperatorStat> WorstDrops(size_t top_k) const;

  /// Folded stacks merged across every recorded profile, lines sorted
  /// lexicographically (deterministic merge order).
  std::string ToFolded() const;

 private:
  struct PlanAgg {
    int64_t queries = 0;
    std::vector<OperatorStat> nodes;  ///< by pre-order node id
  };
  std::map<std::string, PlanAgg> plans_;
  std::map<std::string, int64_t> folded_us_;  ///< stack -> microseconds
  int64_t total_queries_ = 0;
};

/// Pre-registers the disco.exec.operator.<kind>.{evals,rows} family (one
/// counter + one histogram per OpKind) so expositions list the whole
/// catalog from the first scrape. The executor bumps them per node.
void RegisterOperatorMetrics(metrics::Registry* registry);

}  // namespace mediator
}  // namespace disco

#endif  // DISCO_MEDIATOR_PROFILER_H_
