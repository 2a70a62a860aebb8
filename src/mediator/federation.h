// Deadline-aware scatter-gather federation (docs/ROBUSTNESS.md).
//
// The paper's mediator submits independent subqueries serially, so the
// simulated clock charges their latencies as a *sum*. This module holds
// the knobs and helpers of the concurrent federation layer: independent
// kSubmit subplans of one query scatter onto concurrent lanes of the
// submit engine (mediator/exec.h) and gather under a per-query deadline,
// with the clock charged max-not-sum for overlapping submits. On top of
// the scatter path ride hedged requests (a backup submit to a
// DeclareEquivalent replica once the primary exceeds an adaptive latency
// percentile), cancellation propagation (a fatal sibling failure or an
// expired deadline aborts in-flight submits), and a shared per-query
// retry budget.
//
// The concurrency is simulated: lanes run one after another on the
// calling thread, each on its own relative clock, and everything is
// driven by the simulated clock and seeded RNGs, so a fixed
// configuration yields byte-identical answers, warnings, metrics and
// traces on every run.

#ifndef DISCO_MEDIATOR_FEDERATION_H_
#define DISCO_MEDIATOR_FEDERATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "catalog/catalog.h"
#include "common/sketch.h"

namespace disco {
namespace mediator {

/// Knobs of the scatter-gather federation layer. The layer activates
/// when any knob departs from its default; with all defaults the
/// executor keeps the original serial submit loop, byte-for-byte.
struct FederationOptions {
  /// Scatter the plan's statically-known submits: one concurrent lane
  /// per source group, charged max-not-sum. The deadline and hedging
  /// knobs turn the scatter path on by themselves.
  bool scatter = false;
  /// Per-query budget (simulated ms, measured from execution start) for
  /// the scatter phase. Submits still in flight when it expires are
  /// abandoned; under allow_partial a union absorbs the loss as a
  /// partial answer with a warning. 0 = no deadline.
  double deadline_ms = 0;
  /// Hedged requests: when a primary submit exceeds the adaptive
  /// threshold (see hedge_quantile) and a DeclareEquivalent replica
  /// exists on a healthy source, launch a backup submit there and keep
  /// whichever answer arrives first, cancelling the loser.
  bool hedge = false;
  /// The per-source latency quantile used as the hedge threshold.
  double hedge_quantile = 0.95;
  /// Observed submits per source before its threshold is trusted.
  int hedge_min_samples = 8;
  /// Floor on the hedge threshold (guards against hedging on noise when
  /// the profile quantile is still tiny). 0 = no floor.
  double hedge_min_ms = 0;
  /// Bind-join probe batching: distinct outer keys per probe (shipped as
  /// one disjunctive IN-set select when the wrapper supports it,
  /// decomposed into per-key selects otherwise). 1 = the original
  /// one-equality-probe-per-key loop, byte-for-byte.
  int bind_batch_size = 1;
  /// Bind-join probe waves: batches issued per simulated-concurrent
  /// wave. The clock charges max-not-sum per wave; results are merged in
  /// outer-tuple order, so any value yields the same tuples. 1 = batches
  /// run back to back.
  int bind_parallelism = 1;

  /// Does any knob require the scatter-gather path? The bind-join
  /// batching knobs deliberately stay out: they reshape probes inside
  /// EvalBindJoin and must not drag static submits onto the scatter
  /// path (with all other knobs default the serial submit loop must
  /// stay byte-identical).
  bool active() const { return scatter || deadline_ms > 0 || hedge; }
};

/// Streaming per-source submit-latency quantiles (P^2 sketches from
/// common/sketch.h) feeding the adaptive hedge threshold. Owned by the
/// Mediator so the profile spans queries; fed with the total charged
/// duration of every successful submit, in subplan-index order, so the
/// profile -- and therefore every hedge decision -- is deterministic.
class SubmitLatencyProfile {
 public:
  explicit SubmitLatencyProfile(double quantile = 0.95)
      : quantile_(quantile) {}

  void Observe(const std::string& source_lower, double duration_ms);

  /// Observations recorded for the source (0 = never seen).
  int64_t count(const std::string& source_lower) const;

  /// Current quantile estimate for the source; 0 when unseen.
  double QuantileMs(const std::string& source_lower) const;

  double quantile() const { return quantile_; }

 private:
  double quantile_;
  std::map<std::string, P2Quantile> sketches_;
};

/// A hedge target: `subplan` is the primary's subplan with every scanned
/// collection rewritten to its declared-equivalent on `source`.
struct HedgePlan {
  std::string source;  ///< lower-cased replica source ("" = no replica)
  std::unique_ptr<algebra::Operator> subplan;

  bool viable() const { return !source.empty(); }
};

/// Builds the hedge plan for `subplan` (the operand of a submit to
/// `primary_source_lower`): finds a single OTHER source that carries a
/// declared-equivalent of every collection the subplan scans and for
/// which `source_ok` holds (registered wrapper, breaker not open), then
/// rewrites the scans. Candidate sources are tried in the deterministic
/// declaration order of Catalog::EquivalentsOf. Returns a non-viable
/// HedgePlan when no source qualifies.
HedgePlan MakeHedgePlan(const algebra::Operator& subplan,
                        const Catalog& catalog,
                        const std::string& primary_source_lower,
                        const std::function<bool(const std::string&)>&
                            source_ok);

/// One statically-known submit of a plan, in pre-order position.
struct ScatterSubmit {
  const algebra::Operator* op = nullptr;  ///< the kSubmit node
  int index = 0;        ///< pre-order subplan index (gather sort key)
  /// A failure here is absorbable: the node sits under a kUnion and the
  /// executor runs in allow_partial mode, so siblings need not be
  /// cancelled when it fails.
  bool droppable = false;
};

/// Collects every kSubmit node of `plan` in pre-order (bind-join probes
/// are dynamic: they batch and wave inside EvalBindJoin instead, see
/// FederationOptions::bind_batch_size). `allow_partial` determines
/// droppability.
std::vector<ScatterSubmit> CollectScatterSubmits(
    const algebra::Operator& plan, bool allow_partial);

}  // namespace mediator
}  // namespace disco

#endif  // DISCO_MEDIATOR_FEDERATION_H_
