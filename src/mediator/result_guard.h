// Per-submit response validation: the mediator's defensive layer
// against sources that answer *wrong* instead of not at all.
//
// The executor trusts wrappers to return rows matching the catalog
// schema of the subplan it submitted. A buggy or compromised source can
// instead return rows with the wrong arity, type-mismatched values,
// NaN/inf numerics, or a silently truncated stream -- and without a
// guard those rows flow into joins, aggregates, and the user's answer.
// The result guard validates every subanswer against the shape the
// catalog says the subplan must produce and **quarantines** offending
// rows: they are removed, counted, and reported as structured
// ExecWarnings, while surviving rows proceed. Persistent malformation
// feeds `SourceHealthRegistry::RecordMalformed`, which opens the
// breaker with the distinct "lying source" flag (source_health.h).
//
// Validation happens inside the submit engine's attempt loop
// (mediator/exec.h) on every path, and only committed answers count, in
// a deterministic order -- so quarantine decisions, warnings, and
// `disco.guard.*` metrics are byte-identical across runs.
//
// Checks, per subanswer:
//   * arity     -- every row has exactly the expected column count;
//   * types     -- every non-null value matches the catalog attribute
//                  type (columns whose type is not derivable, e.g.
//                  min/max over an unknown attribute, are skipped);
//   * finiteness-- no NaN / infinity in double values (checked even
//                  when the schema is unknown);
//   * truncation-- the wrapper-declared `objects_produced` matches the
//                  delivered row count, for subplan shapes where the
//                  two provably coincide (scan / select-over-scan /
//                  project / sort / union chains; joins, dedup and
//                  aggregates legitimately produce more objects than
//                  final rows and are exempt).

#ifndef DISCO_MEDIATOR_RESULT_GUARD_H_
#define DISCO_MEDIATOR_RESULT_GUARD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "catalog/catalog.h"
#include "common/value.h"
#include "sources/source_engine.h"

namespace disco {
namespace mediator {

/// Expected shape of one output column of a subanswer. `type` is
/// nullopt when the catalog cannot pin it down -- such columns are
/// arity- and finiteness-checked only.
struct GuardColumn {
  std::string name;
  std::optional<ValueType> type;
};

/// Everything the guard knows in advance about one subplan's answer.
struct GuardExpectation {
  /// Expected columns, or nullopt when the shape is not derivable from
  /// the catalog (validation then falls back to the answer's own column
  /// count plus finiteness checks).
  std::optional<std::vector<GuardColumn>> columns;
  /// Whether `objects_produced` == delivered rows holds for this
  /// subplan shape, making silent truncation detectable.
  bool truncation_detectable = false;
};

/// Derives the expectation for `subplan` from the catalog. Never fails:
/// unknown shapes yield an expectation with `columns == nullopt`.
GuardExpectation MakeGuardExpectation(const algebra::Operator& subplan,
                                      const Catalog& catalog);

/// What ValidateSubanswer found -- and removed -- in one subanswer.
struct GuardReport {
  int64_t rows_checked = 0;
  int64_t rows_quarantined = 0;
  int64_t arity_mismatches = 0;    ///< offending values/rows, not batches
  int64_t type_mismatches = 0;
  int64_t non_finite_values = 0;
  bool truncated = false;
  int64_t declared_rows = 0;   ///< wrapper-declared objects_produced
  int64_t delivered_rows = 0;  ///< rows present before quarantine

  bool any() const { return rows_quarantined > 0 || truncated; }

  /// Compact warning text, e.g.
  /// `result guard quarantined 3/10 rows (arity 1, type 2) ;
  ///  truncated stream (12 declared, 6 delivered)`.
  std::string Message() const;
};

/// Validates `result` in place against `expectation`: malformed rows
/// are removed (quarantined) so downstream operators see only rows that
/// type-check, and the findings are returned. Deterministic: depends
/// only on the expectation and the result contents.
GuardReport ValidateSubanswer(const GuardExpectation& expectation,
                              sources::ExecutionResult* result);

/// Per-query roll-up, surfaced through QueryResult, the query log, and
/// MonitorReport.
struct GuardStats {
  int64_t batches_checked = 0;
  int64_t malformed_batches = 0;
  int64_t rows_quarantined = 0;
  int64_t truncated_streams = 0;

  void Absorb(const GuardReport& r) {
    ++batches_checked;
    if (r.any()) ++malformed_batches;
    rows_quarantined += r.rows_quarantined;
    if (r.truncated) ++truncated_streams;
  }
};

}  // namespace mediator
}  // namespace disco

#endif  // DISCO_MEDIATOR_RESULT_GUARD_H_
