// Shared pieces of the perfbench binary: the benchmark-owned wrapper
// tap, the in-memory span recorder, answer hashing against the
// benchmark's own reference answers, and the Workload interface.
//
// The benchmark reaches the library only through public entry points
// (Mediator, Optimizer, CostEstimator, ParseSql/Bind, Wrapper), so a
// later change to any layer is measured by unchanged benchmark code.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "mediator/mediator.h"
#include "wrapper/wrapper.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One wall-clock span: a public call the benchmark made, or a wrapper
/// call made by the mediator inside one.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< span id of the enclosing span, -1 for a root
  int query = -1;   ///< stream index of the op the span belongs to
};

/// Keeps spans in memory until the run ends. Disabled recorders record
/// nothing and cost one branch per call site.
class SpanRecorder {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id, or -1 when disabled.
  int Begin(const char* name, int parent, int query);
  void End(int id);

  /// The Query/Execute span in flight: parent of wrapper spans.
  void set_current(int span, int query) {
    current_span_ = span;
    current_query_ = query;
  }
  int current_span() const { return current_span_; }
  int current_query() const { return current_query_; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::atomic<int> current_span_{-1};
  std::atomic<int> current_query_{-1};
  std::mutex mu_;  // wrapper calls may come from a federation pool thread
  std::vector<Span> spans_;
};

/// What the tap saw across every wrapper call.
struct TapCounts {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> rows{0};
  std::atomic<int64_t> pages_read{0};
};

/// Forwarding decorator the benchmark owns: counts wrapper calls, rows
/// and pages read, and records one `wrapper.execute` span per call when
/// tracing. It changes nothing the mediator sees.
class TapWrapper : public disco::wrapper::Wrapper {
 public:
  TapWrapper(std::unique_ptr<disco::wrapper::Wrapper> inner,
             TapCounts* counts, SpanRecorder* spans)
      : inner_(std::move(inner)), counts_(counts), spans_(spans) {}

  const std::string& name() const override { return inner_->name(); }
  std::string ExportInterfaces() const override {
    return inner_->ExportInterfaces();
  }
  disco::Result<disco::CollectionStats> ExportStatistics(
      const std::string& collection) const override {
    return inner_->ExportStatistics(collection);
  }
  std::string ExportCostRules() const override {
    return inner_->ExportCostRules();
  }
  disco::optimizer::SourceCapabilities ExportCapabilities() const override {
    return inner_->ExportCapabilities();
  }
  disco::Result<disco::sources::ExecutionResult> Execute(
      const disco::algebra::Operator& subplan) override;

 private:
  std::unique_ptr<disco::wrapper::Wrapper> inner_;
  TapCounts* counts_;
  SpanRecorder* spans_;
};

/// Order-insensitive answer identity: one 64-bit hash per row, over the
/// row's values in the reference's column order. Numeric values hash by
/// value (1 and 1.0 agree), as Value::operator== compares them.
uint64_t HashRow(const std::vector<disco::Value>& values);

/// Hashes `tuples`, reordering columns to `expected` (matched by
/// unqualified, case-insensitive name; empty = every column in answer
/// order), and sorts the hashes. Fails when a column is missing.
disco::Result<std::vector<uint64_t>> HashAnswer(
    const std::vector<std::string>& columns,
    const std::vector<disco::storage::Tuple>& tuples,
    const std::vector<std::string>& expected);

/// Multiset comparison of two sorted hash vectors.
struct AnswerCheck {
  int64_t expected = 0;    ///< rows in the reference answer
  int64_t matched = 0;     ///< returned rows found in the reference
  int64_t unexpected = 0;  ///< returned rows absent from the reference
};
AnswerCheck CompareAnswers(const std::vector<uint64_t>& expected,
                           const std::vector<uint64_t>& got);

/// One operation of a workload's stream.
struct Op {
  enum class Kind { kQuery, kPlan, kWrite };
  Kind kind = Kind::kQuery;
  const char* label = "";  ///< query template / write kind
  std::string sql;                                  ///< kQuery
  std::unique_ptr<disco::algebra::Operator> plan;   ///< kPlan (Execute)
  std::function<disco::Status()> write;             ///< kWrite
  /// Reference answer: column names (empty = positional) and sorted row
  /// hashes, computed by the workload from its own row snapshot.
  std::vector<std::string> columns;
  std::vector<uint64_t> expected;
};

/// A workload owns one deployment (mediator, wrappers, sources) and the
/// benchmark-side snapshot of its data. Ops must be drawn in order.
class Workload {
 public:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generates the sources and registers the wrappers: the timed set-up.
  virtual disco::Status Build() = 0;
  /// Copies the generated rows into the reference snapshot (untimed).
  virtual disco::Status Snapshot() = 0;
  /// The next op of the seeded stream. Writes update the snapshot here;
  /// Op::write applies them to the sources.
  virtual Op Next() = 0;
  /// Runs before every op, outside its timing.
  virtual void BeforeOp() {}
  /// Ops at the head of the stream over which simulated time, q-error,
  /// completeness and every count are reported: exact for a seed.
  virtual int exact_ops() const = 0;
  /// Fault-free workloads must return exactly the reference answer.
  virtual bool fault_free() const = 0;
  /// One line per source/table for the run header.
  virtual std::string Describe() const = 0;

  disco::mediator::Mediator& med() { return *med_; }
  TapCounts& counts() { return counts_; }
  SpanRecorder& spans() { return spans_; }

 protected:
  /// Wraps `w` in the tap and registers it with the mediator.
  disco::Status Register(std::unique_ptr<disco::wrapper::Wrapper> w);

  uint64_t seed_;
  TapCounts counts_;
  SpanRecorder spans_;
  // Declared after the tap state it points to, so it is destroyed first.
  std::unique_ptr<disco::mediator::Mediator> med_;
};

std::unique_ptr<Workload> MakeOo7Workload(uint64_t seed);
std::unique_ptr<Workload> MakeStarWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeFederationWorkload(uint64_t seed);

/// Seeded low-discrepancy draws in [0, 1): a Kronecker sequence with a
/// random start. Constants drawn this way cover their range evenly for
/// every seed, so the stream's quantiles move little between seeds.
class EvenDraw {
 public:
  explicit EvenDraw(disco::Rng* rng) : u_(rng->NextDouble()) {}
  double Next() {
    u_ += 0.6180339887498949;
    if (u_ >= 1.0) u_ -= 1.0;
    return u_;
  }
  /// An integer in [lo, hi].
  int64_t NextInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() * static_cast<double>(hi - lo + 1));
  }

 private:
  double u_;
};

/// Interleaves template ids by smooth weighted round robin: every block
/// of sum(weights) draws holds exactly weights[t] of template t, spread
/// evenly, in the same order for every seed. The class sequence then
/// shapes history feedback and cache state alike across seeds, and only
/// constants and data vary.
class BlockMix {
 public:
  explicit BlockMix(std::vector<int> weights)
      : weights_(std::move(weights)), current_(weights_.size(), 0) {}
  int Next();

 private:
  std::vector<int> weights_;
  std::vector<int> current_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
