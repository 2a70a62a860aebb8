// Schedule-driven, *correlated* fault injection on the simulated clock.
//
// FaultInjectingWrapper (fault_injection.h) makes one wrapper misbehave
// according to a per-wrapper profile keyed by call index. Real
// federations fail differently: a rack loses power and every source on
// it goes down *together*, a network path degrades for a timed window,
// a source flaps, or -- worst of all -- keeps answering but answers
// garbage. FaultSchedule models exactly that:
//
// * **Fault domains** -- named groups of wrappers that share fate
//   (`DefineDomain("rack-a", {"s0", "s1"})`).
// * **Timed windows** -- each `FaultWindow` applies one effect to one
//   domain over a half-open interval [start_ms, end_ms) of the
//   schedule clock: a hard outage, a latency storm, a flap sequence
//   (square-wave up/down), or a malformed-response mode that corrupts
//   otherwise-successful answers (wrong arity, type-mismatched values,
//   NaN/inf, truncated streams).
//
// The schedule clock advances only at query boundaries: the harness
// calls `AdvanceTo(mediator.sim_now_ms())` before each query, so the
// fault state is constant *within* a query no matter how the scatter
// phase lays out its lanes -- the determinism contract (byte-identical
// reruns) survives chaos injection.
// Malformed-response corruption draws from an Rng freshly seeded per
// (schedule seed, wrapper name, call index), so it too replays
// bit-for-bit.
//
// `ScheduledFaultWrapper` is a decorator like FaultInjectingWrapper and
// composes with it: wrap the fault-injecting wrapper to layer scheduled
// correlated faults over per-wrapper background noise.

#ifndef DISCO_WRAPPER_FAULT_SCHEDULE_H_
#define DISCO_WRAPPER_FAULT_SCHEDULE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "wrapper/wrapper.h"

namespace disco {
namespace wrapper {

/// What a window does to the wrappers of its domain while active.
enum class FaultEffect {
  kOutage,        ///< every submit fails (Status::Unavailable)
  kLatencyStorm,  ///< successful submits slowed: ms * factor + added
  kFlap,          ///< square wave: down for the leading fraction of
                  ///< each period, up for the rest
  kMalform,       ///< successful submits answer corrupted rows
};

const char* FaultEffectToString(FaultEffect effect);

/// Malformed-response modes; OR them into FaultWindow::malform_modes.
enum MalformMode : uint32_t {
  kMalformArity = 1u << 0,      ///< rows gain/lose a column
  kMalformTypes = 1u << 1,      ///< values swapped to the wrong type
  kMalformNonFinite = 1u << 2,  ///< numeric values become NaN / +inf
  kMalformTruncate = 1u << 3,   ///< tail of the stream silently dropped
  kMalformAll = kMalformArity | kMalformTypes | kMalformNonFinite |
                kMalformTruncate,
};

/// One timed effect on one fault domain.
struct FaultWindow {
  std::string domain;
  double start_ms = 0;
  double end_ms = 0;  ///< half-open: active while start <= now < end
  FaultEffect effect = FaultEffect::kOutage;

  // kLatencyStorm: latency becomes ms * storm_factor + storm_added_ms.
  double storm_factor = 1.0;
  double storm_added_ms = 0.0;

  // kFlap: down while fmod(now - start, period) < down_fraction * period.
  double flap_period_ms = 0.0;
  double flap_down_fraction = 0.5;

  // kMalform: which corruptions may fire, and the per-row seeded
  // probability that a row is corrupted (truncation is per-batch).
  uint32_t malform_modes = kMalformAll;
  double malform_row_probability = 1.0;

  /// Message of injected outage/flap failures.
  std::string message = "scheduled outage";
};

/// The shared schedule: domains, windows, and the schedule clock.
/// Owned by the experiment (test / chaos harness); every
/// ScheduledFaultWrapper holds a pointer to it. Advance it only between
/// queries.
class FaultSchedule {
 public:
  explicit FaultSchedule(uint64_t seed = 0xC4405) : seed_(seed) {}

  /// Declares (or replaces) a fault domain. Member names are matched
  /// case-insensitively against wrapper names.
  void DefineDomain(const std::string& name,
                    std::vector<std::string> members);

  void AddWindow(FaultWindow window) {
    windows_.push_back(std::move(window));
  }

  /// Moves the schedule clock. Call at query boundaries only: fault
  /// state must stay constant within a query, whose concurrent lanes
  /// run one after another yet stand for the same moments.
  void AdvanceTo(double now_ms) { now_ms_ = now_ms; }
  double now_ms() const { return now_ms_; }

  uint64_t seed() const { return seed_; }

  /// Master switch: a disabled schedule injects nothing (the chaos
  /// harness runs its fault-free oracle arm this way, on the same
  /// wrapper stack).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  bool InDomain(const std::string& domain, const std::string& source) const;

  /// Windows active for `source` at the schedule clock, in insertion
  /// order. Empty when disabled.
  std::vector<const FaultWindow*> ActiveWindows(
      const std::string& source) const;

  const std::vector<FaultWindow>& windows() const { return windows_; }

 private:
  uint64_t seed_;
  bool enabled_ = true;
  double now_ms_ = 0;
  /// Domain name -> lower-cased member wrapper names.
  std::map<std::string, std::vector<std::string>> domains_;
  std::vector<FaultWindow> windows_;
};

/// Decorator applying a FaultSchedule to one wrapper. Registration
/// calls pass through; Execute() consults the schedule's active windows
/// for this wrapper's name.
class ScheduledFaultWrapper : public Wrapper {
 public:
  /// `schedule` must outlive the wrapper.
  ScheduledFaultWrapper(std::unique_ptr<Wrapper> inner,
                        const FaultSchedule* schedule);

  const std::string& name() const override;
  std::string ExportInterfaces() const override;
  Result<CollectionStats> ExportStatistics(
      const std::string& collection) const override;
  std::string ExportCostRules() const override;
  optimizer::SourceCapabilities ExportCapabilities() const override;
  Result<sources::ExecutionResult> Execute(
      const algebra::Operator& subplan) override;

  Wrapper* inner() { return inner_.get(); }
  int64_t calls() const { return calls_; }
  int64_t injected_outages() const { return injected_outages_; }
  int64_t malformed_responses() const { return malformed_responses_; }

 private:
  std::unique_ptr<Wrapper> inner_;
  const FaultSchedule* schedule_;
  int64_t calls_ = 0;
  int64_t injected_outages_ = 0;
  int64_t malformed_responses_ = 0;  ///< batches corrupted
};

}  // namespace wrapper
}  // namespace disco

#endif  // DISCO_WRAPPER_FAULT_SCHEDULE_H_
