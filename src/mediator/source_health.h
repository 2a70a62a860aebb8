// Per-source health tracking: a circuit breaker over the simulated
// clock.
//
// Every submit outcome is reported here. After `failure_threshold`
// consecutive failures a source's breaker opens: further submits are
// rejected immediately (Status::Unavailable) instead of burning retries
// against a dead source, and the optimizer routes around the source
// when an equivalent collection exists elsewhere. After `cooldown_ms`
// of simulated time the breaker moves to half-open and lets exactly
// *one* submit through as a probe (concurrent submits racing the probe
// are rejected until the probe resolves): success re-closes the
// breaker, failure re-opens it for another cooldown.
//
//        K consecutive failures          cooldown elapses
//   closed ----------------------> open -----------------> half-open
//     ^                             ^                          |
//     |        probe succeeds       |      probe fails         |
//     +-----------------------------+--------------------------+
//
// Two refinements on the textbook machine:
//
// * **Flap damping.** A source that keeps failing its probes gets an
//   exponentially growing cooldown: from the second consecutive failed
//   probe onward the effective cooldown doubles per failure, capped at
//   `cooldown_ms * 2^max_cooldown_doublings`. A successful probe
//   resets the damping.
// * **Lying sources.** The result guard (mediator/result_guard.h)
//   reports batches whose rows failed schema validation via
//   RecordMalformed. `malformed_threshold` consecutive malformed
//   batches open the breaker with `SourceHealth::lying = true` -- the
//   breaker distinguishes a source that is *down* from one that is
//   *answering garbage*, and both are routed around the same way.
//
// All timestamps are simulated milliseconds (the mediator's cumulative
// execution clock), so breaker behaviour is deterministic and
// reproducible bit-for-bit.

#ifndef DISCO_MEDIATOR_SOURCE_HEALTH_H_
#define DISCO_MEDIATOR_SOURCE_HEALTH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace disco {
namespace mediator {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateToString(BreakerState state);

struct SourceHealthOptions {
  /// Consecutive failures that open the breaker.
  int failure_threshold = 3;
  /// Simulated ms the breaker stays open before allowing a probe.
  double cooldown_ms = 60000.0;
  /// Consecutive malformed (guard-quarantined) batches that open the
  /// breaker as a lying source.
  int malformed_threshold = 3;
  /// Flap-damping cap: the effective cooldown never exceeds
  /// `cooldown_ms * 2^max_cooldown_doublings`.
  int max_cooldown_doublings = 5;
};

/// Everything tracked for one source.
struct SourceHealth {
  BreakerState state = BreakerState::kClosed;
  int consecutive_failures = 0;
  int64_t total_failures = 0;
  int64_t total_successes = 0;
  int64_t rejected_submits = 0;  ///< submits refused while open or probing
  double opened_at_ms = 0;
  double last_failure_ms = 0;
  /// A half-open probe has been admitted and has not resolved yet;
  /// further submits are rejected until RecordSuccess/RecordFailure, or
  /// until a full cooldown passes with the probe unresolved (a lost
  /// probe must not wedge the breaker half-open).
  bool probe_in_flight = false;
  double probe_started_ms = 0;
  /// Failed half-open probes since the breaker last closed (drives the
  /// flap-damped cooldown).
  int consecutive_probe_failures = 0;
  /// The last open was caused by malformed responses, not failures.
  bool lying = false;
  int64_t malformed_batches = 0;    ///< batches with quarantined rows
  int64_t quarantined_rows = 0;     ///< rows dropped by the result guard
  int consecutive_malformed_batches = 0;  ///< reset by a well-formed batch
};

class SourceHealthRegistry {
 public:
  explicit SourceHealthRegistry(SourceHealthOptions options = {})
      : options_(options) {}

  /// Gate consulted before each submit. Open breakers whose (flap-
  /// damped) cooldown has elapsed transition to half-open and admit the
  /// submit as a probe; open breakers still cooling down, and half-open
  /// breakers whose single probe is already in flight, reject it (and
  /// count the rejection).
  bool AllowSubmit(const std::string& source, double now_ms);

  void RecordSuccess(const std::string& source, double now_ms);
  void RecordFailure(const std::string& source, double now_ms);

  /// Result-guard verdicts. A malformed batch (rows quarantined by
  /// mediator/result_guard.h) counts toward the lying-source threshold;
  /// a well-formed batch resets the consecutive count.
  void RecordMalformed(const std::string& source, double now_ms,
                       int64_t quarantined_rows);
  void RecordWellFormed(const std::string& source, double now_ms);

  /// Effective state at `now_ms` (an open breaker past its cooldown
  /// reads as half-open). Unknown sources are closed.
  BreakerState StateAt(const std::string& source, double now_ms) const;

  /// The flap-damped cooldown currently applied to `source`:
  /// `cooldown_ms * 2^min(max(0, consecutive_probe_failures - 1),
  /// max_cooldown_doublings)`. Unknown sources report the base cooldown.
  double EffectiveCooldownMs(const std::string& source) const;

  /// Raw counters (state as last recorded, without the cooldown view).
  SourceHealth Health(const std::string& source) const;

  /// Sources whose breaker is effectively open at `now_ms` -- what the
  /// optimizer should route around.
  std::vector<std::string> OpenSources(double now_ms) const;

  /// Forgets everything recorded about `source` (administrative reset,
  /// e.g. after re-registration).
  void Reset(const std::string& source);

  /// Installs `health` as the state of `source` verbatim (no listener
  /// notification). A concurrent submit lane (mediator/exec.h) seeds a
  /// private registry from a snapshot of the shared one with this,
  /// gates the lane's submits against the private copy, and its owner
  /// replays the recorded outcomes into the shared registry in
  /// timestamp order at gather time.
  void Adopt(const std::string& source, const SourceHealth& health);

  const SourceHealthOptions& options() const { return options_; }

  /// Observer invoked on every breaker state change (closed -> open,
  /// open -> half-open probe, half-open -> closed/open), with the
  /// lower-cased source name and the simulated timestamp of the change.
  /// The observability layer hooks metrics counters and trace events
  /// here; pass nullptr to detach.
  using TransitionListener = std::function<void(
      const std::string& source, BreakerState from, BreakerState to,
      double now_ms)>;
  void SetTransitionListener(TransitionListener listener) {
    listener_ = std::move(listener);
  }

 private:
  /// Applies a state change and notifies the listener if it is a change.
  void Transition(const std::string& source_lower, SourceHealth* h,
                  BreakerState to, double now_ms);

  /// The flap-damped cooldown for one health record.
  double CooldownFor(const SourceHealth& h) const;

  SourceHealthOptions options_;
  /// Keyed by lower-cased source name.
  std::map<std::string, SourceHealth> health_;
  TransitionListener listener_;
};

}  // namespace mediator
}  // namespace disco

#endif  // DISCO_MEDIATOR_SOURCE_HEALTH_H_
