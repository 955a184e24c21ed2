// Recovery-time instrumentation for self-stabilization experiments.
//
// A RecoveryProbe turns a stream of (round, healthy?) observations plus
// fault-burst markers into the two quantities the paper's stabilization
// claims are about: time-to-first-violation (how quickly a perturbation is
// visible in the healthy predicate) and time-to-restabilize (how long until
// the predicate holds again — optionally required to hold for a settle
// window, to reject transient flickers). Healthy predicates are
// protocol-specific and supplied by the caller: oscillator phase coherence
// (a suppressed minority species), clock tick regularity / digit spread,
// leader uniqueness, ...
//
// Aggregation across seeded trials (median / tail statistics) is the
// existing experiment harness's job: run one probe per trial and feed
// recovery_time() into run_sweep / summarize.
#pragma once

#include <optional>
#include <vector>

#include "observe/event_trace.hpp"
#include "support/stats.hpp"

namespace popproto {

struct RecoveryEvent {
  double fault_round = 0.0;
  /// First observation at/after the fault where the predicate failed.
  std::optional<double> violated_round;
  /// Start of the first healthy stretch (of length >= stable_for) after the
  /// fault. 0-delay recovery (fault never violated the predicate, or healed
  /// before the first observation) is a valid outcome.
  std::optional<double> recovered_round;

  bool recovered() const { return recovered_round.has_value(); }
  double recovery_time() const { return *recovered_round - fault_round; }
};

class RecoveryProbe {
 public:
  /// `stable_for`: how long the predicate must hold continuously before the
  /// population counts as restabilized (0 = first healthy observation).
  explicit RecoveryProbe(double stable_for = 0.0);

  /// Mark a fault burst. An unrecovered previous event stays incomplete
  /// (its recovery was pre-empted by the new burst). `round` may lie in the
  /// future (a scheduled burst announced at attach time): observations
  /// before it are ignored for this event.
  void on_fault(double round);

  /// Feed one observation of the healthy predicate; call on a (roughly)
  /// regular round grid — the probe's resolution is the observation grid.
  void observe(double round, bool healthy);

  const std::vector<RecoveryEvent>& events() const { return events_; }

  /// Recovery times of completed events, in order.
  std::vector<double> recovery_times() const;
  /// Fault-to-first-violation delays of events that showed a violation.
  std::vector<double> violation_delays() const;

  Summary recovery_summary() const { return summarize(recovery_times()); }

  /// Convenience for single-burst trials: recovery time of the last event,
  /// or nullopt when it never restabilized (feeds TrialFn directly).
  std::optional<double> last_recovery_time() const;

  /// Mirror the probe's lifecycle into a telemetry trace (not owned):
  /// fault_injected on each burst, violation_observed on the first failed
  /// observation, recovery_complete (value = recovery time) on settle.
  void set_event_trace(EventTrace* trace) { trace_ = trace; }

 private:
  double stable_for_;
  std::vector<RecoveryEvent> events_;
  std::optional<double> healthy_since_;  // start of current healthy stretch
  EventTrace* trace_ = nullptr;
};

}  // namespace popproto
