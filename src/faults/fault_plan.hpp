// Fault-injection plans: schedules of adversarial perturbation events.
//
// The paper's central constructions are *self-stabilizing*: the oscillator
// P_o and the phase clocks built on it recover from any reachable
// configuration in O(log n) parallel time (Thm 5.1/5.2), and the
// leader-election/majority protocols tolerate adversarial initial
// conditions. A FaultPlan is the experimental counterpart of that
// adversary: a schedule of perturbation events — state corruption, agent
// crash & rejoin (churn), interaction dropout, and scheduler bias — that a
// FaultInjector (src/faults/injector.hpp) replays against any running
// SimBackend through the InjectionHook surface (core/injection.hpp) and the
// backend's churn and corruption primitives (core/sim_backend.hpp).
//
// Triggers are either one-shot ("at round t") or Bernoulli-per-round
// ("each round in [from, until), fire with probability rate"); dropout and
// bias are windowed toggles. An empty plan installs nothing and is
// bit-for-bit identical to an uninjected run at the same seed.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/injection.hpp"
#include "core/state.hpp"

namespace popproto {

enum class FaultKind { kCorrupt, kCrash, kRejoin, kDropout, kBias };

/// How corrupted agents' states are rewritten.
enum class CorruptMode {
  kFixed,   // every victim gets `fixed_state`
  kRandom,  // every victim gets an independent uniform draw from `palette`
  kSpread,  // victims are dealt round-robin across `palette` — the
            // adversarial "push toward the interior fixed point" pattern
};

/// State corruption: overwrite `count` agents (or a `fraction` of the
/// scheduled population when count == 0), touching only the bits in `mask`.
struct CorruptSpec {
  double fraction = 0.0;
  std::uint64_t count = 0;
  CorruptMode mode = CorruptMode::kFixed;
  State fixed_state = 0;
  std::vector<State> palette;        // required for kRandom / kSpread
  State mask = ~static_cast<State>(0);  // bits the corruption may rewrite
};

/// Crash: remove agents from the scheduled set (their state freezes).
struct CrashSpec {
  double fraction = 0.0;
  std::uint64_t count = 0;
};

/// Rejoin: return crashed agents, possibly with stale state, to the
/// scheduled set. `all` rejoins every crashed agent.
struct RejoinSpec {
  double fraction = 0.0;
  std::uint64_t count = 0;
  bool all = false;
};

struct FaultEvent {
  FaultKind kind = FaultKind::kCorrupt;
  // One-shot events (corrupt/crash/rejoin with rate == 0) fire at the first
  // round boundary >= at_round. Bernoulli events (rate > 0) fire each round
  // in [from_round, until_round) with probability min(rate, 1). Windowed
  // toggles (dropout/bias) are active on rounds in [from_round, until_round).
  double at_round = 0.0;
  double rate = 0.0;
  double from_round = 0.0;
  double until_round = std::numeric_limits<double>::infinity();

  CorruptSpec corrupt;
  CrashSpec crash;
  RejoinSpec rejoin;
  double dropout_p = 0.0;
  SchedulerBias bias;
};

/// Thrown by FaultPlan::parse_event with a caller-presentable message.
struct FaultParseError {
  std::string message;
};

/// Builder/container for a perturbation schedule. All builder methods
/// return *this for chaining; plans are value types and reusable across
/// engines and trials (the injector keeps per-run firing state).
class FaultPlan {
 public:
  /// Append the event tokens[from..] describe, in the text form shared by
  /// popprotod's `inject` and popsweep's `fault` key:
  ///   crash|corrupt <round> <fraction>    round >= 0, fraction in (0, 1]
  ///   rejoin <round> all|<fraction>
  ///   dropout <from> <until> <p>          from >= 0, until > from, p in (0, 1]
  /// A text `corrupt` rewrites its victims to the all-zero state over the
  /// full mask. Throws FaultParseError and leaves the plan unchanged on
  /// malformed input.
  FaultPlan& parse_event(const std::vector<std::string>& tokens,
                         std::size_t from);

  FaultPlan& corrupt_at(double round, CorruptSpec spec);
  FaultPlan& corrupt_bernoulli(double rate, double from, double until,
                               CorruptSpec spec);
  FaultPlan& crash_at(double round, CrashSpec spec);
  FaultPlan& crash_bernoulli(double rate, double from, double until,
                             CrashSpec spec);
  FaultPlan& rejoin_at(double round, RejoinSpec spec);
  FaultPlan& rejoin_bernoulli(double rate, double from, double until,
                              RejoinSpec spec);
  /// Lossy communication: activated pairs no-op with probability `p` on
  /// every round in [from, until).
  FaultPlan& dropout_window(double from, double until, double p);
  /// Adversarial-scheduler stressor on rounds in [from, until).
  FaultPlan& bias_window(double from, double until, SchedulerBias bias);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }
  /// Largest finite round any event can still fire at (0 for an empty
  /// plan); useful for sizing experiment horizons.
  double last_scheduled_round() const;

  /// Reconstruct a plan from raw events (deserialize_fault_plan); bypasses
  /// the builder checks, which already held when the events were built.
  static FaultPlan from_events(std::vector<FaultEvent> events);

 private:
  FaultEvent& push(FaultKind kind);
  std::vector<FaultEvent> events_;
};

// -- Persistence (src/persist/, DESIGN.md §10) -------------------------------
class BinWriter;
class BinReader;

/// Serialize every event of the plan — kind, trigger times/rates, and the
/// full spec payloads (corrupt palettes/masks, bias guards as compiled
/// minterms) — as a kFaultPlan section body. Round-trips exactly.
void serialize_fault_plan(BinWriter& w, const FaultPlan& plan);
/// Inverse of serialize_fault_plan. Throws SnapshotError{kCorrupt} on
/// malformed kinds/modes or a kRandom/kSpread corruption without a palette
/// (which could otherwise abort at fire time).
FaultPlan deserialize_fault_plan(BinReader& r);

}  // namespace popproto
