// Injection points the fault layer (src/faults/) installs on an engine.
//
// Every SimBackend (core/sim_backend.hpp) exposes the same two-part surface
// so that a FaultPlan applies identically on all four substrates and under
// both schedulers without forking the step loops:
//   * InjectionHook — an `on_round` callback fired at every whole-round
//     boundary (where scheduled perturbations mutate the engine) and a
//     per-interaction `drop_interaction` veto (lossy communication);
//   * SchedulerBias — an ε-mixture pair-sampling skew kept as engine state
//     and consulted inside the existing sampling path.
// Every hook is optional; an engine with no hooks installed consumes the
// RNG stream exactly as an unhooked engine does, which is what makes an
// empty FaultPlan bit-for-bit equal to an uninjected run.
#pragma once

#include <functional>

#include "core/expr.hpp"
#include "support/rng.hpp"

namespace popproto {

struct InjectionHook {
  /// Fired once per whole round of parallel time (round = 1.0, 2.0, ...),
  /// after the interactions of that round, before any of the next. The
  /// callback may mutate the engine (corrupt states, crash/rejoin agents,
  /// toggle dropout/bias). Skip-ahead jumps are capped so boundaries are
  /// honoured; a manual step() that leaps several rounds fires the hook
  /// once per crossed boundary, in order.
  std::function<void(double round)> on_round;

  /// Per-interaction veto: return true to have the activated pair silently
  /// no-op (the interaction still counts toward parallel time). Draw any
  /// randomness from the passed engine Rng so runs stay seed-reproducible.
  std::function<bool(Rng&)> drop_interaction;

  bool any() const {
    return static_cast<bool>(on_round) || static_cast<bool>(drop_interaction);
  }
};

/// The whole-round firing rule every backend shares: call `hook.on_round`
/// once per whole round in (last_round, now], in order, advancing
/// `last_round` to each round as it fires. A no-op without an on_round.
inline void fire_crossed_rounds(const InjectionHook& hook, double& last_round,
                                double now) {
  if (!hook.on_round) return;
  while (last_round + 1.0 <= now) {
    last_round += 1.0;
    hook.on_round(last_round);
  }
}

/// Adversarial-scheduler stressor: with probability `epsilon` the uniformly
/// sampled initiator is redrawn (up to `tries` rejection attempts) toward an
/// agent whose state matches `prefer`; under the matching scheduler the skew
/// instead flips pair orientation toward preferred initiators. The resulting
/// pair law is a mixture within epsilon of uniform.
struct SchedulerBias {
  double epsilon = 0.0;
  Guard prefer;  // default Guard matches everything (pure resampling noise)
  int tries = 4;
};

}  // namespace popproto
