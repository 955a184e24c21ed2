// FaultInjector: replays a FaultPlan against a running SimBackend.
//
// The injector binds a plan to one backend at a time via attach(), which
// installs the InjectionHook callbacks (core/injection.hpp) and applies
// churn and corruption through the backend's SimBackend primitives
// (crash_random, rejoin_random, rejoin_all, mutate_random_agents) — nothing is
// installed for an empty plan, so an empty-plan run is bit-for-bit equal to
// an uninjected run at the same seed. Fault randomness (victim selection,
// Bernoulli triggers, corruption values) is drawn from the injector's own
// seeded Rng, independent of the engine's stream; interaction dropout draws
// from the engine Rng inside the interaction path, as any scheduler noise
// must. The injector must outlive the attached engine's run (the hooks
// capture both).
//
// Every applied event is recorded in log() — (round, kind, #agents
// affected) — so experiments can line recovery measurements up with the
// exact perturbation times.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "faults/fault_plan.hpp"
#include "support/rng.hpp"

namespace popproto {

class SimBackend;

/// The injector seed for a run whose engine is seeded with `seed`: split
/// off it so the fault randomness never perturbs the engine's own streams.
/// popprotod buckets and popsweep jobs both derive it here, so a bucket
/// and a job with equal seeds and plans fault the same agents.
constexpr std::uint64_t injector_seed(std::uint64_t seed) {
  return seed ^ 0x9e3779b97f4a7c15ull;
}

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  /// Install the plan's hooks on a backend. Re-attaching (to the same or a
  /// fresh backend) resets all firing state, so one injector can drive many
  /// seeded trials of the same plan. Attach always detaches first: any
  /// hook/bias a previously attached injector installed on this backend is
  /// cleared before the new plan binds (an empty plan therefore leaves the
  /// backend hook-free), so replacing a backend's injector never leaves a
  /// dangling hook behind.
  void attach(SimBackend& backend);

  struct Applied {
    double round = 0.0;
    FaultKind kind = FaultKind::kCorrupt;
    std::uint64_t affected = 0;  // agents touched (0 for window toggles)
  };
  const std::vector<Applied>& log() const { return log_; }

  const FaultPlan& plan() const { return plan_; }

  // -- Durable state (src/persist/, DESIGN.md §10) --------------------------
  /// Serialize the plan plus all firing state: the injector RNG stream,
  /// which one-shots already fired, which dropout/bias windows are open,
  /// the composed dropout probability, and the applied-event log. A
  /// restored injector replays exactly the *remaining* schedule.
  void snapshot(std::ostream& out) const;
  /// All-or-nothing restore, then bind to `backend` — like attach, except
  /// the restored firing state is preserved: fired one-shots do not
  /// re-fire, and open bias/dropout windows are re-applied to the engine
  /// rather than re-toggled. Restore the backend from its paired snapshot
  /// first so the schedule resumes at the right time. Throws SnapshotError
  /// on any malformed input, leaving injector and backend untouched.
  void restore(std::istream& in, SimBackend& backend);

 private:
  void reset_firing_state();
  /// Remember the backend and install the InjectionHook on it without
  /// touching firing state (shared by attach and restore).
  void bind(SimBackend& backend);
  /// Evaluate the schedule at `round`. `at_boundary` is false for the one
  /// synchronization call attach() makes at the current engine time — it
  /// fires overdue one-shots and opens covering windows, but draws no
  /// Bernoulli trials (those belong to whole-round boundaries only).
  void on_round(double round, bool at_boundary = true);
  void apply(const FaultEvent& event, std::size_t index, double round);
  std::uint64_t resolve_k(double fraction, std::uint64_t count);
  State corrupt_value(const CorruptSpec& spec, std::uint64_t j);
  double combined_dropout() const;

  FaultPlan plan_;
  Rng rng_;
  SimBackend* backend_ = nullptr;  // bound backend; not owned
  double dropout_p_ = 0.0;  // read by the installed drop_interaction hook
  std::vector<char> fired_;
  std::vector<char> window_on_;
  std::vector<Applied> log_;
};

}  // namespace popproto
