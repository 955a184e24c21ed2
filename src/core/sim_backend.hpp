// SimBackend — the common simulation-backend interface (DESIGN.md §8).
//
// Four substrates simulate the same stochastic process at different
// operating points:
//
//   * Engine          (core/engine.hpp)       — agent-based, one interaction
//     (or one matching round) per step on one thread; the reference
//     implementation of both paper schedulers.
//   * CountEngine     (core/count_engine.hpp) — species-abundance counts
//     with exact geometric skip-ahead and O(√n)-amortized collision-sampled
//     batches; the late-stage / sparse-dynamics backend.
//   * BatchEngine     (core/batch_engine.hpp) — sharded batch-parallel
//     random-matching rounds (§5.2 / Thm 5.1 scheduler) across worker
//     threads; the large-n per-agent throughput backend.
//   * CountShardEngine (core/count_shard_engine.hpp) — species-count shards
//     each advancing collision-sampled batches, with hypergeometric
//     cross-shard migration; the extreme-n (2^30) parallel backend.
//
// This interface is the part every driver (benches, FaultInjector,
// Telemetry, experiment sweeps, popprotod) actually consumes: advance time,
// observe the configuration, install fault hooks, churn and corrupt agents,
// detect quiescence, snapshot counters. Substrate-specific surfaces
// (per-agent access, skip-mode control, thread counts) stay on the concrete
// classes, and the per-interaction hot paths never cross a virtual call:
// virtual dispatch happens at the granularity of run_rounds()/step(), whose
// bodies loop internally.
//
// Semantics shared by every implementation:
//   * rounds() is parallel time — n_active sequential interactions, or one
//     full matching, advance it by 1.
//   * count_matching()/species()/active_n() describe the *scheduled*
//     (non-crashed) population.
//   * An engine with no hooks installed consumes its RNG stream exactly as
//     an unhooked engine does (the fault layer's bit-for-bit guarantee).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <utility>
#include <vector>

#include "core/expr.hpp"
#include "core/injection.hpp"
#include "core/state.hpp"
#include "observe/counters.hpp"
#include "observe/event_trace.hpp"

namespace popproto {

class SimBackend {
 public:
  virtual ~SimBackend() = default;

  /// Stable identifier of the substrate: "agent", "count", "batch", or
  /// "count_shard".
  virtual const char* backend_name() const = 0;

  /// One scheduler activation (one interaction, one skip-ahead jump, or one
  /// batch round, depending on the substrate). Returns false iff the
  /// configuration is silent / cannot make progress — parallel time still
  /// advances so driver loops terminate.
  virtual bool step() = 0;

  /// Run for (at least) `rounds` additional units of parallel time.
  virtual void run_rounds(double rounds) = 0;

  /// Run until `predicate(*this)` holds, checking every `check_interval`
  /// rounds; nullopt on timeout. Same resolution caveat as the concrete
  /// engines' run_until: the returned value is the parallel time of the
  /// first *check* at which the predicate held, quantized up to the check
  /// grid (backends whose step spans a whole round check at least once per
  /// round). Pushes kConvergenceDetected to the attached event trace.
  ///
  /// Edge contract (pinned by engine_test RunUntil* regressions):
  ///  * the predicate is always evaluated once up front — an
  ///    already-satisfied predicate returns the current rounds() without
  ///    running, even with max_rounds = 0;
  ///  * `max_rounds` is an absolute horizon in parallel time, not a
  ///    duration: a backend already at or past it gets the initial check
  ///    and nothing else;
  ///  * the last interval is clamped to `max_rounds - rounds()`, so the
  ///    final check lands on the horizon (check_interval > max_rounds
  ///    still checks, exactly once, at max_rounds) and a timed-out backend
  ///    is left within one activation of max_rounds, never a whole
  ///    check_interval past it;
  ///  * a backend that turns quiescent() returns nullopt at the first
  ///    check after it went silent, without running on to the horizon.
  using Predicate = std::function<bool(const SimBackend&)>;
  std::optional<double> run_until(const Predicate& predicate,
                                  double max_rounds,
                                  double check_interval = 1.0);

  virtual double rounds() const = 0;
  virtual std::uint64_t interactions() const = 0;
  /// Scheduled (non-crashed) population size.
  virtual std::uint64_t active_n() const = 0;

  /// Number of scheduled agents whose state satisfies the guard (O(n) or
  /// O(#species) scan, depending on the substrate).
  virtual std::uint64_t count_matching(const Guard& g) const = 0;
  std::uint64_t count_matching(const BoolExpr& e) const {
    return count_matching(Guard(e));
  }
  bool exists(const BoolExpr& e) const { return count_matching(e) > 0; }

  /// Snapshot of the scheduled population by species: (state, count) pairs,
  /// counts summing to active_n(). Ordering is substrate-defined.
  virtual std::vector<std::pair<State, std::uint64_t>> species() const = 0;

  /// Telemetry counter snapshot (observe/counters.hpp).
  virtual EngineCounters counters() const = 0;

  /// Fault-layer injection points (core/injection.hpp, src/faults/).
  virtual void set_injection_hook(InjectionHook hook) = 0;
  virtual void set_scheduler_bias(std::optional<SchedulerBias> bias) = 0;

  // -- Churn and corruption (src/faults/) -----------------------------------
  // Victims are uniform over the scheduled agents and drawn from the
  // caller's `rng`, so fault randomness stays off the engine's streams.
  // Driver-thread only, between activations (FaultInjector calls them from
  // on_round).
  /// Crash up to `k` scheduled agents (state frozen while away); at least
  /// two stay scheduled. Returns the number crashed.
  virtual std::uint64_t crash_random(std::uint64_t k, Rng& rng) = 0;
  /// Return up to `k` uniformly chosen crashed agents with their stale
  /// state. Returns the number rejoined.
  virtual std::uint64_t rejoin_random(std::uint64_t k, Rng& rng) = 0;
  /// Return every crashed agent; draws nothing. Returns the number rejoined.
  virtual std::uint64_t rejoin_all() = 0;
  /// Rewrite `min(k, active_n())` distinct uniformly drawn scheduled
  /// agents: victim j (j = 0, 1, ...) with old state s gets f(s, j).
  /// Returns the number drawn; the corrupted_agents counter and the
  /// kFaultInjected trace value count only the rewrites that changed a
  /// state.
  virtual std::uint64_t mutate_random_agents(
      std::uint64_t k, Rng& rng,
      const std::function<State(State old_state, std::uint64_t j)>& f) = 0;

  /// True when no activation can change the configuration any more and no
  /// fault schedule is installed that could perturb it, so run_until may
  /// stop early. Backends that never detect silence keep the default.
  virtual bool quiescent() const { return false; }

  /// Attach (or, with nullptr, detach) a structured event sink. Not owned.
  virtual void set_event_trace(EventTrace* trace) = 0;

  // -- Durable state (src/persist/, DESIGN.md §10) --------------------------
  /// Serialize the complete simulation state — population/species, churn
  /// state, accumulated rounds/interactions, every RNG stream, telemetry
  /// counters, and engine-specific config — as a versioned, checksummed
  /// binary snapshot. A trajectory restored from the snapshot is
  /// bit-identical to one that never stopped. Runtime attachments (hooks,
  /// traces, an externally set SchedulerBias) are NOT included: re-attach
  /// them after restore (FaultInjector::restore resumes a fault schedule,
  /// including its open bias/dropout windows). Throws SnapshotError{kIo} if
  /// the stream rejects the write. Driver-thread only, like churn.
  virtual void snapshot(std::ostream& out) const = 0;

  /// Replace this backend's simulation state with a snapshot previously
  /// written by the same substrate (backend_name must match) under the same
  /// protocol (fingerprint-checked) and compatible structural config.
  /// All-or-nothing: the stream is parsed and validated into staging
  /// storage first, so a corrupt/truncated/mismatched snapshot throws a
  /// typed SnapshotError and leaves this backend untouched.
  virtual void restore(std::istream& in) = 0;

 protected:
  /// The currently attached event sink (nullptr when none); lets the shared
  /// run_until record convergence without owning a trace pointer here.
  virtual EventTrace* event_trace() const = 0;
};

}  // namespace popproto
