// Sharded batch-parallel simulation backend (DESIGN.md §8).
//
// Theorem 5.1 analyzes the oscillator under the *random-matching parallel
// scheduler*: each round activates a uniformly random maximal matching and
// all matched pairs interact at once. Disjoint interactions commute, which
// legitimizes executing a whole round in parallel — this engine does exactly
// that, at population sizes the one-pair-per-step Engine cannot reach in
// reasonable wall-clock time.
//
// Execution model, per round:
//   1. The scheduled population is partitioned into per-thread shards
//      (contiguous id chunks, rebalanced at every migration). Each shard
//      owns an independent RNG stream (split off the master seed via
//      splitmix64) and its own memoized TransitionCache — caches intern
//      states lazily and are not shareable across threads without locks,
//      and per-shard duplication also keeps each thread's hot tables local.
//   2. Every shard samples a uniformly random maximal matching over its own
//      agents (Fisher–Yates, exactly the sample_random_matching law) and
//      applies all matched interactions through the cached kernel. One
//      round advances parallel time by 1, as in Engine's matching_step.
//   3. Every `migrate_every` rounds the whole scheduled population is
//      globally reshuffled (a dedicated migration RNG stream) and dealt
//      back into evenly sized shards. This cross-shard migration is what
//      keeps the mean-field mixing assumption honest: between migrations a
//      shard is an isolated well-mixed subpopulation; the reshuffle makes
//      the composition over any window of M rounds statistically
//      indistinguishable from global matching for the protocols studied
//      here (tests/batch_engine_test.cpp pins KS / chi-square agreement).
//
// Sharding approximation vs. the exact global matching: per round, up to
// one agent *per shard* goes unmatched (vs. at most one globally), and
// pairs never straddle shard boundaries within a window. Both effects decay
// as O(shards / n) and vanish into the Thm 5.1 constants; with 1 thread the
// round IS an exact uniform global matching.
//
// Determinism: the trajectory is a pure function of (protocol, initial
// states, seed, thread count, migrate_every). Shards touch disjoint agents
// and private RNG streams, so OS thread scheduling cannot reorder any
// observable effect; the same configuration replays bit-for-bit at any
// machine load (and with workers pinned or not).
//
// Fault surface: the same InjectionHook / SchedulerBias points as the other
// engines (core/injection.hpp) and the SimBackend churn and corruption
// primitives FaultInjector drives. Round hooks and all churn/corruption run
// on the driving thread between rounds;
// drop_interaction and bias draws happen inside shards on the shard's own
// stream (documented in the hook contract: any engine-supplied Rng may be a
// per-shard stream).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/injection.hpp"
#include "core/protocol.hpp"
#include "core/sim_backend.hpp"
#include "core/transition_cache.hpp"
#include "observe/counters.hpp"
#include "observe/event_trace.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace popproto {

class BatchEngine final : public SimBackend {
 public:
  struct Params {
    /// Worker threads == shards. 0 picks probe_hardware_threads(). The engine
    /// lowers this until every shard holds at least min_shard agents.
    unsigned threads = 0;
    /// Minimum agents per shard; stops over-sharding small populations
    /// (a shard below ~2^12 agents spends its time on barriers, and the
    /// sharding approximation degrades as shards/n grows).
    std::size_t min_shard = std::size_t{1} << 12;
    /// Rounds between global cross-shard reshuffles. 1 = migrate every
    /// round (closest to exact global matching, most serial work); larger
    /// values amortize the O(n) shuffle. See docs/TUNING.md.
    std::uint32_t migrate_every = 4;
  };

  BatchEngine(const Protocol& protocol, std::vector<State> initial,
              std::uint64_t seed, Params params);
  /// Default parameters (overload rather than a default argument: nested
  /// default member initializers are unusable as defaults until the
  /// enclosing class is complete).
  BatchEngine(const Protocol& protocol, std::vector<State> initial,
              std::uint64_t seed);

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// One batch round: a random matching per shard, applied in parallel.
  /// Advances parallel time by exactly 1. Returns false (after still
  /// advancing time) when fewer than two agents are scheduled.
  bool step() override;

  void run_rounds(double rounds) override;

  // -- SimBackend observables ------------------------------------------------
  const char* backend_name() const override { return "batch"; }
  double rounds() const override { return time_; }
  std::uint64_t interactions() const override { return interactions_; }
  std::uint64_t active_n() const override { return active_n_; }
  std::uint64_t count_matching(const Guard& g) const override;
  using SimBackend::count_matching;  // + the BoolExpr convenience overload
  /// Sorted by state value (deterministic across runs and thread counts).
  std::vector<std::pair<State, std::uint64_t>> species() const override;
  EngineCounters counters() const override;

  void set_injection_hook(InjectionHook hook) override;
  void set_scheduler_bias(std::optional<SchedulerBias> bias) override;
  void set_event_trace(EventTrace* trace) override { trace_ = trace; }

  // -- Durable state (src/persist/, DESIGN.md §10) --------------------------
  /// Full-fidelity snapshot: per-agent states, each shard's slot-id list and
  /// private RNG stream, the migration stream, crashed ids, the migration
  /// phase, and counters. Per-shard transition caches are derived state and
  /// are relearned lazily after restore with no trajectory drift.
  void snapshot(std::ostream& out) const override;
  /// All-or-nothing restore (see SimBackend::restore). The worker pool is
  /// structural: the snapshot's shard count must equal shards() or restore
  /// throws SnapshotError{kConfigMismatch}. Adopts the saved migrate_every.
  void restore(std::istream& in) override;

  // -- Batch-specific surface ------------------------------------------------
  /// Shards actually in use (== worker threads; may be fewer than
  /// Params::threads for small populations).
  std::size_t shards() const { return shards_.size(); }
  /// The given shard's private RNG stream. Stream-state equality checks in
  /// tests compare these; see support/rng.hpp's operator== and
  /// rng_state_hex.
  const Rng& shard_rng(std::size_t s) const { return shards_[s].rng; }
  /// The dedicated cross-shard migration stream.
  const Rng& migration_rng() const { return migrate_rng_; }
  /// Total population, crashed agents included.
  std::size_t n() const { return states_.size(); }
  /// Current state of agent `id` (crashed agents report their frozen state).
  State agent_state(std::size_t id) const { return states_[id]; }

  // -- Dynamic population (churn) + targeted corruption ----------------------
  // The SimBackend primitives (core/sim_backend.hpp); all run on the driving
  // thread between rounds. Victim selection is uniform over scheduled
  // agents, drawn from the caller's `rng` so fault randomness stays off the
  // engine streams.
  std::uint64_t crash_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_all() override;
  std::uint64_t crashed_count() const { return crashed_.size(); }
  /// Overwrite the states of up to `k` distinct uniformly chosen scheduled
  /// agents: victim j (drawn without replacement) with old state s gets
  /// f(s, j). Returns the number drawn; corrupted_agents counts only the
  /// rewrites that changed a state.
  std::uint64_t mutate_random_agents(
      std::uint64_t k, Rng& rng,
      const std::function<State(State old_state, std::uint64_t j)>& f)
      override;

 protected:
  EventTrace* event_trace() const override { return trace_; }

 private:
  // One shard: the packed slot array (interned-index shadow in the high 32
  // bits, agent id in the low 32 — one 64-bit swap moves both during the
  // matching shuffle), a private RNG stream, a private transition cache,
  // and private telemetry tallies.
  //
  // alignas(64): shards live contiguously in shards_, and every member up
  // to `cache` is written by its owning worker on every round — without the
  // alignment, shard s's RNG state and shard s+1's counters land on one
  // cache line and each round ping-pongs it between cores. Hot mutable
  // members are grouped at the front (same line as the slots pointer);
  // the cache (large, cold header) sits last. The per-agent states_ array
  // is still shared — after a migration, shards write scattered entries of
  // it, which is inherent to global-state sharing and decays with n.
  struct alignas(64) Shard {
    Rng rng;
    std::uint64_t pairs = 0;  // pairs matched in the last round
    std::vector<std::uint64_t> slots;
    EngineCounters ctr;
    TransitionCache cache;
  };
  // The alignment audit the layout comment above relies on (a Shard that
  // straddles lines would silently reintroduce the ping-pong).
  static_assert(alignof(Shard) == 64, "shards must be cache-line aligned");
  static_assert(sizeof(Shard) % 64 == 0,
                "shards_ packs Shards contiguously; size must pad to lines");

  static std::uint64_t pack(std::uint32_t sidx, std::uint32_t id) {
    return (static_cast<std::uint64_t>(sidx) << 32) | id;
  }
  static std::uint32_t slot_id(std::uint64_t slot) {
    return static_cast<std::uint32_t>(slot);
  }

  void shard_round(Shard& sh);
  void resolve(Shard& sh, std::uint64_t& sa, std::uint64_t& sb, double u);
  void migrate();
  /// Reset every slot's interned-index shadow (after external state
  /// mutation; each shard relearns lazily against its own cache).
  void invalidate_sidx();
  /// Locate the r-th scheduled agent (0 <= r < active_n_) as (shard, pos).
  std::pair<std::size_t, std::size_t> locate(std::uint64_t r) const;

  const Protocol& protocol_;
  Params params_;
  std::vector<State> states_;
  std::vector<Shard> shards_;
  Rng migrate_rng_;
  std::uint64_t interactions_ = 0;
  double time_ = 0.0;
  std::uint64_t active_n_ = 0;
  std::uint32_t rounds_since_migrate_ = 0;
  double last_injection_round_ = 0.0;
  bool sidx_dirty_ = false;
  InjectionHook injection_;
  std::optional<SchedulerBias> bias_;
  EventTrace* trace_ = nullptr;
  EngineCounters ctr_;  // engine-level tallies (churn, corruption)
  // cache_builds accounting across restore (per-shard caches survive a
  // restore un-serialized): counters() reports
  // base + (sum of shard builds - floor).
  std::uint64_t cache_builds_base_ = 0;
  std::uint64_t cache_builds_floor_ = 0;
  std::vector<std::uint32_t> crashed_;  // crashed agent ids (states frozen)
  std::vector<std::uint32_t> migration_buf_;
  // One participant per shard: the driving thread runs shard 0, and helper
  // s - 1 shard s (support/thread_pool.hpp). Declared last, so its helpers
  // are joined before anything a round touches is destroyed.
  ThreadPool pool_;
};

}  // namespace popproto
