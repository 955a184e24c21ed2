// Agent-based simulation engine for protocols over boolean state variables.
#pragma once

#include <functional>
#include <optional>

#include "core/injection.hpp"
#include "core/protocol.hpp"
#include "core/scheduler.hpp"
#include "core/sim_backend.hpp"
#include "core/transition_cache.hpp"
#include "observe/counters.hpp"
#include "observe/event_trace.hpp"
#include "support/rng.hpp"

namespace popproto {

/// Drives a Protocol on a vector of agent states under a chosen scheduler.
///
/// Parallel time accounting: one sequential interaction advances time by
/// 1/n_active rounds; one random-matching activation advances time by one
/// round. n_active is the number of non-crashed agents, so parallel time
/// stays calibrated to the scheduled population under churn.
///
/// Implements SimBackend (core/sim_backend.hpp) as the "agent" substrate.
/// run_steps and run_rounds share one private block loop (advance), so the
/// per-interaction hot path (advance / resolve_cached) never crosses a
/// virtual boundary on either entry point.
class Engine final : public SimBackend {
 public:
  Engine(const Protocol& protocol, std::vector<State> initial_states,
         std::uint64_t seed,
         SchedulerKind scheduler = SchedulerKind::kSequential);

  /// One scheduler activation: a single interaction (sequential) or a full
  /// random matching (matching scheduler). Always returns true (an agent
  /// engine is never silent; rules may still all be no-ops).
  bool step() override;

  /// Exactly `k` scheduler activations: the same trajectory, counters and
  /// RNG position as calling step() k times.
  void run_steps(std::uint64_t k);

  /// Run for (at least) `rounds` additional units of parallel time: the
  /// same trajectory as `while (rounds() < target) step()`.
  void run_rounds(double rounds) override;

  /// Toggle the memoized transition kernel (on by default). Both settings
  /// produce bit-identical trajectories from the same seed — the uncached
  /// path recomputes the same fused distribution per interaction — so this
  /// exists for benchmarking and for protocols whose reachable state space
  /// exceeds the cache cap (which otherwise degrade to per-pair fallback
  /// automatically; see core/transition_cache.hpp). The uncached path keeps
  /// no interned-index shadow, so turning the cache back on rebuilds it.
  void set_transition_cache(bool enabled);
  const TransitionCache& transition_cache() const { return cache_; }

  /// Fault-layer injection points (see core/injection.hpp). Unset hooks
  /// leave the engine's RNG stream and trajectory bit-for-bit unchanged.
  void set_injection_hook(InjectionHook hook) override;
  /// Enable (or, with nullopt, disable) the ε-of-uniform pair-sampling skew.
  void set_scheduler_bias(std::optional<SchedulerBias> bias) override;

  // -- Dynamic population (agent churn) -------------------------------------
  /// Remove agent `i` from the scheduled set: it takes part in no further
  /// interactions and its state is frozen until it rejoins. At least two
  /// agents must remain active. No-op if already crashed.
  void crash_agent(std::size_t i);
  /// Return a crashed agent to the scheduled set with its stale state, or
  /// with `fresh` when provided. No-op if the agent is active.
  void rejoin_agent(std::size_t i);
  void rejoin_agent(std::size_t i, State fresh);
  bool is_active(std::size_t i) const {
    return pos_in_active_[i] != kNotActive;
  }
  std::size_t active_count() const { return active_.size(); }
  /// SimBackend churn and corruption: partial Fisher–Yates over the active
  /// (crash, corrupt) or crashed (rejoin) ids; rejoin_all goes in id order.
  std::uint64_t crash_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_all() override;
  std::uint64_t mutate_random_agents(
      std::uint64_t k, Rng& rng,
      const std::function<State(State old_state, std::uint64_t j)>& f)
      override;

  // -- Observability (src/observe/, DESIGN.md §7) ---------------------------
  /// Telemetry counter snapshot: engine-side tallies merged with the
  /// transition cache's build count. Cheap tier is always maintained;
  /// cache_hits stays 0 unless built with POPPROTO_PROFILE.
  EngineCounters counters() const override;
  /// Attach (or, with nullptr, detach) a structured event sink. The engine
  /// pushes churn events and run_until convergence; it never owns the trace.
  void set_event_trace(EventTrace* trace) override { trace_ = trace; }

  // -- SimBackend observables (core/sim_backend.hpp) ------------------------
  const char* backend_name() const override { return "agent"; }
  std::uint64_t active_n() const override { return active_.size(); }
  /// Scheduled agents whose state satisfies the guard (crashed agents'
  /// frozen states are excluded, matching the other backends). Both this
  /// and species() read the per-species counts in O(species) while they are
  /// live (see species_n_); otherwise they scan the active agents.
  std::uint64_t count_matching(const Guard& g) const override;
  using SimBackend::count_matching;  // + the BoolExpr convenience overload
  std::vector<std::pair<State, std::uint64_t>> species() const override;

  // -- Durable state (src/persist/, DESIGN.md §10) --------------------------
  /// Full-fidelity snapshot: per-agent states, active set, RNG stream,
  /// scheduler/cache config, time base and counters. The transition cache is
  /// NOT serialized — both kernel paths are bit-identical, so a restored
  /// engine relearns pair bindings lazily with no trajectory drift.
  void snapshot(std::ostream& out) const override;
  /// All-or-nothing restore (see SimBackend::restore). Adopts the saved
  /// scheduler kind, cache toggle, and population size; hooks, traces, and
  /// bias are runtime attachments and must be re-installed by the caller.
  void restore(std::istream& in) override;

  double rounds() const override { return time_; }
  std::uint64_t interactions() const override { return interactions_; }
  /// Agent i's state; a crashed agent keeps its frozen one.
  State agent_state(std::size_t i) const { return states_[i]; }
  /// Set agent i's state outside an interaction: the one write path into
  /// the population from outside the engine. Keeps the interned-index
  /// shadow and the species counts exact.
  void set_state(std::size_t i, State s);
  /// The engine's stream, for comparing positions or saving it.
  const Rng& rng() const { return rng_; }
  std::size_t n() const { return states_.size(); }

 protected:
  EventTrace* event_trace() const override { return trace_; }

 private:
  static constexpr std::uint32_t kNotActive = ~0u;

  /// The loop behind run_steps and run_rounds: step until `max_steps`
  /// activations ran or time_ reached `target_time`, whichever is first.
  /// Plain configurations run in prefetching blocks; all others call step().
  void advance(std::uint64_t max_steps, double target_time);
  void sequential_step();
  void matching_step();
  /// Apply one interaction of the protocol to the ordered pair (a, b),
  /// honouring dropout and rule sampling. Shared by both schedulers.
  void interact(std::uint32_t a, std::uint32_t b);
  /// Cached-kernel half of interact(): resolve the fused draw `u` on the
  /// ordered pair via the interned-index shadow. Requires sidx_ in sync.
  void resolve_cached(std::uint32_t a, std::uint32_t b, double u);
  /// ε-mixture initiator skew for a sequential pair (see SchedulerBias).
  void bias_sequential_pair(std::uint32_t& a, std::uint32_t b);
  /// Rebuild the interned-index shadow and the species counts from states_
  /// (construction, and when the cache is turned back on).
  void resync_sidx();
  /// Intern every state of `states` into `sidx` and count the active
  /// agents (`pos` entry not kNotActive) per interned index into `counts`
  /// (sized to the cache cap; not live once the cap is reached).
  void intern_all(const std::vector<State>& states,
                  const std::vector<std::uint32_t>& pos,
                  std::vector<std::uint32_t>& sidx,
                  std::vector<std::uint64_t>& counts);
  /// True while species_n_ counts every active agent exactly.
  bool counts_live() const { return use_cache_ && !cache_.cap_reached(); }

  const Protocol& protocol_;
  std::vector<State> states_;  // agent id -> state
  Rng rng_;
  SchedulerKind scheduler_;
  TransitionCache cache_;
  bool use_cache_ = true;
  std::uint64_t interactions_ = 0;
  double time_ = 0.0;
  double inv_active_ = 0.0;  // 1 / active_.size(), kept in sync with churn
  double last_injection_round_ = 0.0;
  InjectionHook injection_;
  // Telemetry tallies (interactions_ stays the master interaction count;
  // counters() merges it in). Maintained only on slow/branchy paths.
  EngineCounters ctr_;
  // cache_builds accounting across restore: the cache object survives a
  // restore un-serialized, so counters() reports
  //   base + (cache_.builds() - floor)
  // where base is the snapshot's total and floor the cache's build count at
  // restore time. Both stay 0 on an engine that never restored.
  std::uint64_t cache_builds_base_ = 0;
  std::uint64_t cache_builds_floor_ = 0;
  EventTrace* trace_ = nullptr;
  std::optional<SchedulerBias> bias_;
  std::vector<std::uint32_t> active_;         // scheduled agent ids
  std::vector<std::uint32_t> pos_in_active_;  // agent id -> index in active_
  // Agent id -> interned state index in cache_ (kNoState past the cache
  // cap); a shadow of states_ that lets interact() skip the State -> index
  // hash. Every write to states_ is the engine's own, so the cached path
  // keeps it exact; the uncached path leaves it stale until the cache is
  // back on.
  std::vector<std::uint32_t> sidx_;
  // Active agents per interned state index, updated beside sidx_ by every
  // engine mutation (interactions, churn, set_state, corruption, restore).
  // Exact while counts_live(): the cache is on and not past its cap (agents
  // without an index go uncounted).
  std::vector<std::uint64_t> species_n_;
  bool active_identity_ = true;  // active_[i] == i (no crash yet)
  std::vector<std::pair<std::uint32_t, std::uint32_t>> matching_buf_;
};

}  // namespace popproto
