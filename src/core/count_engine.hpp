// Species-abundance simulation engine (DESIGN.md S5).
//
// For a protocol whose reachable state set is small, the population is fully
// described by the count of agents in each state. This engine simulates the
// sequential scheduler exactly on those counts. Its default mode, kBatch,
// advances a collision-free block of ~0.63*sqrt(n) interactions per step
// (DESIGN.md S9) and hands off to *skip-ahead* when blocks change too few
// states to pay: it samples the number of no-op interactions from the exact
// geometric law and then draws one state-changing interaction from the
// conditional distribution. Both are equal in distribution to the direct
// simulation, but late-stage sparse dynamics (|X|+|X| elimination, DV12
// exact majority, ...) run in time proportional to the number of
// *effective* interactions instead of all interactions. Where a block's
// worth of direct steps costs less than a block (many species, small n),
// kBatch takes those instead. kDirect and kSkip force one path and serve as
// references.
//
// Fault support (src/faults/): the engine carries the same InjectionHook /
// SchedulerBias surface as the agent-based Engine, plus count-level churn
// (crash_random / rejoin_random move agents out of and back into the
// scheduled multiset with their state frozen while away) and targeted
// corruption (mutate_random_agents). Parallel time is accumulated as
// 1/n_active per interaction, so it stays calibrated under churn.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/injection.hpp"
#include "core/protocol.hpp"
#include "core/sim_backend.hpp"
#include "core/transition_cache.hpp"
#include "observe/counters.hpp"
#include "observe/event_trace.hpp"
#include "support/rng.hpp"

namespace popproto {

/// How CountEngine steps (DESIGN.md S9). kBatch is the default and the only
/// adaptive policy; kDirect and kSkip force one path. The values are
/// snapshot bytes; 2 belonged to a retired mode, and restore rejects it.
enum class CountEngineMode { kDirect = 0, kSkip = 1, kBatch = 3 };

/// Implements SimBackend (core/sim_backend.hpp) as the "count" substrate.
class CountEngine final : public SimBackend {
 public:
  /// Initial configuration: (state, count) pairs; counts must sum to n >= 2.
  /// A protocol without rules is accepted: every configuration is silent.
  CountEngine(const Protocol& protocol,
              std::vector<std::pair<State, std::uint64_t>> initial,
              std::uint64_t seed,
              CountEngineMode mode = CountEngineMode::kBatch);

  /// Advance by one scheduler interaction (a direct step), one *effective*
  /// interaction plus its geometric prefix of no-ops (a skip jump), or one
  /// block. kBatch picks the path: direct steps under a SchedulerBias, skip
  /// jumps under a drop hook, and otherwise the dense path (a block, or a
  /// block's worth of direct steps where those cost less) unless the
  /// dense/skip hand-off has parked it in skip. Returns false iff the
  /// configuration is silent (no rule can change anything); time is then
  /// left where it is. Only run_rounds fast-forwards a silent configuration.
  bool step() override;

  void run_rounds(double rounds) override;

  /// Toggle the memoized transition kernel (on by default); both settings
  /// follow bit-identical trajectories from the same seed (see
  /// core/transition_cache.hpp).
  void set_transition_cache(bool enabled) { use_cache_ = enabled; }
  const TransitionCache& transition_cache() const { return cache_; }

  /// True while steps take skip-ahead jumps: kSkip, or kBatch under a drop
  /// hook or parked in skip by the hand-off. False under a SchedulerBias,
  /// which forces direct steps.
  bool skip_engaged() const {
    if (bias_ || mode_ == CountEngineMode::kDirect) return false;
    return mode_ == CountEngineMode::kSkip || use_skip_ ||
           injection_.drop_interaction;
  }

  /// Fault-layer injection points (see core/injection.hpp). Unset hooks
  /// leave the RNG stream and trajectory bit-for-bit unchanged. While a
  /// SchedulerBias is active the engine takes direct steps (skip-ahead and
  /// blocks assume uniform pair sampling); under a drop hook kBatch takes
  /// skip jumps, which thin the effective process exactly.
  void set_injection_hook(InjectionHook hook) override;
  void set_scheduler_bias(std::optional<SchedulerBias> bias) override;

  // -- Dynamic population (churn) on counts ---------------------------------
  /// Move up to `k` uniformly chosen agents out of the scheduled multiset
  /// (state frozen while away); at least two stay. Returns the number moved.
  std::uint64_t crash_random(std::uint64_t k, Rng& rng) override;
  /// Return up to `k` uniformly chosen crashed agents, with their stale
  /// state. Returns the number rejoined.
  std::uint64_t rejoin_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_all() override;
  std::uint64_t crashed_count() const { return crashed_n_; }

  /// Overwrite the states of `k` distinct, uniformly chosen scheduled
  /// agents (exact multivariate-hypergeometric sampling on counts):
  /// agent j (j = 0..k-1) with old state `s` gets `f(s, j)`. Returns the
  /// number of agents drawn (min(k, n)); rewrites that leave a victim's
  /// state unchanged are applied as no-ops. Used for fault injection.
  std::uint64_t mutate_random_agents(
      std::uint64_t k, Rng& rng,
      const std::function<State(State old_state, std::uint64_t j)>& f)
      override;

  /// Replace the scheduled population with `counts` (counts must sum to
  /// >= 2), keeping the RNG stream, time base, interaction/effective
  /// totals, crashed multiset, mode and telemetry intact. This is the
  /// cross-shard migration primitive of CountShardEngine: a re-deal swaps
  /// populations between sub-engines without perturbing any stream or
  /// clock. Clears the silent latch and all derived state (event list,
  /// species index, hysteresis window).
  void reset_population(
      const std::vector<std::pair<State, std::uint64_t>>& counts);

  std::uint64_t count_state(State s) const;
  std::uint64_t count_matching(const Guard& g) const override;
  using SimBackend::count_matching;  // + the BoolExpr convenience overload

  /// All species with nonzero count (scheduled agents only).
  std::vector<std::pair<State, std::uint64_t>> species() const override;
  /// Crashed agents' frozen states, by species.
  std::vector<std::pair<State, std::uint64_t>> crashed_species() const;

  // -- Observability (src/observe/, DESIGN.md §7) ---------------------------
  /// Telemetry counter snapshot (cheap tier; skip-ahead jump statistics,
  /// churn/corruption tallies and cache builds included).
  EngineCounters counters() const override;
  /// Attach (or detach, with nullptr) a structured event sink for churn,
  /// corruption and run_until convergence events. Not owned.
  void set_event_trace(EventTrace* trace) override { trace_ = trace; }

  // -- Durable state (src/persist/, DESIGN.md §10) --------------------------
  /// Full-fidelity snapshot: the species table in its exact internal order
  /// (species draws follow counts_ order, so ordering is part of the
  /// trajectory), crashed multiset, RNG stream, mode/skip/batch config, the
  /// time base, and counters — including events_total_weight_, which the
  /// batch/skip hysteresis reads *before* any rebuild. The event list and
  /// species index are derived and rebuilt, not serialized.
  void snapshot(std::ostream& out) const override;
  /// All-or-nothing restore (see SimBackend::restore). Adopts the saved
  /// mode, batch cap, and population; hooks/traces/bias must be re-attached
  /// by the caller. A mode byte that names no mode, the retired 2 included,
  /// throws SnapshotError.
  void restore(std::istream& in) override;

  // -- SimBackend observables (core/sim_backend.hpp) ------------------------
  const char* backend_name() const override { return "count"; }
  std::uint64_t active_n() const override { return n_; }

  double rounds() const override { return time_; }
  std::uint64_t interactions() const override { return interactions_; }
  std::uint64_t effective_interactions() const { return effective_; }
  /// Scheduled (non-crashed) population size.
  std::uint64_t n() const { return n_; }
  bool silent() const { return silent_; }
  /// Silent, and no fault schedule installed that could perturb it.
  bool quiescent() const override { return silent_ && !injection_.on_round; }

 protected:
  EventTrace* event_trace() const override { return trace_; }

 private:
  // CountShardEngine embeds each shard's container through write_snapshot,
  // and runs matching_round on the shards of a batch engine.
  friend class CountShardEngine;

  /// snapshot() with `ctr` as the kCounters payload: CountShardEngine embeds
  /// its shards' containers with the cache-warmth counters zeroed, which a
  /// resumed run relearns differently (EngineCounters::without_cache_warmth).
  void write_snapshot(std::ostream& out, const EngineCounters& ctr) const;

  // One state-changing (ordered species pair) event for skip-ahead; the
  // fused per-pair change weight replaces per-rule bookkeeping.
  struct Event {
    double weight;
    std::size_t species_a;
    std::size_t species_b;
  };

  /// Drop zero-count slots in place (a no-op when there are none).
  void compact();
  void direct_step();
  enum class Jump { kSilent, kCut, kLanded };
  /// One skip-ahead jump: rebuild the event list, draw the geometric run of
  /// no-ops and, if it lands by `limit`, one state-changing interaction
  /// (kLanded). A run past `limit` stops there instead (kCut); the law's
  /// memorylessness makes stopping early and redrawing exact.
  Jump skip_jump(double limit);
  /// One batch of up to `limit`-capped interactions via collision sampling
  /// (DESIGN.md §9): a collision-free block of ~√n interactions drawn as
  /// aggregate species-pair counts plus its boundary collision interaction.
  /// Returns false iff the configuration is silent.
  bool batch_step(double limit);
  /// One round of the random-matching scheduler, for BatchEngine's shards
  /// (DESIGN.md §8): ⌊n/2⌋ disjoint ordered pairs dealt from the counts
  /// (with n odd, one agent sits the round out), each cell of k pairs
  /// resolved as a block's is. A SchedulerBias reverses Binomial(k, ε)
  /// pairs of each (non-preferred, preferred) cell, and a drop hook is
  /// asked once per pair. Advances time by exactly 1.
  void matching_round();
  bool batch_allowed() const;
  /// kBatch without hooks: run the dense/skip hand-off; mean_block() if the
  /// next step is on the dense path, else 0.
  double dense_block();
  /// The dense path's next step, up to `limit`: a block, or `block`
  /// interactions' worth of direct steps when those cost less. Returns
  /// false iff silent.
  bool dense_step(double limit, double block);
  /// Index of `s` in states_ (appending a zero-count slot if new), keeping
  /// the batch scratch vectors sized in lockstep.
  std::size_t batch_species_slot(State s);
  /// Apply `k` aggregated interactions of the ordered species pair (ia, ib)
  /// into the touched multiset; returns the number that changed state.
  std::uint64_t batch_apply_pair(std::size_t ia, std::size_t ib,
                                 std::uint64_t k);
  /// Process the single interaction that ended a collision-free run: at
  /// least one participant re-drawn from the `touched` multiset. Updates the
  /// caller's untouched/touched totals in place.
  void batch_collision_interaction(std::uint64_t* m_total,
                                   std::uint64_t* u_total);
  /// Expected interactions in one kBatch block.
  double mean_block() const;
  /// How many skip jumps one block's worth of interactions costs on the
  /// dense path at the current species count.
  double dense_cost_in_jumps(double block) const;
  /// kBatch's hand-back test from skip: at the last rebuild's event weight,
  /// a block's worth of interactions would change enough states to beat
  /// skip-ahead.
  bool dense_pays(double block) const;
  /// Batch/skip hysteresis for kBatch, on expected changes per block.
  void maybe_toggle_batch_skip(double block);
  void rebuild_events();
  /// Apply one state-changing interaction to the ordered species pair,
  /// drawing from the conditional-on-change fused distribution.
  void apply_change(std::size_t ia, std::size_t ib);
  void add_count(State s, std::uint64_t delta);
  void remove_count(std::size_t index, std::uint64_t delta);
  /// Draw an agent's slot by count, one agent of slot `exclude_one_of`
  /// left out, from the Fenwick tree (built here if stale).
  std::size_t sample_species(std::uint64_t exclude_one_of = ~0ull);
  /// Add `delta` (modulo 2^64) to slot i's node path, if the tree is current.
  void fen_add(std::size_t i, std::uint64_t delta);
  /// The slot holding draw r < n_: the length of the longest prefix whose
  /// counts sum to at most r.
  std::size_t fen_find(std::uint64_t r) const;
  void maybe_fire_injection() {
    fire_crossed_rounds(injection_, last_injection_round_, time_);
  }

  const Protocol& protocol_;
  TransitionCache cache_;
  bool use_cache_ = true;
  std::vector<State> states_;
  std::vector<std::uint64_t> counts_;
  std::unordered_map<State, std::size_t> index_;
  // Fenwick tree over counts_ for direct steps' draws, O(log S) each; it is
  // current iff fen_.size() == counts_.size(). add_count and remove_count
  // keep it so; compaction, blocks, resets and restore clear it.
  std::vector<std::uint64_t> fen_;
  std::uint64_t n_ = 0;
  Rng rng_;
  CountEngineMode mode_;
  bool use_skip_ = false;
  bool silent_ = false;
  std::uint64_t interactions_ = 0;
  std::uint64_t effective_ = 0;
  double time_ = 0.0;
  double last_injection_round_ = 0.0;
  // Telemetry tallies (interactions_/effective_ stay the master counts;
  // counters() merges them in).
  EngineCounters ctr_;
  // cache_builds accounting across restore (the cache survives a restore
  // un-serialized): counters() reports base + (cache_.builds() - floor).
  std::uint64_t cache_builds_base_ = 0;
  std::uint64_t cache_builds_floor_ = 0;
  EventTrace* trace_ = nullptr;
  InjectionHook injection_;
  std::optional<SchedulerBias> bias_;
  std::vector<std::pair<State, std::uint64_t>> crashed_;
  std::uint64_t crashed_n_ = 0;
  // kBatch hand-off window: interactions and state changes in the blocks
  // since the last decision.
  std::uint64_t window_steps_ = 0;
  std::uint64_t window_effective_ = 0;
  std::vector<Event> events_;
  double events_total_weight_ = 0.0;
  // Change weight of each ordered slot pair, cw_[i * states_.size() + j],
  // for the memoized path; negative until first looked up. rebuild_events
  // lays it out afresh when the slot count no longer matches (a new slot);
  // compaction, reset_population and restore, which can reorder slots
  // without changing their number, clear it. A rebuild thus probes the
  // cache once per pair and species table, not once per pair and jump.
  std::vector<double> cw_;
  // Batch-mode scratch (sized to states_.size() inside batch_step; kept as
  // members so steady-state batches allocate nothing).
  std::vector<std::uint64_t> bat_touched_;
  std::vector<std::uint64_t> bat_pairs_;  // S x S ordered species pairs
  std::vector<std::uint64_t> bat_out_;
  std::vector<double> bat_gap_;          // change-category masses
  std::vector<PairOutcome> bat_ores_;    // outcome snapshot (view-safe)
  std::vector<double> bat_cum_;          // uncached change-dist scratch
  std::vector<PairOutcome> bat_res_;
};

}  // namespace popproto
