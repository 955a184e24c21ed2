// Count-sharded simulation backends (DESIGN.md §8, §11).
//
// Each shard is a species-count subpopulation driven by its own CountEngine
// on a private split RNG stream; every `migrate_every` global rounds the
// scheduled agents are re-dealt across shards by exact multivariate-
// hypergeometric draws on a dedicated migration stream. The shard, migration,
// churn, silence-test and snapshot code below serves two backends, which
// differ only in the round each shard runs:
//   * count_shard (this class): the sequential scheduler. A shard runs
//     CountEngine's kBatch path, whole collision-free blocks of ~sqrt(m)
//     interactions advanced with O(species^2) exact distributional draws
//     (DESIGN.md §9), so one round costs O(sqrt(m) * species^2) draws
//     instead of m per-interaction draws.
//   * batch (BatchEngine, core/batch_engine.hpp): the random-matching
//     scheduler of Thm 5.1 and §5.2. A shard's round is one uniform maximal
//     matching, dealt as a pair table of floor(m/2) pairs and resolved per
//     species-pair cell, O(species^2) draws whatever m is.
//
// Why this composes: within a window a shard of m agents is an isolated
// well-mixed population, so the shard's own scheduler law applies to it
// verbatim. Dealing the pooled species counts back into shard-sized subsets
// without replacement is exactly a uniform partition of the (exchangeable)
// agents, so the window composition approximates the global scheduler with
// an O(shards / n) boundary error: pairs never straddle shards within a
// window, and a matching leaves up to one agent per shard unmatched. With
// one shard the round is exact.
//
// Determinism: the trajectory is a pure function of (protocol, initial
// counts, seed, shards, migrate_every). Worker threads are an execution
// detail only — shards touch disjoint engines and private streams, so any
// thread count (including 1) replays the identical trajectory.
//
// Scale: populations are species *counts* (u64), so n = 2^30 costs the
// same memory as n = 2^10 (bench_kernel's count_shard_majority_n30 record).
//
// Fault surface: the standard InjectionHook / SchedulerBias points plus the
// SimBackend churn and corruption primitives, distributed across shards by
// hypergeometric victim allocation so global victim selection stays
// uniform. On count_shard a SchedulerBias or dropout hook routes every
// shard through CountEngine's exact per-interaction paths, direct steps and
// skip jumps respectively (batch aggregation assumes unbiased uniform pair
// draws); a matching round applies both per cell of its pair table.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/count_engine.hpp"
#include "core/injection.hpp"
#include "core/protocol.hpp"
#include "core/sim_backend.hpp"
#include "core/transition_cache.hpp"
#include "observe/counters.hpp"
#include "observe/event_trace.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace popproto {

class CountShardEngine : public SimBackend {
 public:
  struct Params {
    /// Species-count shards. Structural: part of the determinism tuple and
    /// of the snapshot config (restore with a different shard count throws
    /// kConfigMismatch). The engine lowers this until every shard holds at
    /// least min_shard agents.
    std::size_t shards = 1;
    /// Global rounds between hypergeometric cross-shard re-deals. Smaller
    /// is closer to the exact global uniform scheduler; larger amortizes
    /// the O(shards * species) re-deal. See docs/TUNING.md.
    std::uint32_t migrate_every = 4;
    /// Worker threads for advancing shards. 0 = min(shards, probed
    /// hardware). Execution-only: any value replays the same trajectory.
    unsigned threads = 0;
    /// Minimum agents per shard (floor 2; a 1-agent shard cannot interact,
    /// and tiny shards waste the sqrt(m) batch amortization).
    std::uint64_t min_shard = 256;
  };

  /// Initial configuration as species counts, like CountEngine. With one
  /// shard the counts pass through untouched, so the trajectory equals
  /// CountEngine kBatch seeded with this engine's shard-0 stream
  /// (shard_seed(seed, 0)); with more shards the initial deal is the same
  /// hypergeometric partition migration uses, drawn on the migration
  /// stream.
  CountShardEngine(const Protocol& protocol,
                   std::vector<std::pair<State, std::uint64_t>> initial,
                   std::uint64_t seed, Params params);
  CountShardEngine(const Protocol& protocol,
                   std::vector<std::pair<State, std::uint64_t>> initial,
                   std::uint64_t seed);

  CountShardEngine(const CountShardEngine&) = delete;
  CountShardEngine& operator=(const CountShardEngine&) = delete;

  /// The documented stream-split law (stable across versions, needed by the
  /// shards=1 equivalence contract): splitmix64 walks the master seed, the
  /// migration stream takes the first output, shard s takes output s + 2.
  static std::uint64_t shard_seed(std::uint64_t master_seed, std::size_t s);

  /// One global round: every shard advances one round of parallel time,
  /// then migration/hooks fire if due. Returns false iff the pooled
  /// configuration is silent — no species pair anywhere could change state,
  /// even after a re-deal.
  bool step() override;

  /// Run `rounds` more rounds of parallel time. Matching rounds are whole,
  /// so a batch engine runs whole rounds until it reaches the target.
  void run_rounds(double rounds) override;

  // -- SimBackend observables ------------------------------------------------
  const char* backend_name() const override { return "count_shard"; }
  double rounds() const override { return time_; }
  std::uint64_t interactions() const override;
  std::uint64_t active_n() const override;
  std::uint64_t count_matching(const Guard& g) const override;
  using SimBackend::count_matching;  // + the BoolExpr convenience overload
  /// Merged species counts across shards, in first-appearance shard-scan
  /// order (deterministic; with one shard, identical to CountEngine's).
  std::vector<std::pair<State, std::uint64_t>> species() const override;
  EngineCounters counters() const override;

  void set_injection_hook(InjectionHook hook) override;
  void set_scheduler_bias(std::optional<SchedulerBias> bias) override;
  void set_event_trace(EventTrace* trace) override;

  // -- Durable state (src/persist/, DESIGN.md §10) --------------------------
  /// Full-fidelity snapshot: engine config and time base, the migration
  /// stream, and every shard's complete CountEngine snapshot embedded as a
  /// length-prefixed container (each self-validating: own magic, CRC,
  /// fingerprint) with its cache-warmth counters written as zero.
  void snapshot(std::ostream& out) const override;
  /// All-or-nothing restore. The shard count is structural: a snapshot
  /// taken with a different shard count throws SnapshotError
  /// {kConfigMismatch} and leaves this engine untouched. Worker threads are
  /// NOT structural — a snapshot restores onto any thread count. Adopts the
  /// saved migrate_every.
  void restore(std::istream& in) override;

  // -- Count-shard surface ---------------------------------------------------
  /// Shards actually in use (post min_shard clamping).
  std::size_t shards() const { return shards_.size(); }
  std::uint32_t migrate_every() const { return params_.migrate_every; }
  /// Worker threads the pool advances shards with (== 1 on a 1-core host).
  unsigned threads() const { return pool_.size(); }
  /// Direct read access to one shard's sub-engine (tests, diagnostics).
  const CountEngine& shard(std::size_t s) const { return *shards_[s]; }
  /// The dedicated cross-shard migration stream.
  const Rng& migration_rng() const { return migrate_rng_; }

  // -- Dynamic population (churn) + targeted corruption ----------------------
  // The SimBackend primitives (core/sim_backend.hpp); victims are allocated
  // to shards by exact multivariate-hypergeometric draws on the caller's
  // rng, so global victim selection is uniform without replacement.
  // Driver-thread only.
  std::uint64_t crash_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_all() override;
  std::uint64_t crashed_count() const;
  std::uint64_t mutate_random_agents(
      std::uint64_t k, Rng& rng,
      const std::function<State(State old_state, std::uint64_t j)>& f)
      override;

  /// Globally silent, and no fault schedule installed that could perturb it.
  bool quiescent() const override { return silent_ && !injection_.on_round; }

 protected:
  /// The round every shard runs, fixed by the backend.
  enum class ShardRound {
    kSequential,  // count_shard: CountEngine's kBatch path
    kMatching,    // batch: CountEngine::matching_round
  };
  CountShardEngine(const Protocol& protocol,
                   std::vector<std::pair<State, std::uint64_t>> initial,
                   std::uint64_t seed, Params params, ShardRound round);

  EventTrace* event_trace() const override { return trace_; }

 private:
  /// Advance shard s to `target` by its backend's rounds.
  void advance_shard(std::size_t s, double target);
  /// Advance every shard whose local clock lags `target` up to it, in
  /// parallel across the worker pool (on the caller once silent).
  void advance_shards_to(double target);
  /// Load a first-appearance species table (species(), or the merged
  /// initial counts) into mig_states_ / mig_counts_; returns its total.
  std::uint64_t load_pool(
      const std::vector<std::pair<State, std::uint64_t>>& table);
  /// Pool all scheduled species counts and deal them back into shard-sized
  /// subsets (deal_shard for every shard in order).
  void migrate();
  /// Fill mig_init_ with shard s's share of the `total` pooled agents in
  /// mig_states_ / mig_counts_, dealt evenly over `shards`: one
  /// multivariate-hypergeometric draw on the migration stream, taken out of
  /// the pool, or for the last shard the forced remainder, consuming no
  /// draws. Call for s = 0, 1, ... in order.
  void deal_shard(std::size_t s, std::size_t shards, std::uint64_t total);
  /// Exact global-silence test on the pooled counts: true iff no ordered
  /// species pair with positive pair count has positive change weight.
  bool globally_silent();
  bool all_shards_silent() const;
  /// Forward the wrapper's hooks to the sub-engines: drop_interaction and
  /// bias go down (per-shard streams), on_round stays wrapper-fired.
  void push_hooks_to_shards();
  /// Per-shard allocation of `k` without-replacement draws over per-shard
  /// `weights` (scheduled or crashed sizes), on the caller's rng.
  std::vector<std::uint64_t> deal_victims(std::uint64_t k,
                                          const std::vector<std::uint64_t>& weights,
                                          Rng& rng) const;

  const Protocol& protocol_;
  Params params_;
  ShardRound round_;
  std::vector<std::unique_ptr<CountEngine>> shards_;
  Rng migrate_rng_;
  // Fork-join pool advancing shards between barriers.
  ThreadPool pool_;
  double time_ = 0.0;
  double next_migrate_time_ = 0.0;
  double last_injection_round_ = 0.0;
  bool silent_ = false;  // latched by globally_silent(), cleared by faults
  InjectionHook injection_;
  std::optional<SchedulerBias> bias_;
  EventTrace* trace_ = nullptr;
  TransitionCache cache_;  // wrapper-owned, for the global-silence test
  // Migration scratch (pooled species table + per-shard deal), kept as
  // members so steady-state migrations allocate nothing.
  std::vector<State> mig_states_;
  std::vector<std::uint64_t> mig_counts_;
  std::vector<std::uint64_t> mig_deal_;
  std::vector<std::pair<State, std::uint64_t>> mig_init_;
};

}  // namespace popproto
