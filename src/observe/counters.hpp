// Engine telemetry counters (DESIGN.md §7).
//
// Two cost tiers:
//  * Cheap tier (always on): counters whose increments sit off the no-op
//    fast path — a step that changes no state touches none of them beyond
//    the pre-existing interaction count. Effective steps, cache builds,
//    value-path fallbacks, dropout vetoes, skip-ahead jumps and churn
//    events all live here; each increment rides a branch the engine was
//    already taking.
//  * Detailed tier (compile-gated by POPPROTO_PROFILE): per-draw counters
//    on the hot path itself (cache hit counting). Compiled out entirely in
//    normal builds so the steady-state interaction cost is unchanged.
//
// Every SimBackend exposes `counters()` returning a filled-in snapshot of
// this struct; rates and derived quantities (no-op fraction,
// hit ratio) are computed by consumers, not stored.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace popproto {

struct EngineCounters {
  // -- Cheap tier (always on) ----------------------------------------------
  /// Scheduler interactions executed (skip-ahead no-ops included).
  std::uint64_t interactions = 0;
  /// Interactions that changed at least one agent state.
  std::uint64_t effective_steps = 0;
  /// Interactions vetoed by an InjectionHook::drop_interaction hook. Under
  /// skip-ahead (CountEngine skip jumps) only landed state-changing draws
  /// consult the hook, so no-op interactions are never counted here.
  std::uint64_t dropped_interactions = 0;
  /// Pair distributions built by the transition cache (first-sight misses).
  std::uint64_t cache_builds = 0;
  /// Interactions resolved by value because an interned index was missing
  /// (state cap reached, or a result state that could not be interned).
  std::uint64_t cache_fallbacks = 0;
  /// Skip-ahead jumps taken (CountEngine skip mode).
  std::uint64_t skip_jumps = 0;
  /// No-op interactions skipped over by those jumps (sum of jump lengths).
  std::uint64_t skipped_interactions = 0;
  /// Churn events applied (agents crashed / rejoined, fault layer).
  std::uint64_t crash_events = 0;
  std::uint64_t rejoin_events = 0;
  /// Corruption rewrites that changed an agent's state, on every backend; a
  /// victim rewritten to its own state is drawn but not counted.
  std::uint64_t corrupted_agents = 0;
  /// Collision-free blocks sampled in batch mode (CountEngine kBatch); each
  /// block aggregates ~sqrt(n) interactions into O(species^2) draws.
  std::uint64_t batch_blocks = 0;
  /// Run-ending collision interactions resolved individually in batch mode.
  std::uint64_t batch_collisions = 0;

  // -- Detailed tier (0 unless built with POPPROTO_PROFILE) ----------------
  /// Indexed-path cache resolutions (per-draw hit counting).
  std::uint64_t cache_hits = 0;

  bool operator==(const EngineCounters&) const = default;

  /// Every field, in declaration order. This is also the order of a
  /// snapshot's kCounters payload (persist/snapshot.hpp), so a field moved
  /// here moves on disk.
  static constexpr auto fields() {
    using C = EngineCounters;
    return std::array{&C::interactions,         &C::effective_steps,
                      &C::dropped_interactions, &C::cache_builds,
                      &C::cache_fallbacks,      &C::skip_jumps,
                      &C::skipped_interactions, &C::crash_events,
                      &C::rejoin_events,        &C::corrupted_agents,
                      &C::batch_blocks,         &C::batch_collisions,
                      &C::cache_hits};
  }

  /// Field-wise sum, for backends that merge per-shard tallies.
  EngineCounters& operator+=(const EngineCounters& o) {
    for (const auto field : fields()) this->*field += o.*field;
    return *this;
  }

  /// These counters with the cache-warmth diagnostics zeroed: cache_builds,
  /// cache_fallbacks and cache_hits. Transition caches are not serialized,
  /// so a resumed engine relearns its pair bindings, and these three are
  /// the only counters allowed to differ from an uninterrupted run's.
  EngineCounters without_cache_warmth() const {
    EngineCounters c = *this;
    c.cache_builds = c.cache_fallbacks = c.cache_hits = 0;
    return c;
  }

  /// No-op interactions: executed but changed nothing (dropped ones count
  /// as no-ops too; skipped-over ones are *not* executed and excluded).
  std::uint64_t noop_steps() const {
    return interactions >= effective_steps + skipped_interactions
               ? interactions - effective_steps - skipped_interactions
               : 0;
  }

  /// Flat key/value view for the telemetry exporter (stable key names; the
  /// TELEMETRY_*.json schema in EXPERIMENTS.md lists them).
  std::vector<std::pair<std::string, double>> to_pairs() const {
    return {
        {"interactions", static_cast<double>(interactions)},
        {"effective_steps", static_cast<double>(effective_steps)},
        {"noop_steps", static_cast<double>(noop_steps())},
        {"dropped_interactions", static_cast<double>(dropped_interactions)},
        {"cache_builds", static_cast<double>(cache_builds)},
        {"cache_fallbacks", static_cast<double>(cache_fallbacks)},
        {"cache_hits", static_cast<double>(cache_hits)},
        {"skip_jumps", static_cast<double>(skip_jumps)},
        {"skipped_interactions", static_cast<double>(skipped_interactions)},
        {"crash_events", static_cast<double>(crash_events)},
        {"rejoin_events", static_cast<double>(rejoin_events)},
        {"corrupted_agents", static_cast<double>(corrupted_agents)},
        {"batch_blocks", static_cast<double>(batch_blocks)},
        {"batch_collisions", static_cast<double>(batch_collisions)},
    };
  }
};

// fields() drives operator+= and the kCounters codec; a new counter fails
// this until it is listed there.
static_assert(sizeof(EngineCounters) ==
                  EngineCounters::fields().size() * sizeof(std::uint64_t),
              "EngineCounters gained a field: add it to fields()");

}  // namespace popproto
