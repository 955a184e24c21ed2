// Random-matching simulation backend (DESIGN.md §8).
//
// Theorem 5.1 and the clocks of §5.2 are stated for the *random-matching
// parallel scheduler*: each round activates a uniformly random maximal
// matching, and all matched pairs interact at once. On species counts such
// a round is one dealt pair table: floor(m/2) ordered pairs drawn without
// replacement from the m agents' counts (deal_pair_table; with m odd one
// agent sits the round out), each (a, b) cell of k pairs resolved as a
// kBatch block's is — a binomial count of state changes, then a
// multinomial over the change outcomes. A round costs O(S^2) draws for S
// live species, whatever m is, so the phase clock runs at n = 2^30.
//
// The population is split into shards that run their rounds in parallel
// and are re-dealt every `migrate_every` rounds: the shard, migration,
// churn, silence-test and snapshot code is CountShardEngine's
// (core/count_shard_engine.hpp), and the two backends differ only in the
// round each shard runs. Between migrations a shard is an isolated
// well-mixed subpopulation; per round up to one agent per shard goes
// unmatched and pairs never straddle shards, an O(shards / n) effect. With
// one shard the round IS an exact uniform global matching, in law equal to
// Engine(SchedulerKind::kRandomMatching), the per-agent reference.
//
// Determinism: the trajectory is a pure function of (protocol, initial
// configuration, seed, threads, migrate_every). `threads` is the structural
// shard count; the worker pool that advances the shards is an execution
// detail, as on count_shard.
//
// Fault surface: a SchedulerBias reverses Binomial(k, ε) pairs of each
// (non-preferred, preferred) cell, a drop hook is asked once per pair on
// the shard's own stream (the hook contract allows any engine-supplied Rng
// to be a per-shard stream), and on_round hooks, churn and corruption run
// on the driving thread between rounds.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/count_shard_engine.hpp"
#include "core/protocol.hpp"

namespace popproto {

class BatchEngine final : public CountShardEngine {
 public:
  struct Params {
    /// Shards, each advanced by one worker thread where the host has them.
    /// 0 picks probe_hardware_threads(). Structural: part of the determinism
    /// tuple and of the snapshot config. The engine lowers this until every
    /// shard holds at least min_shard agents.
    unsigned threads = 0;
    /// Minimum agents per shard; stops over-sharding small populations
    /// (the sharding approximation degrades as shards/n grows).
    std::size_t min_shard = std::size_t{1} << 12;
    /// Rounds between global cross-shard re-deals. 1 = re-deal every round
    /// (closest to exact global matching); larger values amortize the
    /// re-deal. See docs/TUNING.md.
    std::uint32_t migrate_every = 4;
  };

  /// Initial configuration as species counts, as CountEngine takes it.
  BatchEngine(const Protocol& protocol,
              std::vector<std::pair<State, std::uint64_t>> initial,
              std::uint64_t seed, Params params);
  /// Initial configuration as one state per agent, counted in first-seen
  /// order.
  BatchEngine(const Protocol& protocol, const std::vector<State>& initial,
              std::uint64_t seed, Params params);
  /// Default parameters (overload rather than a default argument: nested
  /// default member initializers are unusable as defaults until the
  /// enclosing class is complete).
  BatchEngine(const Protocol& protocol, const std::vector<State>& initial,
              std::uint64_t seed);

  const char* backend_name() const override { return "batch"; }
};

}  // namespace popproto
