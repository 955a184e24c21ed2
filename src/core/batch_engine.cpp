#include "core/batch_engine.hpp"

#include <unordered_map>

#include "support/thread_pool.hpp"

namespace popproto {

namespace {

CountShardEngine::Params shard_params(const BatchEngine::Params& params) {
  CountShardEngine::Params p;
  p.shards = params.threads != 0 ? params.threads : probe_hardware_threads();
  p.migrate_every = params.migrate_every;
  p.min_shard = params.min_shard;
  return p;
}

std::vector<std::pair<State, std::uint64_t>> first_seen_counts(
    const std::vector<State>& states) {
  std::vector<std::pair<State, std::uint64_t>> counts;
  std::unordered_map<State, std::size_t> rows;
  for (const State s : states) {
    const auto [it, fresh] = rows.emplace(s, counts.size());
    if (fresh)
      counts.emplace_back(s, 1);
    else
      ++counts[it->second].second;
  }
  return counts;
}

}  // namespace

BatchEngine::BatchEngine(const Protocol& protocol,
                         std::vector<std::pair<State, std::uint64_t>> initial,
                         std::uint64_t seed, Params params)
    : CountShardEngine(protocol, std::move(initial), seed,
                       shard_params(params), ShardRound::kMatching) {}

BatchEngine::BatchEngine(const Protocol& protocol,
                         const std::vector<State>& initial, std::uint64_t seed,
                         Params params)
    : BatchEngine(protocol, first_seen_counts(initial), seed, params) {}

BatchEngine::BatchEngine(const Protocol& protocol,
                         const std::vector<State>& initial, std::uint64_t seed)
    : BatchEngine(protocol, initial, seed, Params{}) {}

}  // namespace popproto
