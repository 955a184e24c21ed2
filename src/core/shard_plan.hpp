// The shard plan BatchEngine (DESIGN.md §8) and CountShardEngine (§11)
// share: how many shards a population gets, and which seed each of their
// RNG streams starts from.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace popproto {

/// Lower `shards` (0 counts as 1) until each of the n agents' shards holds
/// at least max(min_shard, 2): a lone agent can never be matched, and tiny
/// shards spend their time on fork-join overhead.
inline std::size_t clamp_shard_count(std::size_t shards, std::uint64_t n,
                                     std::uint64_t min_shard) {
  shards = std::max<std::size_t>(shards, 1);
  const std::uint64_t floor_agents = std::max<std::uint64_t>(min_shard, 2);
  while (shards > 1 && n / shards < floor_agents) --shards;
  return shards;
}

/// The stream-split law (stable across versions, documented for replay):
/// splitmix64 walks the master seed, the migration stream takes the first
/// output and shard s output s + 2.
struct ShardSeeds {
  std::uint64_t migration;
  std::vector<std::uint64_t> shards;
};

inline ShardSeeds split_shard_seeds(std::uint64_t seed, std::size_t shards) {
  ShardSeeds out{splitmix64(seed), std::vector<std::uint64_t>(shards)};
  for (std::uint64_t& s : out.shards) s = splitmix64(seed);
  return out;
}

}  // namespace popproto
