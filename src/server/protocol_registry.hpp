// Named protocol instances + backend factory for popprotod buckets.
//
// The daemon's `create <bucket> <backend> <protocol> <n> [seed]` command
// needs to turn two strings into a live SimBackend. This registry owns that
// mapping: a protocol name resolves to a freshly built Protocol (with its
// own VarSpace, so buckets never share mutable interning state) plus the
// canonical initial configuration at population size n; a backend name
// ("agent", "count", "batch", "count_shard") picks the substrate. Buckets
// keep the returned ProtocolInstance alive for the backend's lifetime —
// every engine holds `const Protocol&`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "core/sim_backend.hpp"
#include "core/state.hpp"

namespace popproto {

/// A protocol plus everything a bucket needs to build and observe it.
struct ProtocolInstance {
  std::string name;
  VarSpacePtr vars;  // also held by `protocol`; exposed for expr parsing
  std::unique_ptr<Protocol> protocol;
  /// Canonical initial configuration, counts summing to n. (state, count)
  /// order is deterministic (it seeds the count backends' species tables).
  std::vector<std::pair<State, std::uint64_t>> initial_counts;
};

/// Names accepted by make_protocol_instance, sorted.
std::vector<std::string> registered_protocol_names();

/// Build the named protocol at population size n (n >= 2), or nullptr when
/// the name is unknown. Never throws on bad names; throws only on internal
/// invariant violations.
std::unique_ptr<ProtocolInstance> make_protocol_instance(
    const std::string& name, std::uint64_t n);

/// Names accepted by make_backend_instance, sorted.
std::vector<std::string> registered_backend_names();

/// Instantiate a SimBackend of the named substrate over `inst`'s protocol
/// and initial configuration. Returns nullptr for an unknown backend name.
/// Only the "agent" substrate materializes n per-agent slots, so callers
/// should cap n for it (popprotod does: max_agent_n); the others hold
/// species counts.
///
/// `parallelism` (0 = substrate default) sets the backend's *structural*
/// parallelism so the trajectory is pinned by the caller's config alone:
/// the shard count for "batch" and "count_shard" (whose worker threads are
/// execution-only and stay auto-probed); ignored by the single-threaded
/// substrates. popsweep grids pass their `threads` axis through here — a
/// resumed job must replay the trajectory the spec names, independent of
/// the resuming host.
std::unique_ptr<SimBackend> make_backend_instance(
    const std::string& backend, const ProtocolInstance& inst,
    std::uint64_t seed, unsigned parallelism = 0);

}  // namespace popproto
