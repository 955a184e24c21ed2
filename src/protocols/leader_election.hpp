// LeaderElection (paper §3.1, Theorem 3.1): the first constant-state
// protocol electing a unique leader in O(log^2 n) rounds w.h.p.
//
//   def protocol LeaderElection
//     var L ← on as output:
//     thread Main uses L:
//       var D ← off, F ← on
//       repeat:
//         if exists (L):
//           F := {on, off} chosen uniformly at random
//           D := L ∧ F
//         if exists (D):
//           L := D
//         else:
//           L := on
//
// Each good iteration halves the leader set in expectation (every leader
// keeps a coin; survivors are the leaders whose coin landed on, unless all
// coins failed, in which case the leader set is kept); an empty leader set
// is repopulated with the whole population. By multiplicative drift,
// O(log n) good iterations reach |L| = 1 w.h.p.
#pragma once

#include "core/sim_backend.hpp"
#include "lang/ast.hpp"

namespace popproto {

/// Variable names.
inline constexpr const char* kLeaderVar = "L";

Program make_leader_election_program(VarSpacePtr vars);

/// Number of agents currently marked as leaders.
std::uint64_t leader_count(const SimBackend& backend, const VarSpace& vars);

}  // namespace popproto
