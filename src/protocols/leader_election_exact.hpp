// LeaderElectionExact (paper §6.1, Theorems 6.1/6.2): the always-correct
// leader election — a unique leader is eventually elected with certainty,
// and w.h.p. within O(log^2 n) rounds after the initialization phase.
//
// Three threads:
//  * Main — the LeaderElection loop, with two changes: the per-agent coin is
//    replaced by the synthetic coin F maintained by FilteredCoin
//    (D := L ∧ F; L := L ∧ D), and an empty candidate set is repopulated
//    from the always-nonempty survivor set R (L := R) instead of the whole
//    population.
//  * FilteredCoin — a background ruleset keeping F a near-fair, rapidly
//    re-randomized marker set (the I/S bootstrap keeps |S| bounded away
//    from 0 and n, and S-boundary meetings re-randomize F membership).
//  * ReduceSets — a background ruleset shrinking R towards a single agent
//    while guaranteeing |R| >= 1 (fratricide among R, preferring to keep
//    leaders), giving the deterministic fallback that makes the protocol
//    correct with certainty.
#pragma once

#include "lang/ast.hpp"

namespace popproto {

inline constexpr const char* kExactLeaderVar = "L";

Program make_leader_election_exact_program(VarSpacePtr vars);

}  // namespace popproto
