// Majority (paper §3.2, Theorem 3.2): constant-state exact-majority
// computation in O(log^3 n) rounds w.h.p., correct for *any* gap.
//
// Working copies A*, B* of the inputs are repeatedly cancelled pairwise and
// doubled (each surviving mark recruits one blank per doubling phase, the
// K flag capping recruitment at one per phase — the [AAG18]-style
// cancel/duplicate dynamic): after O(log n) phases the minority marks are
// extinct w.h.p., and the surviving side is written to the output Y_A via
// existence tests.
#pragma once

#include "core/sim_backend.hpp"
#include "lang/ast.hpp"

namespace popproto {

inline constexpr const char* kMajInputA = "A";
inline constexpr const char* kMajInputB = "B";
inline constexpr const char* kMajOutput = "Y_A";

Program make_majority_program(VarSpacePtr vars);

/// Initial states for a majority instance: count_a agents hold input A,
/// count_b hold input B, the rest are blank.
std::vector<State> majority_inputs(const VarSpace& vars, std::size_t n,
                                   std::size_t count_a, std::size_t count_b);

/// True when every agent's Y_A equals `a_wins`.
bool majority_output_is(const SimBackend& backend, const VarSpace& vars,
                        bool a_wins);

/// The cancellation and duplication rulesets (shared with MajorityExact and
/// the plurality adaptation). `a`/`b` are the working-copy variables, `k`
/// the per-phase recruitment flag.
std::vector<Rule> majority_cancel_rules(VarId a_star, VarId b_star);
std::vector<Rule> majority_duplicate_rules(VarId a_star, VarId b_star,
                                           VarId k);

}  // namespace popproto
