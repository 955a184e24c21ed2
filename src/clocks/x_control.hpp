// Control-state (#X) management (paper §5.2: Propositions 5.3, 5.4, 5.5).
//
// The clock hierarchy operates correctly while 1 <= #X <= n^{1-eps}. Three
// processes drive #X into (and keep or pass through) that range:
//
//  * Elimination (Prop 5.3, always-correct framework): X + X -> ¬X + X.
//    Guarantees #X >= 1 forever and reaches #X <= n^{1-eps} after O(n^eps)
//    rounds.
//  * k-level decaying signal (Prop 5.5, w.h.p. framework): a two-stage
//    ladder process producing #X ~ n * exp(-t^{1/k}); reaches n^{1-eps} in
//    polylog time but eventually extinguishes X.
//  * Junta election (Prop 5.4, after [GS18]): level-climbing race with
//    epidemic knock-out; O(log log n) states, #X >= 1 always, #X <= n^{1-eps}
//    w.h.p. within O(log n) rounds.
//
// Each process is one Protocol whose X flag (kXVar) marks the control
// agents, so it runs on every SimBackend (experiments T5, T6, T14) and is
// also the clock machinery's thread 0 (clocks/hierarchy.hpp), which reads
// each agent's X flag as the oscillator's source state. A protocol without
// rules holds a fixed X set: the idealized junta under which the clock
// experiments study controlled #X (the paper's Thm 5.1/5.2 setting).
//
// The junta is a pair kernel. Its state is the largest level the agent has
// seen (5 bits, capped at kJuntaLevelCap) plus the X flag, which marks an
// agent still climbing; a climber's own level is always its max, so the max
// is the only level kept (DESIGN.md §3.3).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/protocol.hpp"

namespace popproto {

/// Variable names of the bitmask encodings.
inline constexpr const char* kXVar = "X";       // the control flag itself
inline constexpr const char* kZVar = "Z";       // k-level process: Z flag
// Ladder rungs are interned as "Z1".."Zk" and "X1".."X(k-1)"; the junta's
// max level as the bits "JUNTA_L0".."JUNTA_L4".

/// The highest level a junta climber can reach.
inline constexpr int kJuntaLevelCap = 30;

/// A fixed X set: kXVar interned, no rules.
Protocol make_fixed_x_protocol(VarSpacePtr vars);

/// The table {X: x_count, ∅: n - x_count}, empty entries left out: the
/// fixed process's start, and for x_count = n that of elimination and of
/// the junta. `vars` holds kXVar.
std::vector<std::pair<State, std::uint64_t>> x_counts(std::uint64_t n,
                                                      std::uint64_t x_count,
                                                      const VarSpace& vars);

/// Prop 5.3: ▷ (X) + (X) -> (¬X) + (X). Initial configuration: X set for
/// all agents.
Protocol make_x_elimination_protocol(VarSpacePtr vars);

/// Prop 5.5: the two-stage ladder process with parameter k >= 1. Initial
/// configuration: X and Z set for all agents, all rungs unset.
Protocol make_klevel_signal_protocol(VarSpacePtr vars, int k);

/// Prop 5.4: junta election as a one-thread pair kernel with one outcome.
/// Two climbers at the same level: the initiator climbs one level (up to
/// kJuntaLevelCap). Both agents then keep the larger of their max levels,
/// and a climber below it leaves X. Initial configuration: the X bit alone
/// (a climber at level 0) for all agents.
Protocol make_junta_protocol(VarSpacePtr vars);

/// The max level held in a junta state.
int junta_level(State s, const VarSpace& vars);

}  // namespace popproto
