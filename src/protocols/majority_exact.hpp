// MajorityExact (paper §6.2, Theorem 6.3): always-correct exact majority.
//
// The Main thread is the w.h.p. Majority loop with the working copies
// refreshed from the inputs at the start of every iteration. A background
// thread runs the slow deterministic cancellation directly on the *input*
// marks, ▷ (A) + (B) -> (¬A) + (¬B) — after polynomial time the minority
// input set is empty and never changes again; from the next good iteration
// on, its working copy stays empty, the corresponding existence test is
// permanently false, and the output can only ever be (re-)written with the
// correct value. (This is exactly the fast-w.h.p.-plus-slow-certain
// combination the paper uses to sidestep the stable-computation lower
// bounds, §1.1 "Relation to impossibility results".)
#pragma once

#include "lang/ast.hpp"

namespace popproto {

Program make_majority_exact_program(VarSpacePtr vars);

}  // namespace popproto
