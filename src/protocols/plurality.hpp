// Plurality consensus (paper §1.1): identify the largest of l input colors.
//
// "A solution to plurality consensus is obtained with a straightforward
// adaptation of our protocol for majority, with the same convergence time";
// the state count is O(l²). We run one cancel/duplicate majority instance
// per unordered color pair concurrently (their rulesets are merged into the
// same inner loop, so the depth — and hence the convergence-time exponent —
// matches Majority), then derive per-pair winner flags by existence tests
// and each color's output as the conjunction "beats every other color".
#pragma once

#include "core/sim_backend.hpp"
#include "lang/ast.hpp"

namespace popproto {

/// Input variable name of color i (0-based): "P0", "P1", ...
std::string plurality_input_var(int color);
/// Output variable name of color i: "WIN0", ...
std::string plurality_output_var(int color);

Program make_plurality_program(VarSpacePtr vars, int colors);

/// Recommended loop constant c for running the plurality program: the
/// merged rulesets dilute each pair's cancel/duplicate rules by a factor
/// Θ(l²) under the uniform rule choice, so the per-phase round budget must
/// grow accordingly (the paper's c is an explicitly chosen per-protocol
/// constant, §2.1).
double plurality_recommended_c(int colors);

/// Initial states: counts[i] agents hold color i, the rest are blank.
std::vector<State> plurality_inputs(const VarSpace& vars, std::size_t n,
                                    const std::vector<std::size_t>& counts);

/// The color whose WIN flag is set for all agents, or -1 if there is none.
int plurality_winner(const SimBackend& backend, const VarSpace& vars,
                     int colors);

}  // namespace popproto
