// Sensor-network scenario (the original motivation of [AAD+06]).
//
// A swarm of passively-mobile sensors measured a binary condition; some
// sensors abstained. The swarm must agree on the majority reading — exactly,
// even when the vote is decided by a single sensor — using O(1) memory per
// sensor and only random pairwise radio contacts. This is the paper's
// Majority protocol (§3.2); we also run the always-correct MajorityExact
// (§6.2) under adversarial scheduling to show the certainty guarantee.
//
// Build & run:  ./build/examples/sensor_vote
#include <cmath>
#include <cstdio>

#include "lang/runtime.hpp"
#include "protocols/majority.hpp"
#include "protocols/majority_exact.hpp"

using namespace popproto;

int main() {
  const std::size_t swarm = 20000;
  const std::size_t votes_yes = 9001;
  const std::size_t votes_no = 9000;  // decided by one sensor; 1999 abstain

  std::printf("swarm of %zu sensors: %zu vote YES, %zu vote NO, %zu abstain\n",
              swarm, votes_yes, votes_no, swarm - votes_yes - votes_no);

  // --- w.h.p. Majority (Thm 3.2). ---
  {
    auto vars = make_var_space();
    const Program program = make_majority_program(vars);
    RuntimeOptions options;
    options.c = 2.5;
    options.seed = 11;
    FrameworkRuntime runtime(
        program, majority_inputs(*vars, swarm, votes_yes, votes_no), options);
    const auto t = runtime.run_until(
        [&](const SimBackend& pop) {
          return majority_output_is(pop, *vars, true);
        },
        10);
    if (t) {
      std::printf("[Majority]      every sensor reports YES after %.0f "
                  "parallel rounds (O(log^3 n) expected: ln^3 n = %.0f)\n",
                  *t, std::pow(std::log(static_cast<double>(swarm)), 3.0));
    } else {
      std::printf("[Majority]      did not converge in the budget (w.h.p. "
                  "failure — rerun with another seed)\n");
    }
  }

  // --- Always-correct MajorityExact (Thm 6.3) under a hostile scheduler. ---
  {
    auto vars = make_var_space();
    const Program program = make_majority_exact_program(vars);
    RuntimeOptions options;
    options.c = 2.5;
    options.seed = 13;
    options.bad_iteration_rate = 0.4;   // 40% of iterations are adversarial
    options.startup_chaos_rounds = 80;  // uncontrolled warm-up
    FrameworkRuntime runtime(
        program, majority_inputs(*vars, swarm, votes_yes, votes_no), options);
    const VarId no_input = *vars->find(kMajInputB);
    const auto t = runtime.run_until(
        [&](const SimBackend& pop) {
          // Certainty milestone: the slow thread exhausted the minority
          // votes; from here the output can never flip again.
          return pop.count_matching(BoolExpr::var(no_input)) == 0 &&
                 majority_output_is(pop, *vars, true);
        },
        100000);
    if (!t) {
      std::printf("[MajorityExact] the minority votes were not exhausted "
                  "within the iteration budget\n");
      return 1;
    }
    std::printf("[MajorityExact] locked-in YES after %.0f rounds despite "
                "adversarial iterations (eventual certainty, Thm 6.3)\n",
                *t);
    for (int i = 0; i < 5; ++i) {
      runtime.run_iteration();
      if (!majority_output_is(runtime.backend(), *vars, true)) {
        std::printf("  !! output flipped — this must never print\n");
        return 1;
      }
    }
    std::printf("  verified stable across further adversarial iterations\n");
  }
  return 0;
}
