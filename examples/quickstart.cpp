// Quickstart: the three layers of the library in ~60 lines.
//
//  1. Define a raw population protocol (boolean state variables + bit-mask
//     rules) and run it on the sequential-scheduler engine.
//  2. Run one of the paper's programs (LeaderElection) under the framework
//     runtime — the reference semantics of Theorem 2.4.
//  3. Compile the same program into a real protocol driven by the clock
//     hierarchy and watch it converge under the plain scheduler.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/engine.hpp"
#include "lang/compile.hpp"
#include "lang/runtime.hpp"
#include "protocols/leader_election.hpp"

using namespace popproto;

int main() {
  // --- 1. A raw protocol: one-way epidemic ▷ (I) + (.) -> (.) + (I). ---
  {
    auto vars = make_var_space();
    const VarId infected = vars->intern("I");
    Protocol protocol("epidemic", vars);
    protocol.add_thread(
        "Spread", {make_rule(BoolExpr::var(infected), BoolExpr::any(),
                             BoolExpr::any(), BoolExpr::var(infected))});

    const std::size_t n = 100000;
    std::vector<State> population(n, State{0});
    population[0] = var_bit(infected);  // patient zero

    Engine engine(protocol, std::move(population), /*seed=*/42);
    const auto done = engine.run_until(
        [&](const SimBackend&) {
          return engine.count_matching(BoolExpr::var(infected)) == n;
        },
        /*max_rounds=*/200.0);
    std::printf("[1] epidemic saturated %zu agents in %.1f parallel rounds "
                "(Θ(log n) expected)\n",
                n, *done);
  }

  // --- 2. LeaderElection under the framework runtime (Thm 3.1). ---
  {
    auto vars = make_var_space();
    const Program program = make_leader_election_program(vars);
    RuntimeOptions options;
    options.seed = 7;
    FrameworkRuntime runtime(program, /*n=*/65536, options);
    const auto done = runtime.run_until(
        [&](const SimBackend& pop) {
          return leader_count(pop, *vars) == 1;
        },
        /*max_iterations=*/200);
    std::printf("[2] LeaderElection: unique leader among 65536 agents after "
                "%zu iterations = %.0f rounds (O(log^2 n) expected)\n",
                runtime.iterations(), *done);
  }

  // --- 3. The same program, fully compiled (§4-§5). ---
  {
    auto vars = make_var_space();
    const Program program = make_leader_election_program(vars);
    const std::size_t n = 500;
    // The clock's control agents: a fixed X set of 4 (agents 0..3).
    const Protocol fixed_x = make_fixed_x_protocol(make_var_space());
    CompiledEngine engine(program, std::vector<State>(n, State{0}), fixed_x,
                          x_counts(n, 4, *fixed_x.vars()), ClockLevelParams{},
                          /*seed=*/13);
    const Guard leader(BoolExpr::var(*vars->find(kLeaderVar)));
    const auto done = engine.run_until(
        [&](const CompiledEngine& e) { return e.count_matching(leader) == 1; },
        /*max_rounds=*/500000.0);
    std::printf("[3] compiled LeaderElection: unique leader among %zu agents "
                "after %.0f rounds (clock-hierarchy paced; %llu gated "
                "program-rule firings)\n",
                n, *done,
                static_cast<unsigned long long>(engine.program_rule_firings()));
  }
  return 0;
}
