// T9 — Theorem 6.3: MajorityExact is always correct (any gap), reaching the
// answer in O(log^3 n) rounds w.h.p.; the slow input-cancellation thread
// then locks it in with certainty.
#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "lang/runtime.hpp"
#include "protocols/majority.hpp"
#include "protocols/majority_exact.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T9: MajorityExact",
      "Thm 6.3 — eventually-certain exact majority; w.h.p. answer in "
      "O(log^3 n) rounds.",
      ctx);

  const auto ns = pow2_range(8, ctx.scale >= 2.0 ? 13 : 11);
  const std::size_t trials = scaled(10, ctx);

  Table t(scaling_headers({"gap", "metric"}));
  for (const bool big_gap : {false, true}) {
    // Fast metric: rounds until the output is first correct everywhere.
    auto fast_rows = run_sweep_parallel(
        ns, trials, 0x7909,
        [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
          const auto nn = static_cast<std::size_t>(n);
          const std::size_t gap = big_gap ? nn / 8 : 1;
          const std::size_t b = (nn - gap) / 2;
          const std::size_t a = b + gap;
          auto vars = make_var_space();
          const Program p = make_majority_exact_program(vars);
          RuntimeOptions opts;
          opts.c = 2.5;
          opts.seed = seed;
          FrameworkRuntime rt(p, majority_inputs(*vars, nn, a, b), opts);
          return rt.run_until(
              [&](const SimBackend& pop) {
                return majority_output_is(pop, *vars, true);
              },
              50);
        });
    // Certainty metric: rounds until the minority input is exhausted (after
    // which the output can never flip again).
    auto certain_rows = run_sweep_parallel(
        ns, trials, 0x790A,
        [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
          const auto nn = static_cast<std::size_t>(n);
          const std::size_t gap = big_gap ? nn / 8 : 1;
          const std::size_t b = (nn - gap) / 2;
          const std::size_t a = b + gap;
          auto vars = make_var_space();
          const Program p = make_majority_exact_program(vars);
          RuntimeOptions opts;
          opts.c = 2.5;
          opts.seed = seed;
          FrameworkRuntime rt(p, majority_inputs(*vars, nn, a, b), opts);
          const VarId B = *vars->find(kMajInputB);
          return rt.run_until(
              [&](const SimBackend& pop) {
                return pop.count_matching(BoolExpr::var(B)) == 0 &&
                       majority_output_is(pop, *vars, true);
              },
              4000);
        });
    const char* gap_name = big_gap ? "n/8" : "1";
    for (const auto& r : fast_rows) {
      t.row().add(gap_name).add("first correct");
      add_scaling_columns(t, r);
    }
    for (const auto& r : certain_rows) {
      t.row().add(gap_name).add("locked (certain)");
      add_scaling_columns(t, r);
    }
    if (!big_gap) {
      const PolylogChoice fit = fit_rows_polylog(fast_rows, 4);
      std::cout << "gap 1, first-correct rounds " << describe_polylog(fit)
                << "   [paper: O(log^3 n)]\n";
    }
  }
  t.print(std::cout, "MajorityExact convergence", ctx.csv);
  return 0;
}
