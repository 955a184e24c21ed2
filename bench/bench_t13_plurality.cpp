// T13 — §1.1: plurality consensus over l colors via the "straightforward
// adaptation" of Majority — same convergence-time shape, O(l^2) states.
#include <algorithm>
#include <iostream>

#include "analysis/report.hpp"
#include "lang/runtime.hpp"
#include "protocols/plurality.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T13: Plurality consensus",
      "§1.1 — largest of l input sets, Majority-style convergence, O(l^2) "
      "states (variable count reported).",
      ctx);

  const auto ns = pow2_range(8, ctx.scale >= 2.0 ? 12 : 10);
  const std::size_t trials = scaled(8, ctx);

  Table t(scaling_headers({"colors", "vars"}));
  for (const int colors : {3, 4, 5}) {
    auto vars_probe = make_var_space();
    make_plurality_program(vars_probe, colors);
    const auto var_count = vars_probe->size();
    auto rows = run_sweep_parallel(
        ns, trials, 0x7D13,
        [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
          const auto nn = static_cast<std::size_t>(n);
          // Colors sized n/(l+1), n/(l+1)-d, ... with small distinct gaps;
          // color 0 is the plurality.
          std::vector<std::size_t> counts;
          const std::size_t base = nn / (static_cast<std::size_t>(colors) + 1);
          for (int c = 0; c < colors; ++c)
            counts.push_back(base - static_cast<std::size_t>(c) * 2);
          auto vars = make_var_space();
          const Program p = make_plurality_program(vars, colors);
          RuntimeOptions opts;
          opts.c = plurality_recommended_c(colors);
          opts.seed = seed;
          FrameworkRuntime rt(p, plurality_inputs(*vars, nn, counts), opts);
          return rt.run_until(
              [&](const SimBackend& pop) {
                return plurality_winner(pop, *vars, colors) == 0;
              },
              8);
        });
    for (const auto& r : rows) {
      t.row().add(colors).add(static_cast<std::uint64_t>(var_count));
      add_scaling_columns(t, r);
    }
  }
  t.print(std::cout, "rounds to unanimous plurality winner", ctx.csv);
  std::cout << "State count grows with the color pairs (O(l^2)): the 'vars' "
               "column is the boolean state-variable budget per agent.\n";
  return 0;
}
