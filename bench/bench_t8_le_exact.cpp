// T8 — Theorems 6.1/6.2: LeaderElectionExact always elects exactly one
// leader (certainty across seeds, including adversarial iterations), in
// O(log^2 n) rounds w.h.p. after the initialization phase.
#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "lang/runtime.hpp"
#include "protocols/leader_election_exact.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T8: LeaderElectionExact",
      "Thm 6.1/6.2 — a unique leader with certainty; O(log^2 n) rounds "
      "w.h.p. after initialization.",
      ctx);

  const auto ns = pow2_range(8, ctx.scale >= 2.0 ? 15 : 13);
  const std::size_t trials = scaled(15, ctx);

  Table t(scaling_headers({"bad it. rate"}));
  std::vector<ScalingRow> clean_rows;
  for (const double bad : {0.0, 0.3}) {
    auto rows = run_sweep_parallel(
        ns, trials, 0x7808,
        [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
          auto vars = make_var_space();
          const Program p = make_leader_election_exact_program(vars);
          RuntimeOptions opts;
          opts.seed = seed;
          opts.bad_iteration_rate = bad;
          FrameworkRuntime rt(p, static_cast<std::size_t>(n), opts);
          const VarId L = *vars->find(kExactLeaderVar);
          return rt.run_until(
              [&](const SimBackend& pop) {
                return pop.count_matching(BoolExpr::var(L)) == 1;
              },
              4000);
        });
    for (const auto& r : rows) {
      t.row().add(bad, 1);
      add_scaling_columns(t, r);
    }
    if (bad == 0.0) clean_rows = rows;
  }
  t.print(std::cout,
          "rounds to unique leader (success = certainty requirement)",
          ctx.csv);

  const PolylogChoice fit = fit_rows_polylog(clean_rows, 3);
  std::cout << "rounds " << describe_polylog(fit)
            << "   [paper: O(log^2 n) after init]\n";
  return 0;
}
