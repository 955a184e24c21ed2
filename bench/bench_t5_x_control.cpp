// T5 — Propositions 5.3 and 5.4: driving #X into [1, n^{1-eps}].
//
//  * Elimination (X+X -> ¬X+X): time to #X <= n^{1-eps} is Θ(n^eps),
//    with #X >= 1 guaranteed forever — measured exponent vs eps.
//  * Junta election ([GS18]-style, O(log log n) states): #X <= n^{1-eps}
//    within O(log n) rounds; junta size reported.
#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "clocks/x_control.hpp"
#include "core/count_engine.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T5: #X control — elimination vs junta",
      "Prop 5.3 — elimination reaches #X < n^{1-eps} in O(n^eps); Prop 5.4 "
      "— junta election does it in O(log n) with O(log log n) states.",
      ctx);

  const auto ns = pow2_range(12, ctx.scale >= 2.0 ? 20 : 17);
  const std::size_t trials = scaled(5, ctx);

  for (const double eps : {0.25, 0.5}) {
    Table t(scaling_headers({"process", "eps"}));
    std::vector<ScalingRow> elim_rows = run_sweep_parallel(
        ns, trials, 0x7505,
        [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
          auto vars = make_var_space();
          const Protocol p = make_x_elimination_protocol(vars);
          const VarId x = *vars->find(kXVar);
          CountEngine eng(p, {{var_bit(x), n}}, seed);
          const double thr =
              std::pow(static_cast<double>(n), 1.0 - eps);
          return eng.run_until(
              [&](const SimBackend& e) {
                return static_cast<double>(
                           e.count_matching(BoolExpr::var(x))) < thr;
              },
              1e9);
        });
    for (const auto& r : elim_rows) {
      t.row().add("elimination").add(eps, 2);
      add_scaling_columns(t, r);
    }
    std::vector<ScalingRow> junta_rows = run_sweep_parallel(
        ns, trials, 0x7506,
        [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
          XDriverHarness h(make_junta_x_driver(static_cast<std::size_t>(n)),
                           seed);
          const double thr =
              std::pow(static_cast<double>(n), 1.0 - eps);
          const double ln_n = std::log(static_cast<double>(n));
          while (h.rounds() < 200.0 * ln_n) {
            if (static_cast<double>(h.driver().x_count()) < thr)
              return h.rounds();
            h.run_rounds(1.0);
          }
          return std::nullopt;
        });
    for (const auto& r : junta_rows) {
      t.row().add("junta").add(eps, 2);
      add_scaling_columns(t, r);
    }
    t.print(std::cout,
            "time to #X < n^(1-eps), eps=" + format_double(eps, 2), ctx.csv);

    const LinearFit elim_fit = fit_rows_power(elim_rows);
    const PolylogChoice junta_fit = fit_rows_polylog(junta_rows, 2);
    std::cout << "elimination: time ~ n^" << format_double(elim_fit.slope, 3)
              << " (R^2=" << format_double(elim_fit.r_squared, 3)
              << ")   [paper: Θ(n^" << format_double(eps, 2) << ")]\n";
    std::cout << "junta:       time " << describe_polylog(junta_fit)
              << "   [paper: O(log n)]\n\n";
  }

  // Junta size + invariant check.
  Table j({"n", "junta size", "n^(1/2)", "#X >= 1 held"});
  for (const auto n : ns) {
    XDriverHarness h(make_junta_x_driver(static_cast<std::size_t>(n)), 0x7507);
    bool nonempty = true;
    for (int i = 0; i < 200; ++i) {
      h.run_rounds(1.0);
      nonempty = nonempty && h.driver().x_count() >= 1;
    }
    j.row()
        .add(n)
        .add(h.driver().x_count())
        .add(std::sqrt(static_cast<double>(n)), 0)
        .add(nonempty ? "yes" : "NO");
  }
  j.print(std::cout, "junta stabilization", ctx.csv);
  return 0;
}
