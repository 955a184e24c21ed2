// T14 — Theorem 2.4(ii)(a) vs (b): the states/time trade-off of the
// initialization phase. The always-correct compilation (elimination-driven
// #X, O(1) states) pays O(n^eps) initialization; the w.h.p. compilation
// (k-level signal, O(1) states) and the junta-driven variant
// (O(log log n) states) pay polylog.
#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "clocks/x_control.hpp"
#include "core/count_engine.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T14: Initialization-phase trade-off",
      "Thm 2.4(ii) — (b) always-correct: O(n^eps) init with O(1) states; "
      "(a) w.h.p.: polylog init (k-level signal, or junta with O(log log n) "
      "states). Init = time until #X enters [1, n^{1-eps}].",
      ctx);

  const double eps = 0.5;
  const auto ns = pow2_range(12, ctx.scale >= 2.0 ? 20 : 17);
  // The junta runs on counts to paper scale (T5's range).
  const auto junta_ns = pow2_range(12, ctx.scale >= 2.0 ? 30 : 24);
  const std::size_t trials = scaled(5, ctx);

  struct Variant {
    const char* name;
    const char* states;
    const char* guarantee;
  };
  const Variant variants[] = {
      {"elimination (Prop 5.3)", "O(1)", "#X >= 1 forever (always-correct)"},
      {"k-level signal, k=2 (Prop 5.5)", "O(1)", "X eventually dies (w.h.p.)"},
      {"junta election (Prop 5.4)", "O(log log n)", "#X >= 1 forever"},
  };

  Table t(scaling_headers({"variant", "states"}));
  std::vector<ScalingRow> rows_by_variant[3];
  for (int v = 0; v < 3; ++v) {
    rows_by_variant[v] = run_sweep_parallel(
        v == 2 ? junta_ns : ns, trials, 0x7E14 + static_cast<std::uint64_t>(v),
        [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
          const double thr = std::pow(static_cast<double>(n), 1.0 - eps);
          auto vars = make_var_space();
          const Protocol p = v == 0   ? make_x_elimination_protocol(vars)
                             : v == 1 ? make_klevel_signal_protocol(vars, 2)
                                      : make_junta_protocol(vars);
          const VarId x = *vars->find(kXVar);
          State init = var_bit(x);
          if (v == 1) init |= var_bit(*vars->find(kZVar));
          CountEngine eng(p, {{init, n}}, seed);
          // The junta gets there in a few rounds: read it every 1/16 round.
          return eng.run_until(
              [&](const SimBackend& e) {
                return static_cast<double>(
                           e.count_matching(BoolExpr::var(x))) < thr;
              },
              v == 2 ? 400.0 * std::log(static_cast<double>(n)) : 1e9,
              v == 2 ? 1.0 / 16.0 : 1.0);
        });
    for (const auto& r : rows_by_variant[v]) {
      t.row().add(variants[v].name).add(variants[v].states);
      add_scaling_columns(t, r);
    }
  }
  t.print(std::cout, "initialization time (rounds to #X < n^{1/2})", ctx.csv);

  const LinearFit elim = fit_rows_power(rows_by_variant[0]);
  const PolylogChoice klevel = fit_rows_polylog(rows_by_variant[1], 3);
  const PolylogChoice junta = fit_rows_polylog(rows_by_variant[2], 2);
  std::cout << "elimination ~ n^" << format_double(elim.slope, 2)
            << "   [paper: Θ(n^eps), eps=0.5]\n";
  std::cout << "k-level     " << describe_polylog(klevel)
            << "   [paper: polylog]\n";
  std::cout << "junta       " << describe_polylog(junta)
            << "   [paper: O(log n)]\n";
  for (const auto& v : variants)
    std::cout << "  " << v.name << ": states " << v.states << "; "
              << v.guarantee << "\n";
  return 0;
}
