// T5 — Propositions 5.3 and 5.4: driving #X into [1, n^{1-eps}].
//
//  * Elimination (X+X -> ¬X+X): time to #X <= n^{1-eps} is Θ(n^eps),
//    with #X >= 1 guaranteed forever — measured exponent vs eps.
//  * Junta election ([GS18]-style, O(log log n) states): #X <= n^{1-eps}
//    within O(log n) rounds; junta size and peak live species reported.
//    On species counts it sweeps up to n = 2^24.
//
// Exits 1 when a trial misses its threshold or #X ever reaches 0.
#include <algorithm>
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
  const auto junta_ns = pow2_range(12, ctx.scale >= 2.0 ? 30 : 24);
  const std::size_t trials = scaled(5, ctx);
  bool ok = true;
  const auto all_succeeded = [&](const std::vector<ScalingRow>& rows) {
    for (const auto& r : rows) ok = ok && r.successes == r.trials;
  };
  // Rounds until #X < thr on counts, every agent starting in X, read every
  // `check_interval` rounds; nullopt past `max_rounds`.
  const auto time_below = [](const Protocol& p, std::uint64_t n,
                             std::uint64_t seed, double thr,
                             double max_rounds, double check_interval) {
    const VarId x = p.vars()->at(kXVar);
    CountEngine eng(p, x_counts(n, n, *p.vars()), seed);
    return eng.run_until(
        [&](const SimBackend& e) {
          return static_cast<double>(e.count_matching(BoolExpr::var(x))) < thr;
        },
        max_rounds, check_interval);
  };

  for (const double eps : {0.25, 0.5}) {
    Table t(scaling_headers({"process", "eps"}));
    std::vector<ScalingRow> elim_rows = run_sweep_parallel(
        ns, trials, 0x7505,
        [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
          return time_below(make_x_elimination_protocol(make_var_space()), n,
                            seed, std::pow(static_cast<double>(n), 1.0 - eps),
                            1e9, 1.0);
        });
    for (const auto& r : elim_rows) {
      t.row().add("elimination").add(eps, 2);
      add_scaling_columns(t, r);
    }
    // The junta gets there in a few rounds, so it is read on a 1/16-round
    // grid; whole rounds would leave its rows p10 = p90.
    std::vector<ScalingRow> junta_rows = run_sweep_parallel(
        junta_ns, trials, 0x7506,
        [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
          return time_below(make_junta_protocol(make_var_space()), n, seed,
                            std::pow(static_cast<double>(n), 1.0 - eps),
                            200.0 * std::log(static_cast<double>(n)),
                            1.0 / 16.0);
        });
    for (const auto& r : junta_rows) {
      t.row().add("junta").add(eps, 2);
      add_scaling_columns(t, r);
    }
    t.print(std::cout,
            "time to #X < n^(1-eps), eps=" + format_double(eps, 2), ctx.csv);
    all_succeeded(elim_rows);
    all_succeeded(junta_rows);

    const LinearFit elim_fit = fit_rows_power(elim_rows);
    const PolylogChoice junta_fit = fit_rows_polylog(junta_rows, 2);
    std::cout << "elimination: time ~ n^" << format_double(elim_fit.slope, 3)
              << " (R^2=" << format_double(elim_fit.r_squared, 3)
              << ")   [paper: Θ(n^" << format_double(eps, 2) << ")]\n";
    std::cout << "junta:       time " << describe_polylog(junta_fit)
              << "   [paper: O(log n)]\n\n";
  }

  // Junta size, the #X >= 1 invariant, and the live species (Prop 5.4's
  // O(log log n) states), read every quarter round for 200 rounds.
  Table j({"n", "junta size", "n^(1/2)", "#X >= 1 held",
           "peak live species"});
  for (const auto n : junta_ns) {
    auto vars = make_var_space();
    const Protocol p = make_junta_protocol(vars);
    const VarId x = vars->at(kXVar);
    CountEngine eng(p, x_counts(n, n, *vars), 0x7507);
    bool nonempty = true;
    std::size_t peak = 0;
    for (int i = 0; i < 800; ++i) {
      eng.run_rounds(0.25);
      nonempty = nonempty && eng.count_matching(BoolExpr::var(x)) >= 1;
      peak = std::max(peak, eng.species().size());
    }
    ok = ok && nonempty;
    j.row()
        .add(n)
        .add(eng.count_matching(BoolExpr::var(x)))
        .add(std::sqrt(static_cast<double>(n)), 0)
        .add(nonempty ? "yes" : "NO")
        .add(static_cast<std::uint64_t>(peak));
  }
  j.print(std::cout, "junta stabilization", ctx.csv);
  if (!ok) {
    std::cerr << "bench_t5_x_control: a trial missed its threshold or #X "
                 "reached 0\n";
    return 1;
  }
  return 0;
}
