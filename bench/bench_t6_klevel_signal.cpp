// T6 — Proposition 5.5: the k-level decaying signal gives
// #X ~ n·exp(-t^{1/k}) and pushes #X below n^{1-eps} in polylog time
// (at the cost of eventual extinction).
#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "clocks/x_control.hpp"
#include "core/count_engine.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T6: k-level decaying signal",
      "Prop 5.5 — #X ~ n exp(-t^{1/k}); #X < n^{1-eps} within polylog "
      "time; X eventually extinguishes.",
      ctx);

  // Trajectory: #X over time for k = 1..3 at fixed n.
  const std::uint64_t n = ctx.scale >= 2.0 ? (1 << 16) : (1 << 13);
  Table traj({"rounds", "#X (k=1)", "#X (k=2)", "#X (k=3)"});
  {
    std::vector<std::unique_ptr<CountEngine>> engines;
    std::vector<std::shared_ptr<VarSpace>> spaces;
    std::vector<VarId> xs;
    std::vector<Protocol> protos;
    protos.reserve(3);
    for (int k = 1; k <= 3; ++k) {
      auto vars = make_var_space();
      protos.push_back(make_klevel_signal_protocol(vars, k));
      const VarId x = *vars->find(kXVar);
      const State init = var_bit(x) | var_bit(*vars->find(kZVar));
      engines.push_back(std::make_unique<CountEngine>(
          protos.back(), std::vector<std::pair<State, std::uint64_t>>{{init, n}},
          0x7606 + static_cast<std::uint64_t>(k)));
      spaces.push_back(vars);
      xs.push_back(x);
    }
    for (double t = 0; t <= 800.0; t += 50.0) {
      traj.row().add(t, 0);
      for (int k = 0; k < 3; ++k) {
        engines[static_cast<std::size_t>(k)]->run_rounds(
            t == 0 ? 0.0 : 50.0);
        traj.add(engines[static_cast<std::size_t>(k)]->count_matching(
            BoolExpr::var(xs[static_cast<std::size_t>(k)])));
      }
    }
  }
  traj.print(std::cout,
             "#X trajectory, n=" + std::to_string(n) +
                 "  [paper: n*exp(-t^{1/k})]",
             ctx.csv);

  // Scaling: time to #X < sqrt(n) vs n, per k.
  const auto ns = pow2_range(11, ctx.scale >= 2.0 ? 17 : 14);
  Table t(scaling_headers({"k"}));
  for (int k = 1; k <= 3; ++k) {
    auto rows = run_sweep_parallel(
        ns, scaled(3, ctx), 0x7607,
        [&](std::uint64_t nn, std::uint64_t seed) -> std::optional<double> {
          auto vars = make_var_space();
          const Protocol p = make_klevel_signal_protocol(vars, k);
          const VarId x = *vars->find(kXVar);
          const State init = var_bit(x) | var_bit(*vars->find(kZVar));
          CountEngine eng(p, {{init, nn}}, seed);
          const double thr = std::sqrt(static_cast<double>(nn));
          return eng.run_until(
              [&](const SimBackend& e) {
                return static_cast<double>(
                           e.count_matching(BoolExpr::var(x))) < thr;
              },
              1e8);
        });
    for (const auto& r : rows) {
      t.row().add(k);
      add_scaling_columns(t, r);
    }
    if (k == 2) {
      const PolylogChoice fit = fit_rows_polylog(rows, 3);
      std::cout << "k=2: time to sqrt(n) " << describe_polylog(fit)
                << "   [paper: polylog]\n";
    }
  }
  t.print(std::cout, "time to #X < sqrt(n)", ctx.csv);
  return 0;
}
