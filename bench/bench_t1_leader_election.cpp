// T1 — Theorem 3.1: LeaderElection (w.h.p., O(1) states) elects a unique
// leader within O(log n) good iterations / O(log^2 n) parallel rounds.
//
// Regenerates: convergence sweep over n, per-n success rate, iteration and
// round statistics, and the scaling-law fits against log n / log^2 n.
#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "lang/runtime.hpp"
#include "observe/telemetry.hpp"
#include "protocols/leader_election.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T1: LeaderElection (w.h.p.)",
      "Thm 3.1 — unique leader after O(log n) good iterations, O(log^2 n) "
      "rounds, w.h.p.",
      ctx);

  // Every statement is a species relabel or count, so n costs nothing.
  const auto ns = pow2_range(8, 30);
  const std::size_t trials = scaled(20, ctx);

  std::vector<ScalingRow> iteration_rows, round_rows;
  {
    auto run_trial = [&](std::uint64_t n, std::uint64_t seed, bool rounds_out)
        -> std::optional<double> {
      auto vars = make_var_space();
      const Program p = make_leader_election_program(vars);
      RuntimeOptions opts;
      opts.seed = seed;
      FrameworkRuntime rt(p, static_cast<std::size_t>(n), opts);
      const auto t = rt.run_until(
          [&](const SimBackend& pop) {
            return leader_count(pop, *vars) == 1;
          },
          400);
      if (!t) return std::nullopt;
      return rounds_out ? *t : static_cast<double>(rt.iterations());
    };
    iteration_rows = run_sweep_parallel(ns, trials, 0x7101, [&](auto n, auto s) {
      return run_trial(n, s, false);
    });
    round_rows = run_sweep_parallel(ns, trials, 0x7101, [&](auto n, auto s) {
      return run_trial(n, s, true);
    });
  }

  Table t(scaling_headers({"metric"}));
  for (const auto& r : iteration_rows) {
    t.row().add("iterations");
    add_scaling_columns(t, r);
  }
  for (const auto& r : round_rows) {
    t.row().add("rounds");
    add_scaling_columns(t, r);
  }
  t.print(std::cout, "LeaderElection convergence sweep", ctx.csv);

  const PolylogChoice fit_it = fit_rows_polylog(iteration_rows, 3);
  const PolylogChoice fit_rd = fit_rows_polylog(round_rows, 4);
  std::cout << "iterations " << describe_polylog(fit_it)
            << "   [paper: Θ(log n)]\n";
  std::cout << "rounds     " << describe_polylog(fit_rd)
            << "   [paper: Θ(log^2 n)]\n";

  Telemetry telemetry("bench_t1_leader_election");
  telemetry.add_counter("trials_per_n", static_cast<double>(trials));
  add_sweep_counters(telemetry, iteration_rows, "iterations.");
  add_sweep_counters(telemetry, round_rows, "rounds.");
  telemetry.add_counter("fit.iterations.power", fit_it.power);
  telemetry.add_counter("fit.iterations.r_squared", fit_it.r_squared);
  telemetry.add_counter("fit.rounds.power", fit_rd.power);
  telemetry.add_counter("fit.rounds.r_squared", fit_rd.r_squared);
  telemetry.capture_profile();
  const std::string tpath =
      telemetry_json_path("TELEMETRY_t1_leader_election.json");
  if (telemetry.write_json(tpath))
    std::cout << "wrote " << tpath << " (" << telemetry.counters().size()
              << " counters)\n";
  return 0;
}
