// T2 — Theorem 3.2: Majority (w.h.p., O(1) states) computes the exact
// majority in O(log^3 n) rounds, correct regardless of the gap.
//
// Regenerates: rounds-to-correct-output and success rate over n x gap, and
// the (ln n)^3 scaling fit.
#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "lang/runtime.hpp"
#include "protocols/majority.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T2: Majority (w.h.p.)",
      "Thm 3.2 — correct exact majority for any gap in O(log^3 n) rounds "
      "w.h.p.",
      ctx);

  // The per-agent input vector (8 bytes an agent) is what bounds n here.
  const auto ns = pow2_range(8, ctx.scale >= 2.0 ? 22 : 20);
  const std::size_t trials = scaled(15, ctx);

  struct GapSpec {
    const char* name;
    std::size_t (*gap)(std::size_t);
  };
  const GapSpec gaps[] = {
      {"1", [](std::size_t) -> std::size_t { return 1; }},
      {"sqrt(n)",
       [](std::size_t n) {
         return static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
       }},
      {"n/4", [](std::size_t n) -> std::size_t { return n / 4; }},
  };

  Table t(scaling_headers({"gap"}));
  std::vector<ScalingRow> gap1_rows;
  for (const auto& g : gaps) {
    auto rows = run_sweep_parallel(ns, trials, 0x7202, [&](std::uint64_t n,
                                                  std::uint64_t seed)
                                                  -> std::optional<double> {
      const auto nn = static_cast<std::size_t>(n);
      const std::size_t gap = g.gap(nn);
      const std::size_t count_b = (nn - gap) / 2;
      const std::size_t count_a = count_b + gap;
      auto vars = make_var_space();
      const Program p = make_majority_program(vars);
      RuntimeOptions opts;
      opts.c = 2.5;
      opts.seed = seed;
      FrameworkRuntime rt(p, majority_inputs(*vars, nn, count_a, count_b),
                          opts);
      return rt.run_until(
          [&](const SimBackend& pop) {
            return majority_output_is(pop, *vars, true);
          },
          8);
    });
    for (const auto& r : rows) {
      t.row().add(g.name);
      add_scaling_columns(t, r);
    }
    if (std::string(g.name) == "1") gap1_rows = rows;
  }
  t.print(std::cout, "Majority convergence sweep (rounds)", ctx.csv);

  const PolylogChoice fit = fit_rows_polylog(gap1_rows, 4);
  std::cout << "rounds at gap 1 " << describe_polylog(fit)
            << "   [paper: O(log^3 n)]\n";
  return 0;
}
