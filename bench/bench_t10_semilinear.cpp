// T10 — Theorem 6.4 / §6.3: semi-linear predicates. Threshold predicates
// ride the fast (cancel/duplicate) blackbox in polylog rounds; modulo
// predicates are carried by the slow stable blackbox (DESIGN.md §3.2); the
// combined protocol is eventually correct with certainty.
#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "core/engine.hpp"
#include "lang/runtime.hpp"
#include "protocols/semilinear.hpp"

using namespace popproto;

namespace {

struct Scenario {
  const char* name;
  PredicateSpec spec;
  // counts as fractions of n: computed per n below.
  std::vector<double> fractions;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T10: Semi-linear predicates",
      "Thm 6.4 — any semi-linear predicate; threshold family converges in "
      "polylog rounds via the fast blackbox, modulo family via the slow "
      "stable blackbox (poly(n)).",
      ctx);

  const std::vector<Scenario> scenarios = {
      {"#A >= #B (gap n/16)", threshold_ge({1, -1}, 0), {0.40, 0.34}},
      {"2#A >= 3#B", threshold_ge({2, -3}, 0), {0.20, 0.12}},
      {"#A mod 3 == 1", mod_eq({1}, 3, 1), {0.25}},
      {"(#A>=#B) and (#A odd)",
       p_and(threshold_ge({1, -1}, 0), mod_eq({1, 0}, 2, 1)),
       {0.35, 0.20}},
  };

  const auto ns = pow2_range(7, ctx.scale >= 2.0 ? 11 : 9);
  const std::size_t trials = scaled(8, ctx);

  Table t(scaling_headers({"predicate", "path"}));
  for (const auto& sc : scenarios) {
    auto rows = run_sweep_parallel(
        ns, trials, 0x7A10,
        [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
          const auto nn = static_cast<std::size_t>(n);
          std::vector<std::size_t> counts;
          for (double f : sc.fractions)
            counts.push_back(static_cast<std::size_t>(
                f * static_cast<double>(nn)));
          // Keep the parity-sensitive scenarios deterministic: force #A odd
          // for the combined predicate.
          if (std::string(sc.name).find("odd") != std::string::npos)
            counts[0] |= 1;
          // Make the mod-3 scenario a nontrivial TRUE instance (the
          // all-blank default output is FALSE, so the slow blackbox has to
          // actually compute).
          if (std::string(sc.name).find("mod 3") != std::string::npos)
            counts[0] = counts[0] - counts[0] % 3 + 1;
          std::vector<std::uint64_t> counts64(counts.begin(), counts.end());
          const bool expected = sc.spec.eval(counts64);
          auto vars = make_var_space();
          const SemilinearProtocol proto =
              make_semilinear_exact_protocol(vars, sc.spec);
          RuntimeOptions opts;
          opts.c = 2.5;
          opts.seed = seed;
          FrameworkRuntime rt(proto.program, proto.inputs(nn, counts), opts);
          return rt.run_until(
              [&](const SimBackend& pop) {
                return semilinear_output_is(pop, *vars, expected);
              },
              sc.spec.fast_path_available() ? 60 : 4000);
        });
    for (const auto& r : rows) {
      t.row().add(sc.name).add(sc.spec.fast_path_available() ? "fast+slow"
                                                             : "slow");
      add_scaling_columns(t, r);
    }
  }
  t.print(std::cout, "rounds to correct unanimous output", ctx.csv);

  std::cout << "Note: modulo predicates have no leaderless fast path in this "
               "reproduction (the paper's [AAE08b] register machine is "
               "substituted per DESIGN.md §3.2); their convergence is the "
               "slow blackbox's Θ(n)-ish stabilization, visible above.\n";
  return 0;
}
