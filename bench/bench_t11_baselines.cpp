// T11 — §1.2 comparison: our w.h.p. Majority (O(log^3 n), any gap) against
// the 3-state approximate majority [AAE08a] (O(log n) but gap-limited) and
// the 4-state exact majority [DV12/MNRS14] (always correct, Θ(n log n)).
// The shape to reproduce: the 4-state baseline's time explodes with n while
// ours stays polylog (crossover), and the 3-state baseline's accuracy
// collapses at small gaps while ours stays exact.
#include <chrono>
#include <cmath>
#include <iostream>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "core/count_engine.hpp"
#include "lang/runtime.hpp"
#include "protocols/baselines.hpp"
#include "protocols/majority.hpp"
#include "support/bench_io.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T11: Majority vs baselines",
      "§1.2 — ours: polylog, exact at any gap. AM3: O(log n) but needs gap "
      "Ω(sqrt(n log n)). DV12: exact but Θ(n log n).",
      ctx);

  const auto ns = pow2_range(8, ctx.scale >= 2.0 ? 14 : 12);
  const std::size_t trials = scaled(10, ctx);

  // --- Convergence time at gap 1 (exact protocols only). ---
  Table t(scaling_headers({"protocol"}));
  std::vector<ScalingRow> ours, dv12;
  ours = run_sweep_parallel(ns, trials, 0x7B11,
                   [&](std::uint64_t n, std::uint64_t seed)
                       -> std::optional<double> {
                     const auto nn = static_cast<std::size_t>(n);
                     auto vars = make_var_space();
                     const Program p = make_majority_program(vars);
                     RuntimeOptions opts;
                     opts.c = 2.5;
                     opts.seed = seed;
                     FrameworkRuntime rt(
                         p, majority_inputs(*vars, nn, nn / 2 + 1, nn / 2 - 1),
                         opts);
                     return rt.run_until(
                         [&](const SimBackend& pop) {
                           return majority_output_is(pop, *vars, true);
                         },
                         10);
                   });
  dv12 = run_sweep_parallel(ns, trials, 0x7B12,
                   [&](std::uint64_t n, std::uint64_t seed)
                       -> std::optional<double> {
                     auto vars = make_var_space();
                     const Protocol p = make_dv12_majority_protocol(vars);
                     const VarId ma = *vars->find("MA");
                     const VarId mb = *vars->find("MB");
                     const VarId st = *vars->find("STRONG");
                     CountEngine eng(
                         p,
                         {{var_bit(ma) | var_bit(st), n / 2 + 1},
                          {var_bit(mb) | var_bit(st), n / 2 - 1}},
                         seed);
                     return eng.run_until(
                         [&](const SimBackend& e) {
                           return e.count_matching(BoolExpr::var(ma)) == n;
                         },
                         1e9);
                   });
  for (const auto& r : ours) {
    t.row().add("Majority (this paper)");
    add_scaling_columns(t, r);
  }
  for (const auto& r : dv12) {
    t.row().add("DV12 4-state");
    add_scaling_columns(t, r);
  }
  t.print(std::cout, "rounds to exact majority at gap 1", ctx.csv);
  const PolylogChoice fo = fit_rows_polylog(ours, 4);
  const LinearFit fd = fit_rows_power(dv12);
  std::cout << "ours  " << describe_polylog(fo) << "\n";
  std::cout << "DV12  ~ n^" << format_double(fd.slope, 2)
            << " (R^2=" << format_double(fd.r_squared, 3)
            << ")   [paper: Θ(n log n)]\n\n";

  // --- Accuracy vs gap (fixed n): AM3 vs ours. ---
  const std::size_t n_acc = 4096;
  Table acc({"gap", "AM3 correct", "AM3 rounds (median)", "ours correct"});
  for (const std::size_t gap :
       {std::size_t{1}, std::size_t{8}, std::size_t{64},
        static_cast<std::size_t>(
            std::sqrt(4096.0 * std::log(4096.0))),
        std::size_t{1024}}) {
    std::size_t am3_ok = 0;
    std::vector<double> am3_rounds;
    std::size_t ours_ok = 0;
    const std::size_t acc_trials = scaled(20, ctx);
    for (std::size_t s = 0; s < acc_trials; ++s) {
      {
        auto vars = make_var_space();
        const Protocol p = make_approximate_majority_protocol(vars);
        const VarId a = *vars->find("BA");
        const VarId b = *vars->find("BB");
        const std::size_t minority = (n_acc - gap) / 2;
        CountEngine eng(p,
                        {{var_bit(a), minority + gap},
                         {var_bit(b), minority},
                         {0, n_acc - 2 * minority - gap}},
                        0x7B13 + s * 7 + gap);
        const auto t_conv = eng.run_until(
            [&](const SimBackend& e) {
              return e.count_matching(BoolExpr::var(a)) == n_acc ||
                     e.count_matching(BoolExpr::var(b)) == n_acc;
            },
            5000.0);
        if (t_conv) {
          am3_rounds.push_back(*t_conv);
          if (eng.count_matching(BoolExpr::var(a)) == n_acc) ++am3_ok;
        }
      }
      {
        auto vars = make_var_space();
        const Program p = make_majority_program(vars);
        RuntimeOptions opts;
        opts.c = 2.5;
        opts.seed = 0x7B14 + s * 11 + gap;
        const std::size_t minority = (n_acc - gap) / 2;
        FrameworkRuntime rt(p,
                            majority_inputs(*vars, n_acc, minority + gap,
                                            minority),
                            opts);
        if (rt.run_until(
                [&](const SimBackend& pop) {
                  return majority_output_is(pop, *vars, true);
                },
                8))
          ++ours_ok;
      }
    }
    acc.row()
        .add(static_cast<std::uint64_t>(gap))
        .add_fraction(am3_ok, acc_trials)
        .add(summarize(am3_rounds).median, 1)
        .add_fraction(ours_ok, acc_trials);
  }
  acc.print(std::cout,
            "accuracy vs gap at n=4096 (AM3 needs gap Ω(sqrt(n log n)))",
            ctx.csv);

  // --- Engine-mode series: direct vs skip vs batch on the DV12 workload. ---
  // The Θ(n log n)-interaction exact-majority baseline is the workload the
  // batched sampler (DESIGN.md §9) exists for; record all three engine modes
  // into the BENCH_engine.json trajectory so the speedup is tracked per
  // commit alongside the kernel microbenches.
  // n is modest because the direct-mode run pays the full Θ(n^2 log n)
  // scheduler-interaction cost the other two modes exist to avoid.
  std::vector<BenchRecord> recs;
  const std::uint64_t n_eng = 1 << 11;
  double direct_eff = 0.0;
  const std::pair<const char*, CountEngineMode> eng_modes[] = {
      {"t11_dv12_direct", CountEngineMode::kDirect},
      {"t11_dv12_skip", CountEngineMode::kSkip},
      {"t11_dv12_batch", CountEngineMode::kBatch}};
  for (const auto& [rec_name, mode] : eng_modes) {
    auto vars = make_var_space();
    const Protocol p = make_dv12_majority_protocol(vars);
    const VarId ma = *vars->find("MA");
    const VarId mb = *vars->find("MB");
    const VarId st = *vars->find("STRONG");
    CountEngine eng(p,
                    {{var_bit(ma) | var_bit(st), n_eng / 2 + 1},
                     {var_bit(mb) | var_bit(st), n_eng / 2 - 1}},
                    0x7B15, mode);
    const auto t0 = std::chrono::steady_clock::now();
    eng.run_until(
        [&](const SimBackend& e) {
          return e.count_matching(BoolExpr::var(ma)) == n_eng;
        },
        1e9);
    const double wall = std::max(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        1e-9);
    BenchRecord rec;
    rec.name = rec_name;
    rec.wall_seconds = wall;
    rec.interactions_per_sec = static_cast<double>(eng.interactions()) / wall;
    rec.effective_interactions_per_sec =
        static_cast<double>(eng.effective_interactions()) / wall;
    rec.extra.emplace_back("n", static_cast<double>(n_eng));
    if (mode == CountEngineMode::kDirect)
      direct_eff = rec.effective_interactions_per_sec;
    else if (direct_eff > 0.0)
      rec.extra.emplace_back("speedup_vs_direct_effective",
                             rec.effective_interactions_per_sec / direct_eff);
    recs.push_back(std::move(rec));
  }
  write_bench_json(bench_json_path("BENCH_engine.json"), "bench_t11_baselines",
                   recs);
  return 0;
}
