// T7 — §5.3: the clock hierarchy's rates are separated by Θ(log n) per
// level: r^(j) = Θ((alpha ln n)^j), and clock j completes many cycles per
// cycle of clock j+1.
#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "clocks/hierarchy.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T7: Clock hierarchy rates",
      "§5.3 — tick interval of clock j is Θ((alpha ln n)^j); adjacent "
      "clocks separated by a Θ(log n) factor (large constant: the stride-4 "
      "matching windows and the believer cycle length).",
      ctx);

  const Protocol fixed_x = make_fixed_x_protocol(make_var_space());
  Table t({"n", "interval L1", "interval L2", "ratio L2/L1", "ln n"});
  for (const std::uint64_t n : {800ull, 1600ull, 3200ull}) {
    HierarchyParams hp;
    hp.levels = 2;
    const auto x = static_cast<std::uint64_t>(
        std::pow(static_cast<double>(n), 0.33));
    ClockHierarchy h(static_cast<std::size_t>(n), hp, fixed_x,
                     x_counts(n, x, *fixed_x.vars()), 0x7707);
    h.run_rounds(30000.0);  // level-2 escape/lock
    const auto t1a = h.total_ticks(1);
    const auto t2a = h.total_ticks(2);
    const double window = 60000.0 * ctx.scale;
    h.run_rounds(window);
    const double ticks1 = static_cast<double>(h.total_ticks(1) - t1a);
    const double ticks2 = static_cast<double>(h.total_ticks(2) - t2a);
    const double i1 = window * static_cast<double>(n) / ticks1;
    const double i2 =
        ticks2 > 0 ? window * static_cast<double>(n) / ticks2 : -1.0;
    t.row()
        .add(n)
        .add(i1, 1)
        .add(i2, 1)
        .add(i2 > 0 ? i2 / i1 : -1.0, 1)
        .add(std::log(static_cast<double>(n)), 2);
  }
  t.print(std::cout, "two-level hierarchy tick intervals", ctx.csv);

  if (ctx.scale >= 2.0) {
    // Three levels at small n (opt-in: the level-3 warmup is expensive).
    Table t3({"n", "interval L1", "interval L2", "interval L3"});
    const std::size_t n = 400;
    HierarchyParams hp;
    hp.levels = 3;
    ClockHierarchy h(n, hp, fixed_x, x_counts(n, 3, *fixed_x.vars()), 0x7708);
    h.run_rounds(3.0e6);
    const auto a1 = h.total_ticks(1);
    const auto a2 = h.total_ticks(2);
    const auto a3 = h.total_ticks(3);
    const double window = 6.0e6;
    h.run_rounds(window);
    auto interval = [&](std::uint64_t d) {
      return d > 0 ? window * static_cast<double>(n) / static_cast<double>(d)
                   : -1.0;
    };
    t3.row()
        .add(static_cast<std::uint64_t>(n))
        .add(interval(h.total_ticks(1) - a1), 0)
        .add(interval(h.total_ticks(2) - a2), 0)
        .add(interval(h.total_ticks(3) - a3), 0);
    t3.print(std::cout, "three-level hierarchy (POPPROTO_SCALE >= 2)",
             ctx.csv);
  } else {
    std::cout << "(three-level measurement skipped; set POPPROTO_SCALE=2 "
                 "to enable)\n";
  }
  return 0;
}
