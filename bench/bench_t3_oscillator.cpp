// T3 — Theorem 5.1: the base oscillator P_o escapes the central region in
// O(log n) rounds (i), then oscillates with period Θ(log n), cyclic
// dominance order, dips below n^{1-eps/3} and peaks above n - o(n) (ii),
// under the sequential and random-matching schedulers, for #X in
// [1, n^{1-eps}].
//
// Runs the kernel form of P_o (clocks/oscillator.hpp) on species counts:
// the sequential scheduler on CountEngine, the random-matching scheduler on
// BatchEngine with one shard (an exact uniform matching per round).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "analysis/report.hpp"
#include "clocks/oscillator.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"

using namespace popproto;

namespace {

struct Measured {
  double escape = -1;
  double period = -1;
  double cyclic_fraction = 0;
  std::uint64_t min_dip = 0;
  std::uint64_t max_peak = 0;
};

std::unique_ptr<SimBackend> make_oscillator(
    const Protocol& proto,
    const std::vector<std::pair<State, std::uint64_t>>& init,
    std::uint64_t seed, bool matching) {
  if (!matching) return std::make_unique<CountEngine>(proto, init, seed);
  BatchEngine::Params params;
  params.threads = 1;
  return std::make_unique<BatchEngine>(proto, init, seed, params);
}

Measured measure(std::uint64_t n, std::uint64_t x, std::uint64_t seed,
                 bool matching) {
  Measured m;
  auto vars = make_var_space();
  const Protocol proto = make_oscillator_kernel_protocol(vars);
  const auto eng = make_oscillator(
      proto, oscillator_uniform_counts(n, x, *vars), seed, matching);
  std::array<std::uint64_t, 3> sp = oscillator_species_counts(*eng, *vars);
  const auto observe = [&] { sp = oscillator_species_counts(*eng, *vars); };
  const auto a_min = [&] { return *std::min_element(sp.begin(), sp.end()); };
  const auto a_max = [&] { return *std::max_element(sp.begin(), sp.end()); };
  const auto dominant = [&] {
    return static_cast<int>(std::max_element(sp.begin(), sp.end()) -
                            sp.begin());
  };
  const double thr = std::pow(static_cast<double>(n), 0.75);  // eps = 1/2
  while (eng->rounds() < 4000.0) {
    if (static_cast<double>(a_min()) < thr) {
      m.escape = eng->rounds();
      break;
    }
    eng->run_rounds(1.0);
    observe();
  }
  if (m.escape < 0) return m;
  eng->run_rounds(50.0);
  observe();
  int dom = dominant();
  int switches = 0, cyclic = 0;
  m.min_dip = n;
  const double window = 400.0;
  const double t0 = eng->rounds();
  while (eng->rounds() < t0 + window) {
    // A matching round is indivisible: each step there is one round.
    eng->run_rounds(0.25);
    observe();
    m.min_dip = std::min(m.min_dip, a_min());
    m.max_peak = std::max(m.max_peak, a_max());
    if (a_max() > n - n / 10) {
      const int d = dominant();
      if (d != dom) {
        ++switches;
        if (d == (dom + 1) % 3) ++cyclic;
        dom = d;
      }
    }
  }
  if (switches > 0) {
    m.period = 3.0 * window / switches;
    m.cyclic_fraction = static_cast<double>(cyclic) / switches;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T3: Oscillator (P_o)",
      "Thm 5.1 — escape in O(log n); period Θ(log n); cyclic order; dips "
      "<< n; peaks ~ n. Sequential and matching schedulers.",
      ctx);

  Table t({"scheduler", "n", "#X", "escape", "period", "period/ln n",
           "cyclic", "min dip", "max peak"});
  std::vector<double> ns_fit, escape_fit, period_fit;
  for (const bool matching : {false, true}) {
    for (const int e : {10, 12, 14, 16, ctx.scale >= 2.0 ? 20 : 18}) {
      const std::uint64_t n = 1ull << e;
      const auto x = static_cast<std::uint64_t>(
          std::pow(static_cast<double>(n), 0.33));
      const Measured m = measure(n, x, 0x7303 + static_cast<std::uint64_t>(e),
                                 matching);
      const double ln_n = std::log(static_cast<double>(n));
      t.row()
          .add(matching ? "matching" : "sequential")
          .add(n)
          .add(x)
          .add(m.escape, 1)
          .add(m.period, 1)
          .add(m.period / ln_n, 2)
          .add(m.cyclic_fraction, 2)
          .add(m.min_dip)
          .add(m.max_peak);
      if (!matching && m.escape > 0) {
        ns_fit.push_back(static_cast<double>(n));
        escape_fit.push_back(m.escape);
        period_fit.push_back(m.period);
      }
    }
  }
  t.print(std::cout, "Oscillator behaviour (Thm 5.1)", ctx.csv);

  const LinearFit esc = fit_polylog(ns_fit, escape_fit, 1.0);
  const LinearFit per = fit_polylog(ns_fit, period_fit, 1.0);
  std::cout << "escape ~ " << format_double(esc.slope, 2)
            << " ln n + " << format_double(esc.intercept, 1)
            << " (R^2=" << format_double(esc.r_squared, 3)
            << ")   [paper: O(log n)]\n";
  std::cout << "period ~ " << format_double(per.slope, 2)
            << " ln n + " << format_double(per.intercept, 1)
            << " (R^2=" << format_double(per.r_squared, 3)
            << ")   [paper: Θ(log n)]\n";
  return 0;
}
