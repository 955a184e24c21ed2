// T4 — Theorem 5.2: the base phase clock C_o operates correctly while
// 0 < #X < n^c: digit ticks arrive every Θ(log n) rounds, tick intervals
// concentrate, and the whole population stays synchronized to within one
// digit.
//
// Runs the kernel clock C_o (clocks/phase_clock.hpp) on the agent engine,
// which can follow one agent's digit: tick times are stamped at the first
// poll (every 1/16 round) that sees the observed agent's digit change. The
// four populations run concurrently, one per thread.
#include <algorithm>
#include <bit>
#include <cmath>
#include <iostream>

#include "analysis/report.hpp"
#include "clocks/phase_clock.hpp"
#include "core/engine.hpp"
#include "observe/telemetry.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

using namespace popproto;

namespace {

/// The kernel clock on the agent engine, with the tick times of one fixed
/// agent (the last one, never in the X set).
class ObservedClock {
 public:
  ObservedClock(std::size_t n, std::size_t x, std::uint64_t seed)
      : vars_(make_var_space()),
        proto_(make_clock_kernel_protocol(vars_, prm_)),
        codec_(*vars_, prm_),
        eng_(proto_, clock_kernel_initial_states(n, x, codec_), seed),
        observed_(n - 1),
        digit_(observed_digit()) {}

  void run_rounds(double rounds) {
    const double target = eng_.rounds() + rounds;
    while (eng_.rounds() < target) {
      eng_.run_rounds(std::min(1.0 / 16.0, target - eng_.rounds()));
      const int d = observed_digit();
      if (d != digit_) tick_times_.push_back(eng_.rounds());
      digit_ = d;
    }
  }
  double rounds() const { return eng_.rounds(); }
  int digit_spread() const { return clock_census(eng_, codec_).digit_spread(); }
  const std::vector<double>& observed_tick_times() const {
    return tick_times_;
  }

 private:
  int observed_digit() const {
    return codec_.decode(eng_.agent_state(observed_)).digit;
  }

  const ClockLevelParams prm_;
  VarSpacePtr vars_;
  Protocol proto_;
  ClockCodec codec_;
  Engine eng_;
  std::size_t observed_;
  int digit_;
  std::vector<double> tick_times_;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T4: Base phase clock (C_o)",
      "Thm 5.2 — mod-m digit ticks every Θ(log n) rounds; all agents agree "
      "on the digit up to an adjacent split.",
      ctx);

  Table t({"n", "#X", "tick interval (median)", "interval p10", "interval p90",
           "interval/ln n", "max digit spread", "ticks observed"});
  Telemetry telemetry("bench_t4_phase_clock");
  EventTrace trace;
  // The rows are independent runs: take them concurrently, then report
  // them in order.
  struct Row {
    std::size_t n;
    std::size_t x;
    int max_spread = 0;
    std::vector<double> ticks;  // tick times from the last warm-up one on
  };
  std::vector<Row> rows;
  for (const int e : {11, 13, 15, ctx.scale >= 2.0 ? 18 : 17}) {
    const std::size_t n = 1ull << e;
    const auto x =
        static_cast<std::size_t>(std::pow(static_cast<double>(n), 0.33));
    rows.push_back(Row{n, x, 0, {}});
  }
  ThreadPool pool(static_cast<unsigned>(
      std::min<std::size_t>(rows.size(), probe_hardware_threads())));
  pool.parallel_for(rows.size(), [&](std::size_t i) {
    Row& row = rows[i];
    ObservedClock sim(row.n, row.x,
                      0x7404 + static_cast<std::uint64_t>(
                                   std::countr_zero(row.n)));
    sim.run_rounds(200.0);  // escape + first synchronization
    const std::size_t skip = sim.observed_tick_times().size();
    const double window = 600.0 * ctx.scale;
    const double t0 = sim.rounds();
    while (sim.rounds() < t0 + window) {
      sim.run_rounds(2.0);
      row.max_spread = std::max(row.max_spread, sim.digit_spread());
    }
    const auto& times = sim.observed_tick_times();
    for (std::size_t k = std::max<std::size_t>(skip, 1) - 1; k < times.size();
         ++k)
      row.ticks.push_back(times[k]);
  });

  std::vector<double> ns_fit, interval_fit;
  for (const Row& row : rows) {
    const std::size_t n = row.n;
    std::vector<double> intervals;
    for (std::size_t i = 1; i < row.ticks.size(); ++i) {
      intervals.push_back(row.ticks[i] - row.ticks[i - 1]);
      // Post-synchronization ticks, stamped with the population size so the
      // per-n streams stay separable in the merged trace.
      trace.push(EventKind::kPhaseTick, row.ticks[i], static_cast<double>(n));
    }
    const Summary s = summarize(intervals);
    const double ln_n = std::log(static_cast<double>(n));
    const std::string key = "n" + std::to_string(n) + ".";
    telemetry.add_counter(key + "ticks", static_cast<double>(intervals.size()));
    telemetry.add_counter(key + "interval_median", s.median);
    telemetry.add_counter(key + "interval_p90", s.p90);
    telemetry.add_counter(key + "max_digit_spread", row.max_spread);
    t.row()
        .add(static_cast<std::uint64_t>(n))
        .add(static_cast<std::uint64_t>(row.x))
        .add(s.median, 1)
        .add(s.p10, 1)
        .add(s.p90, 1)
        .add(s.median / ln_n, 2)
        .add(row.max_spread)
        .add(static_cast<std::uint64_t>(intervals.size()));
    ns_fit.push_back(static_cast<double>(n));
    interval_fit.push_back(s.median);
  }
  t.print(std::cout, "Phase clock operation (Thm 5.2)", ctx.csv);

  const LinearFit f = fit_polylog(ns_fit, interval_fit, 1.0);
  std::cout << "tick interval ~ " << format_double(f.slope, 2) << " ln n + "
            << format_double(f.intercept, 1)
            << " (R^2=" << format_double(f.r_squared, 3)
            << ")   [paper: Θ(log n)]\n";

  telemetry.add_counter("fit.slope", f.slope);
  telemetry.add_counter("fit.intercept", f.intercept);
  telemetry.add_counter("fit.r_squared", f.r_squared);
  telemetry.add_events(trace);
  telemetry.capture_profile();
  const std::string tpath =
      telemetry_json_path("TELEMETRY_t4_phase_clock.json");
  if (telemetry.write_json(tpath))
    std::cout << "wrote " << tpath << " (" << telemetry.events().size()
              << " tick events)\n";
  return 0;
}
