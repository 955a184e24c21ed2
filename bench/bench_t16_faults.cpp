// T16 — Fault recovery: the self-stabilization claims under explicit
// adversarial perturbation. A converged oscillator (Thm 5.1) and a ticking
// phase clock (Thm 5.2) are hit with a corruption burst rewriting 75% of the
// population, and we measure parallel time until the protocol's coherence
// predicate holds again. Both recover in O(log n) rounds.
//
//   * Oscillator: bitmask protocol P_o on the CountEngine, burst delivered
//     through FaultPlan/FaultInjector (CorruptMode::kSpread deals victims
//     evenly across the six species states — the adversarial push toward the
//     repelling interior fixed point). Healthy: some species suppressed
//     (a_min <= n^{3/4}); recovery = escape from the interior, Thm 5.1(i).
//   * Phase clock: the kernel clock C_o on the agent engine, scramble_clock
//     (a mutate_random_agents corruption) randomizing the oscillator and
//     believer state of 75% of agents (digits intact — uniform digit
//     scrambles sit outside the adoption rule's basin; see EXPERIMENTS.md).
//     Healthy: composite phase spread <= 1; recovery = the pull-forward
//     adoption re-synchronizing.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/recovery.hpp"
#include "analysis/report.hpp"
#include "clocks/phase_clock.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "faults/injector.hpp"
#include "observe/telemetry.hpp"

using namespace popproto;

namespace {

/// Corrupt 75% of a converged bitmask oscillator and return the recovery
/// time in *undiluted* rounds (the protocol samples one of its num_rules
/// rules u.a.r. per interaction, so engine time dilates by num_rules).
/// `trace`, when given, receives the engine's corruption event and the
/// probe's fault/violation/recovery lifecycle (telemetry export).
std::optional<double> oscillator_trial(std::uint64_t n, std::uint64_t seed,
                                       EventTrace* trace = nullptr) {
  auto vars = make_var_space();
  const Protocol proto = make_oscillator_protocol(vars);
  const double dil = static_cast<double>(proto.num_rules());

  // Dominance configuration = a converged oscillator; settle onto the flow.
  const std::uint64_t x = 8;
  const std::uint64_t minority = n / 64;
  std::vector<std::pair<State, std::uint64_t>> init;
  init.emplace_back(var_bit(*vars->find(kOscX)), x);
  init.emplace_back(oscillator_state(0, 0, *vars), n - x - 2 * minority);
  init.emplace_back(oscillator_state(1, 0, *vars), minority);
  init.emplace_back(oscillator_state(2, 0, *vars), minority);
  CountEngine eng(proto, std::move(init), seed);
  eng.set_event_trace(trace);
  eng.run_rounds(10.0 * dil);

  const double thr = std::pow(static_cast<double>(n), 0.75);
  auto healthy = [&] {
    const auto c = oscillator_species_counts(eng, *vars);
    return static_cast<double>(std::min({c[0], c[1], c[2]})) <= thr;
  };
  if (!healthy()) return std::nullopt;

  const double burst = eng.rounds() + 1.0;
  CorruptSpec cs;
  cs.fraction = 0.75;
  cs.mode = CorruptMode::kSpread;
  cs.palette = oscillator_species_states(*vars);
  FaultPlan plan;
  plan.corrupt_at(burst, cs);
  FaultInjector injector(plan, seed ^ 0xfau);
  injector.attach(eng);

  RecoveryProbe probe(/*stable_for=*/1.0 * dil);
  probe.set_event_trace(trace);
  probe.on_fault(burst);
  eng.run_rounds(2.0);  // past the burst boundary
  probe.observe(eng.rounds(), healthy());

  const double budget = 80.0 * dil;
  while (eng.rounds() < burst + budget) {
    eng.run_rounds(0.25 * dil);
    probe.observe(eng.rounds(), healthy());
    if (probe.last_recovery_time().has_value()) break;
  }
  const auto rec = probe.last_recovery_time();
  if (!rec) return std::nullopt;
  return *rec / dil;
}

/// Scramble the believers of 75% of a ticking phase clock's agents and
/// return rounds until composite coherence (spread <= 1) restabilizes.
std::optional<double> clock_trial(std::uint64_t n, std::uint64_t seed,
                                  EventTrace* trace = nullptr) {
  auto vars = make_var_space();
  const ClockLevelParams prm;
  const Protocol proto = make_clock_kernel_protocol(vars, prm);
  const ClockCodec codec(*vars, prm);
  Engine eng(proto, clock_kernel_initial_states(n, /*x_count=*/9, codec),
             seed);
  eng.set_event_trace(trace);
  const auto coherent = [&] {
    return clock_census(eng, codec).composite_spread() <= 1;
  };
  eng.run_rounds(300.0);  // past startup: ticking well underway
  for (int extra = 0; extra < 3 && !coherent(); ++extra) eng.run_rounds(100.0);
  if (!coherent()) return std::nullopt;

  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  RecoveryProbe probe(/*stable_for=*/2.0);
  probe.set_event_trace(trace);
  probe.on_fault(eng.rounds());
  scramble_clock(eng, codec, 0.75, rng, /*max_digit_offset=*/0);
  probe.observe(eng.rounds(), coherent());

  const double deadline = eng.rounds() + 200.0;
  while (eng.rounds() < deadline) {
    eng.run_rounds(0.5);
    probe.observe(eng.rounds(), coherent());
    if (probe.last_recovery_time().has_value()) break;
  }
  return probe.last_recovery_time();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T16: Fault recovery",
      "Self-stabilization under adversarial perturbation — after a burst "
      "corrupting 75% of agents, the oscillator regains phase coherence and "
      "the phase clock regains composite coherence in O(log n) rounds.",
      ctx);

  std::vector<std::uint64_t> ns;
  for (const int e : {10, 12, 14, 16, ctx.scale >= 2.0 ? 20 : 18})
    ns.push_back(1ull << e);
  const std::size_t trials = scaled(3, ctx);

  const std::vector<ScalingRow> osc_rows = run_sweep_parallel(
      ns, trials, 0x7316,
      [](std::uint64_t n, std::uint64_t s) { return oscillator_trial(n, s); });
  const std::vector<ScalingRow> clk_rows = run_sweep_parallel(
      ns, trials, 0x7316,
      [](std::uint64_t n, std::uint64_t s) { return clock_trial(n, s); });

  Table t(scaling_headers({"protocol", "median/ln n"}));
  for (const auto* rows : {&osc_rows, &clk_rows}) {
    for (const ScalingRow& r : *rows) {
      t.row().add(rows == &osc_rows ? "oscillator" : "phase clock");
      t.add(r.value.median / std::log(static_cast<double>(r.n)), 2);
      add_scaling_columns(t, r);
    }
  }
  t.print(std::cout, "Recovery time after 75% corruption burst (rounds)",
          ctx.csv);

  const PolylogChoice osc_fit = fit_rows_polylog(osc_rows, 1);
  const PolylogChoice clk_fit = fit_rows_polylog(clk_rows, 1);
  std::cout << "oscillator recovery  " << describe_polylog(osc_fit)
            << "   [paper: O(log n), Thm 5.1]\n";
  std::cout << "phase clock recovery " << describe_polylog(clk_fit)
            << "   [paper: O(log n), Thm 5.2]\n";

  // Telemetry: the sweep aggregates plus one instrumented representative
  // trial per protocol, so the exported event stream shows a full
  // fault → violation → recovery lifecycle at mid-sweep n.
  Telemetry telemetry("bench_t16_faults");
  add_sweep_counters(telemetry, osc_rows, "oscillator.");
  add_sweep_counters(telemetry, clk_rows, "phase_clock.");
  telemetry.add_counter("fit.oscillator.coefficient", osc_fit.coefficient);
  telemetry.add_counter("fit.oscillator.r_squared", osc_fit.r_squared);
  telemetry.add_counter("fit.phase_clock.coefficient", clk_fit.coefficient);
  telemetry.add_counter("fit.phase_clock.r_squared", clk_fit.r_squared);
  EventTrace trace;
  oscillator_trial(1 << 14, 0x7316, &trace);
  clock_trial(1 << 12, 0x7316, &trace);
  telemetry.add_events(trace);
  telemetry.capture_profile();
  const std::string tpath = telemetry_json_path("TELEMETRY_t16_faults.json");
  if (telemetry.write_json(tpath))
    std::cout << "wrote " << tpath << " (" << telemetry.events().size()
              << " events)\n";
  return 0;
}
