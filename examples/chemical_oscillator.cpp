// Chemical reaction network scenario.
//
// The population protocol model is equivalent to fixed-volume Chemical
// Reaction Networks (paper §1: [CCDS17]); the oscillator at the heart of
// the clock construction *is* a well-mixed chemical oscillator:
//
//     A1 + A3 -> A1 + A1        (cyclic predation, rate modulated by the
//     A2 + A1 -> A2 + A2         activation levels A±)
//     A3 + A2 -> A3 + A3
//     X  + Ai -> X  + Au        (catalyst X re-seeding a random species)
//
// This example simulates a "beaker" of one million molecules and prints the
// species concentrations over time — the sustained Θ(log n)-period
// relaxation oscillation of Theorem 5.1 — then shows the phase clock that
// the paper derives from it, ticking in lockstep across the whole volume.
//
// Build & run:  ./build/examples/chemical_oscillator
#include <cstdio>
#include <string>

#include "clocks/phase_clock.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"

using namespace popproto;

namespace {

std::string bar(double fraction, int width = 50) {
  std::string s(static_cast<std::size_t>(fraction * width), '#');
  s.resize(static_cast<std::size_t>(width), ' ');
  return s;
}

}  // namespace

int main() {
  // --- The raw oscillator at n = 10^6 molecules, #X = 100 catalysts, on
  // species counts (the beaker is well mixed: only abundances matter). ---
  const std::uint64_t n = 1000000;
  auto osc_vars = make_var_space();
  const Protocol osc = make_oscillator_kernel_protocol(osc_vars);
  CountEngine beaker(osc, oscillator_uniform_counts(n, /*x_count=*/100, *osc_vars),
                     /*seed=*/3);

  std::printf("species concentrations over time (n = %llu molecules)\n",
              static_cast<unsigned long long>(n));
  std::printf("%8s  %-52s %-52s\n", "round", "[A1]", "[A2]");
  beaker.run_rounds(80.0);  // self-organization (Thm 5.1(i): O(log n))
  for (int step = 0; step < 24; ++step) {
    beaker.run_rounds(4.0);
    const auto species = oscillator_species_counts(beaker, *osc_vars);
    const double a1 = static_cast<double>(species[0]) / static_cast<double>(n);
    const double a2 = static_cast<double>(species[1]) / static_cast<double>(n);
    std::printf("%8.0f  |%s| |%s|\n", beaker.rounds(), bar(a1).c_str(),
                bar(a2).c_str());
  }

  // --- The derived phase clock (Thm 5.2) on a smaller population. ---
  std::printf("\nderived mod-8 phase clock (n = 50000): digit + sync spread\n");
  auto clock_vars = make_var_space();
  const ClockLevelParams prm;
  const Protocol clock_proto = make_clock_kernel_protocol(clock_vars, prm);
  const ClockCodec codec(*clock_vars, prm);
  Engine clock(clock_proto,
               clock_kernel_initial_states(50000, /*x_count=*/40, codec),
               /*seed=*/5);
  clock.run_rounds(200.0);
  for (int step = 0; step < 12; ++step) {
    clock.run_rounds(25.0);
    const ClockCensus census = clock_census(clock, codec);
    std::printf("  round %6.0f: agent-0 digit = %d, population spread = %d "
                "digit(s), composite spread = %d phase(s)\n",
                clock.rounds(),
                codec.decode(clock.agent_state(0)).digit,
                census.digit_spread(), census.composite_spread());
  }
  std::printf("\nEvery molecule agrees on the digit up to the tolerated "
              "adjacent split — a population-wide clock built from pure "
              "chemistry, no leader required.\n");
  return 0;
}
