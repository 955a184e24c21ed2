// Test fixture: the kernel clock C_o (clocks/phase_clock.hpp) on the agent
// engine, with the tick observables the Theorem 5.2 tests read.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "clocks/phase_clock.hpp"
#include "core/engine.hpp"

namespace popproto {

class KernelClockRun {
 public:
  /// Agents [0, x) are control agents; the last agent is the observed one.
  KernelClockRun(std::size_t n, std::size_t x, std::uint64_t seed,
                 const ClockLevelParams& prm = {})
      : vars_(make_var_space()),
        proto_(make_clock_kernel_protocol(vars_, prm)),
        codec_(*vars_, prm),
        eng_(proto_, clock_kernel_initial_states(n, x, codec_), seed),
        digits_(n, 0) {}

  /// Advance by `rounds`, polling the observed agent's digit every 1/16
  /// round (tick times are stamped at the poll that sees a change) and
  /// every agent's digit once a round (mean_ticks).
  void run_rounds(double rounds) {
    const double target = eng_.rounds() + rounds;
    while (eng_.rounds() < target) {
      const double round_end = std::min(target, eng_.rounds() + 1.0);
      while (eng_.rounds() < round_end) {
        eng_.run_rounds(std::min(1.0 / 16.0, round_end - eng_.rounds()));
        const int d = digit(eng_.n() - 1);
        if (d != observed_digit_) tick_times_.push_back(eng_.rounds());
        observed_digit_ = d;
      }
      const int m = codec_.params().module;
      for (std::size_t i = 0; i < eng_.n(); ++i) {
        const int d = digit(i);
        steps_ += static_cast<std::uint64_t>((d - digits_[i] + m) % m);
        digits_[i] = static_cast<std::uint8_t>(d);
      }
    }
  }

  double rounds() const { return eng_.rounds(); }
  /// Forward digit steps per agent so far (digit ticks and adoptions across
  /// a digit boundary), read once a round.
  double mean_ticks() const {
    return static_cast<double>(steps_) / static_cast<double>(eng_.n());
  }
  const std::vector<double>& observed_tick_times() const {
    return tick_times_;
  }
  ClockCensus census() const { return clock_census(eng_, codec_); }
  std::array<std::uint64_t, 3> species() const {
    return oscillator_species_counts(eng_, *vars_);
  }
  Engine& engine() { return eng_; }
  const ClockCodec& codec() const { return codec_; }

 private:
  int digit(std::size_t i) const {
    return codec_.decode(eng_.agent_state(i)).digit;
  }

  VarSpacePtr vars_;
  Protocol proto_;
  ClockCodec codec_;
  Engine eng_;
  std::vector<std::uint8_t> digits_;  // digit per agent at the last round
  int observed_digit_ = 0;
  std::vector<double> tick_times_;
  std::uint64_t steps_ = 0;
};

}  // namespace popproto
