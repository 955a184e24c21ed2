#include "clocks/phase_clock.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/sim_backend.hpp"
#include "support/check.hpp"

namespace popproto {

bool believer_observe(ClockAgent& self, int other_species,
                      const ClockLevelParams& params) {
  // Only the successor of the believed species builds a certificate streak
  // (the paper's C'_s chain): anything else — a control partner, the
  // believed species itself, or the *previous* dominant (which is still
  // large while it decays and must never be mistaken for progress) — breaks
  // the streak. An agent that misses a phase certificate entirely is pulled
  // forward by phase_adopt instead.
  const int awaited = (static_cast<int>(self.believed) + 1) % 3;
  if (other_species != awaited) {
    self.streak = 0;
    return false;
  }
  ++self.streak;
  if (self.streak < params.believer_k) return false;
  // Certificate complete: advance the believed phase; the digit ticks when
  // the phase wraps 2 -> 0.
  const bool ticked = awaited == 0;
  self.believed = static_cast<std::uint8_t>(awaited);
  self.streak = 0;
  if (ticked)
    self.digit = static_cast<std::uint8_t>((self.digit + 1) % params.module);
  return ticked;
}

bool phase_adopt(ClockAgent& self, const ClockAgent& seen,
                 const ClockLevelParams& params) {
  const int cycle = 3 * params.module;
  const int ahead = (composite_phase(seen) - composite_phase(self) + cycle) % cycle;
  if (ahead == 0 || ahead >= cycle / 2) return false;
  const bool digit_changed = self.digit != seen.digit;
  self.believed = seen.believed;
  self.digit = seen.digit;
  self.streak = 0;
  return digit_changed;
}

template <class Draws>
int clock_level_interact(ClockAgent& a, bool a_is_x, ClockAgent& b, bool b_is_x,
                         Draws& draws, const ClockLevelParams& params) {
  // Oscillator component: a acts on b. Species observed by the believers
  // are the pre-interaction ones (both orderings are equivalent up to one
  // interaction of slack during phase transitions).
  const int species_of_a = a_is_x ? -1 : static_cast<int>(a.osc.species);
  const int species_of_b = b_is_x ? -1 : static_cast<int>(b.osc.species);
  if (!b_is_x) {
    if (a_is_x) {
      oscillator_interact(nullptr, true, b.osc, draws, params.osc);
    } else {
      oscillator_interact(&a.osc, false, b.osc, draws, params.osc);
    }
  }
  int ticks = 0;
  if (believer_observe(a, species_of_b, params)) ++ticks;
  if (believer_observe(b, species_of_a, params)) ++ticks;
  // Synchronization: the earlier side of the pair adopts the later phase.
  if (phase_adopt(a, b, params)) ++ticks;
  if (phase_adopt(b, a, params)) ++ticks;
  return ticks;
}

template int clock_level_interact(ClockAgent&, bool, ClockAgent&, bool, Rng&,
                                  const ClockLevelParams&);
template int clock_level_interact(ClockAgent&, bool, ClockAgent&, bool,
                                  ScriptedDraw&, const ClockLevelParams&);

namespace {

// The kernel clock's field bits are named CLK0, CLK1, ...
inline constexpr const char* kClkBit = "CLK";

int bits_for(int max_value) {
  return static_cast<int>(std::bit_width(static_cast<unsigned>(max_value)));
}

int field_bits(const ClockLevelParams& params) {
  return 2 + bits_for(params.believer_k - 1) + bits_for(params.module - 1);
}

// Arc length of the smallest circular arc (cycle length = occupied.size())
// containing every occupied position.
int arc_spread(const std::vector<std::uint64_t>& occupied) {
  const int m = static_cast<int>(occupied.size());
  int longest_gap = 0;
  int run = 0;
  for (int pass = 0; pass < 2 * m; ++pass) {
    if (occupied[static_cast<std::size_t>(pass % m)] == 0) {
      ++run;
      longest_gap = std::max(longest_gap, std::min(run, m));
    } else {
      run = 0;
    }
  }
  const int spread = m - longest_gap - 1;
  return spread > 0 ? spread : 0;
}

}  // namespace

ClockCodec::ClockCodec(const VarSpace& vars, const ClockLevelParams& params)
    : osc_(vars),
      params_(params),
      streak_bits_(bits_for(params.believer_k - 1)),
      digit_bits_(bits_for(params.module - 1)) {
  base_ = vars.at(kClkBit + std::string("0"));
  for (int i = 1; i < field_bits(params); ++i)
    POPPROTO_CHECK_MSG(vars.at(kClkBit + std::to_string(i)) == base_ + i,
                       "kernel clock bits must be interned consecutively");
}

ClockAgent ClockCodec::decode(State s) const {
  ClockAgent a;
  a.osc = osc_.decode(s);  // species 0 at level + for an X agent
  const State f = s >> base_;
  a.believed = static_cast<std::uint8_t>(f & 3);
  a.streak = static_cast<std::uint8_t>((f >> 2) & ((1u << streak_bits_) - 1));
  a.digit = static_cast<std::uint8_t>((f >> (2 + streak_bits_)) &
                                      ((1u << digit_bits_) - 1));
  return a;
}

State ClockCodec::encode(const ClockAgent& a, bool is_x) const {
  const State f = State{a.believed} | State{a.streak} << 2 |
                  State{a.digit} << (2 + streak_bits_);
  return osc_.encode(a.osc, is_x) | f << base_;
}

Protocol make_clock_kernel_protocol(VarSpacePtr vars,
                                    const ClockLevelParams& params) {
  POPPROTO_CHECK(params.believer_k >= 1 && params.module >= 2);
  POPPROTO_CHECK(params.osc.weak_predation_p > 0.0 &&
                 params.osc.weak_predation_p < 1.0);
  for (const char* name : {kOscBit0, kOscBit1, kOscLvl, kOscX})
    vars->intern(name);
  for (int i = 0; i < field_bits(params); ++i)
    vars->intern(kClkBit + std::to_string(i));
  const ClockCodec codec(*vars, params);
  PairKernel kernel;
  kernel.outcomes = [codec, params](State a, State b,
                                    std::vector<KernelOutcome>& out) {
    const bool ax = codec.is_x(a);
    const bool bx = codec.is_x(b);
    ScriptedDraw draw;
    do {
      ClockAgent ta = codec.decode(a);
      ClockAgent tb = codec.decode(b);
      clock_level_interact(ta, ax, tb, bx, draw, params);
      out.push_back(KernelOutcome{draw.probability(), codec.encode(ta, ax),
                                  codec.encode(tb, bx)});
    } while (draw.next());
  };
  char sig[96];
  std::snprintf(sig, sizeof sig, "clock k=%d m=%d p=%a", params.believer_k,
                params.module, params.osc.weak_predation_p);
  kernel.signature = sig;
  Protocol proto("phase_clock_kernel", std::move(vars));
  proto.add_kernel_thread("Clock", std::move(kernel));
  return proto;
}

std::vector<State> clock_kernel_initial_states(std::size_t n,
                                               std::size_t x_count,
                                               const ClockCodec& codec) {
  POPPROTO_CHECK(n >= 2 && x_count < n);
  std::vector<State> init(n);
  for (std::size_t i = 0; i < n; ++i) {
    ClockAgent a;
    if (i >= x_count)
      a.osc.species = static_cast<std::uint8_t>((i - x_count) % 3);
    init[i] = codec.encode(a, i < x_count);
  }
  return init;
}

int ClockCensus::digit_spread() const { return arc_spread(digits); }

int ClockCensus::composite_spread() const { return arc_spread(composite); }

ClockCensus clock_census(const SimBackend& eng, const ClockCodec& codec) {
  ClockCensus c;
  c.digits.assign(static_cast<std::size_t>(codec.params().module), 0);
  c.composite.assign(static_cast<std::size_t>(3 * codec.params().module), 0);
  const std::size_t m = c.digits.size();
  for (const auto& [s, count] : eng.species()) {
    // A corruption may write any bits; a field read past its range counts
    // modulo it, as the dynamics advance it.
    const ClockAgent a = codec.decode(s);
    c.digits[a.digit % m] += count;
    c.composite[(a.digit % m) * 3 + a.believed % 3] += count;
  }
  return c;
}

std::uint64_t scramble_clock(SimBackend& eng, const ClockCodec& codec,
                             double fraction, Rng& rng, int max_digit_offset) {
  POPPROTO_CHECK(fraction >= 0.0 && fraction <= 1.0);
  const int m = codec.params().module;
  const auto k = static_cast<std::uint64_t>(
      std::ceil(fraction * static_cast<double>(eng.active_n())));
  return eng.mutate_random_agents(k, rng, [&](State old, std::uint64_t) {
    const bool x = codec.is_x(old);
    ClockAgent ag = codec.decode(old);
    if (!x) {
      ag.osc.species = static_cast<std::uint8_t>(rng.below(3));
      ag.osc.strong = rng.chance(0.5);
    }
    ag.believed = static_cast<std::uint8_t>(rng.below(3));
    ag.streak = static_cast<std::uint8_t>(
        rng.below(static_cast<std::uint64_t>(codec.params().believer_k)));
    if (max_digit_offset < 0) {
      ag.digit =
          static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(m)));
    } else if (max_digit_offset > 0) {
      const int span = 2 * max_digit_offset + 1;
      const int offset =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(span))) -
          max_digit_offset;
      ag.digit = static_cast<std::uint8_t>((ag.digit + offset + m) % m);
    }
    return codec.encode(ag, x);
  });
}

Protocol make_phase_clock_protocol(VarSpacePtr vars,
                                   const PhaseClockProtocolParams& params) {
  const int k = params.believer_k;
  const int m = params.module;
  POPPROTO_CHECK(k >= 2 && k <= 4);
  POPPROTO_CHECK(m >= 2 && m <= 8);

  Protocol proto = make_oscillator_protocol(vars, params.osc);

  const VarId b0 = vars->intern(kPcB0);
  const VarId b1 = vars->intern(kPcB1);
  const VarId k0 = vars->intern(kPcK0);
  const VarId k1 = vars->intern(kPcK1);
  const VarId d0 = vars->intern(kPcD0);
  const VarId d1 = vars->intern(kPcD1);
  const VarId d2 = vars->intern(kPcD2);
  const VarId ob0 = *vars->find(kOscBit0);
  const VarId ob1 = *vars->find(kOscBit1);
  const VarId x = *vars->find(kOscX);

  // Literal conjunction pinning a small integer onto a bit group; doubles as
  // guard ("value is v") and right-hand side ("set value to v").
  const auto enc = [](std::vector<VarId> bits, int v) {
    BoolExpr e = (v & 1) ? BoolExpr::var(bits[0]) : !BoolExpr::var(bits[0]);
    for (std::size_t i = 1; i < bits.size(); ++i)
      e = e && ((v >> i) & 1 ? BoolExpr::var(bits[i]) : !BoolExpr::var(bits[i]));
    return e;
  };
  const auto believed_is = [&](int v) { return enc({b0, b1}, v); };
  const auto streak_is = [&](int v) { return enc({k0, k1}, v); };
  const auto digit_is = [&](int v) { return enc({d0, d1, d2}, v); };
  // Partner shows species sp: a non-control agent with those species bits.
  const auto partner_species = [&](int sp) {
    return !BoolExpr::var(x) && enc({ob0, ob1}, sp);
  };

  std::vector<Rule> rules;
  for (int b = 0; b < 3; ++b) {
    const int succ = (b + 1) % 3;
    const std::string sb = std::to_string(b);
    // Streak building: meeting the believed successor extends the
    // certificate chain (C'_s: k consecutive hits required).
    for (int s = 0; s + 1 < k; ++s)
      rules.push_back(make_rule(believed_is(b) && streak_is(s),
                                partner_species(succ), streak_is(s + 1),
                                BoolExpr::any(),
                                "pc_streak" + std::to_string(s) + "_b" + sb));
    // Certified advance; the 2 -> 0 wrap ticks the digit.
    if (succ != 0) {
      rules.push_back(make_rule(believed_is(b) && streak_is(k - 1),
                                partner_species(succ),
                                believed_is(succ) && streak_is(0),
                                BoolExpr::any(), "pc_advance_b" + sb));
    } else {
      for (int d = 0; d < m; ++d)
        rules.push_back(make_rule(
            believed_is(b) && streak_is(k - 1) && digit_is(d),
            partner_species(succ),
            believed_is(0) && streak_is(0) && digit_is((d + 1) % m),
            BoolExpr::any(), "pc_tick_d" + std::to_string(d)));
    }
    // Any other partner (control agent or wrong species) breaks the streak.
    rules.push_back(make_rule(
        believed_is(b) && (BoolExpr::var(k0) || BoolExpr::var(k1)),
        BoolExpr::var(x) || !enc({ob0, ob1}, succ), streak_is(0),
        BoolExpr::any(), "pc_miss_b" + sb));
  }
  // Pull-forward digit adoption: a partner circularly ahead by [1, m/2)
  // snaps this agent to its digit (streak dropped). All agents, control
  // included, carry digits.
  for (int d = 0; d < m; ++d)
    for (int off = 1; off < (m + 1) / 2; ++off) {
      const int q = (d + off) % m;
      rules.push_back(make_rule(digit_is(d), digit_is(q),
                                digit_is(q) && streak_is(0), BoolExpr::any(),
                                "pc_adopt_d" + std::to_string(d) + "_to_d" +
                                    std::to_string(q)));
    }

  proto.add_thread("Clock", std::move(rules));
  return proto;
}

std::vector<State> phase_clock_initial_states(std::size_t n,
                                              std::size_t x_count,
                                              const VarSpace& vars) {
  POPPROTO_CHECK(n > x_count);
  const auto x = vars.find(kOscX);
  POPPROTO_CHECK(x.has_value());
  std::vector<State> init(n);
  for (std::size_t i = 0; i < n; ++i) {
    init[i] = i < x_count
                  ? var_bit(*x)
                  : oscillator_state(static_cast<int>(i % 3), 0, vars);
  }
  return init;
}

int phase_clock_digit_of(State s, const VarSpace& vars) {
  const auto d0 = vars.find(kPcD0);
  const auto d1 = vars.find(kPcD1);
  const auto d2 = vars.find(kPcD2);
  POPPROTO_CHECK(d0 && d1 && d2);
  return (var_is_set(s, *d0) ? 1 : 0) + (var_is_set(s, *d1) ? 2 : 0) +
         (var_is_set(s, *d2) ? 4 : 0);
}

int circular_distance(int a, int b, int m) {
  const int d = std::abs(a - b) % m;
  return std::min(d, m - d);
}

int circular_later(int a, int b, int m) {
  if (a == b) return a;
  if ((a + 1) % m == b) return b;
  if ((b + 1) % m == a) return a;
  return std::max(a, b);
}

}  // namespace popproto
