#include "clocks/oscillator.hpp"

#include <cstdio>

#include "core/sim_backend.hpp"
#include "support/check.hpp"

namespace popproto {

namespace {

inline int prey_of(int i) { return (i + 2) % 3; }

}  // namespace

Protocol make_oscillator_protocol(VarSpacePtr vars,
                                  const OscillatorParams& params) {
  const VarId b0 = vars->intern(kOscBit0);
  const VarId b1 = vars->intern(kOscBit1);
  const VarId lvl = vars->intern(kOscLvl);
  const VarId x = vars->intern(kOscX);

  auto species_bits = [&](int i) {
    BoolExpr e0 = (i & 1) ? BoolExpr::var(b0) : !BoolExpr::var(b0);
    BoolExpr e1 = (i & 2) ? BoolExpr::var(b1) : !BoolExpr::var(b1);
    return e0 && e1;
  };
  auto species_guard = [&](int i) { return !BoolExpr::var(x) && species_bits(i); };

  std::vector<Rule> rules;
  for (int i = 0; i < 3; ++i) {
    const int prey = prey_of(i);
    // Strong predation: always succeeds; the convert enters at level +.
    rules.push_back(make_rule(
        species_guard(i) && BoolExpr::var(lvl), species_guard(prey),
        BoolExpr::any(), species_bits(i) && !BoolExpr::var(lvl),
        "pred_strong_A" + std::to_string(i + 1)));
    // Weak predation: succeeds with probability weak_predation_p.
    Outcome weak;
    weak.probability = params.weak_predation_p;
    weak.responder = update_from_formula(species_bits(i) && !BoolExpr::var(lvl));
    rules.emplace_back(species_guard(i) && !BoolExpr::var(lvl),
                       species_guard(prey), std::vector<Outcome>{weak},
                       "pred_weak_A" + std::to_string(i + 1));
    // Activation on meeting the same species.
    rules.push_back(make_rule(species_guard(i),
                              species_guard(i) && !BoolExpr::var(lvl),
                              BoolExpr::any(), BoolExpr::var(lvl),
                              "act_A" + std::to_string(i + 1)));
    // Deactivation on meeting a different species.
    for (int j = 0; j < 3; ++j) {
      if (j == i) continue;
      rules.push_back(make_rule(species_guard(i),
                                species_guard(j) && BoolExpr::var(lvl),
                                BoolExpr::any(), !BoolExpr::var(lvl),
                                "deact_A" + std::to_string(j + 1) + "_by_A" +
                                    std::to_string(i + 1)));
    }
  }
  // Source: X converts any species agent to a uniformly random species at +.
  std::vector<Outcome> src;
  for (int u = 0; u < 3; ++u) {
    Outcome o;
    o.probability = 1.0 / 3.0;
    o.responder = update_from_formula(species_bits(u) && !BoolExpr::var(lvl));
    src.push_back(o);
  }
  rules.emplace_back(BoolExpr::var(x), !BoolExpr::var(x), std::move(src),
                     "src_X");

  Protocol proto("oscillator", std::move(vars));
  proto.add_thread("Oscillator", std::move(rules));
  return proto;
}

State oscillator_state(int species, int level, const VarSpace& vars) {
  POPPROTO_CHECK(species >= 0 && species < 3 && (level == 0 || level == 1));
  const OscAgent a{static_cast<std::uint8_t>(species), level == 1};
  return OscCodec(vars).encode(a, false);
}

std::vector<State> oscillator_species_states(const VarSpace& vars) {
  std::vector<State> out;
  for (int i = 0; i < 3; ++i)
    for (int l = 0; l < 2; ++l) out.push_back(oscillator_state(i, l, vars));
  return out;
}

std::array<std::uint64_t, 3> oscillator_species_counts(const SimBackend& eng,
                                                       const VarSpace& vars) {
  const OscCodec codec(vars);
  std::array<std::uint64_t, 3> counts{};
  for (const auto& [s, c] : eng.species())
    if (!codec.is_x(s)) counts[codec.decode(s).species] += c;
  return counts;
}

int oscillator_species_of(State s, const VarSpace& vars) {
  const OscCodec codec(vars);
  return codec.is_x(s) ? -1 : codec.decode(s).species;  // -1: control agent
}

template <class Draws>
bool oscillator_interact(const OscAgent* initiator, bool initiator_is_x,
                         OscAgent& responder, Draws& draws,
                         const OscillatorParams& params) {
  if (initiator_is_x) {
    responder.species = static_cast<std::uint8_t>(draws.below(3));
    responder.strong = false;
    return true;
  }
  POPPROTO_DCHECK(initiator != nullptr);
  bool changed = false;
  // Level refresh: activated by the same species, deactivated by others.
  if (initiator->species == responder.species) {
    if (!responder.strong) {
      responder.strong = true;
      changed = true;
    }
  } else if (responder.strong) {
    responder.strong = false;
    changed = true;
  }
  // Predation (the responder may just have been deactivated; conversion
  // resets it to + anyway).
  if (responder.species == prey_of(initiator->species)) {
    if (initiator->strong || draws.chance(params.weak_predation_p)) {
      responder.species = initiator->species;
      responder.strong = false;
      changed = true;
    }
  }
  return changed;
}

template bool oscillator_interact(const OscAgent*, bool, OscAgent&, Rng&,
                                  const OscillatorParams&);
template bool oscillator_interact(const OscAgent*, bool, OscAgent&,
                                  ScriptedDraw&, const OscillatorParams&);

OscCodec::OscCodec(const VarSpace& vars)
    : b0(vars.at(kOscBit0)),
      b1(vars.at(kOscBit1)),
      lvl(vars.at(kOscLvl)),
      x(vars.at(kOscX)) {}

OscAgent OscCodec::decode(State s) const {
  return OscAgent{static_cast<std::uint8_t>((var_is_set(s, b0) ? 1 : 0) +
                                            (var_is_set(s, b1) ? 2 : 0)),
                  var_is_set(s, lvl)};
}

State OscCodec::encode(const OscAgent& a, bool is_x) const {
  if (is_x) return var_bit(x);
  State s = 0;
  if (a.species & 1) s |= var_bit(b0);
  if (a.species & 2) s |= var_bit(b1);
  if (a.strong) s |= var_bit(lvl);
  return s;
}

Protocol make_oscillator_kernel_protocol(VarSpacePtr vars,
                                         const OscillatorParams& params) {
  POPPROTO_CHECK(params.weak_predation_p > 0.0 &&
                 params.weak_predation_p < 1.0);
  for (const char* name : {kOscBit0, kOscBit1, kOscLvl, kOscX})
    vars->intern(name);
  const OscCodec codec(*vars);
  PairKernel kernel;
  kernel.outcomes = [codec, params](State a, State b,
                                    std::vector<KernelOutcome>& out) {
    const bool ax = codec.is_x(a);
    const bool bx = codec.is_x(b);  // control agents are never modified
    const OscAgent init = codec.decode(a);
    ScriptedDraw draw;
    do {
      OscAgent r = codec.decode(b);
      if (!bx) oscillator_interact(ax ? nullptr : &init, ax, r, draw, params);
      out.push_back(KernelOutcome{draw.probability(), a, codec.encode(r, bx)});
    } while (draw.next());
  };
  char sig[64];
  std::snprintf(sig, sizeof sig, "oscillator p=%a", params.weak_predation_p);
  kernel.signature = sig;
  Protocol proto("oscillator_kernel", std::move(vars));
  proto.add_kernel_thread("Oscillator", std::move(kernel));
  return proto;
}

std::vector<std::pair<State, std::uint64_t>> oscillator_uniform_counts(
    std::uint64_t n, std::uint64_t x_count, const VarSpace& vars) {
  POPPROTO_CHECK(n > x_count);
  const std::uint64_t rest = n - x_count;
  std::vector<std::pair<State, std::uint64_t>> out;
  for (const State s : oscillator_species_states(vars))
    out.emplace_back(s, rest / 6);
  out[0].second += rest % 6;  // remainder
  if (x_count > 0) out.emplace_back(var_bit(*vars.find(kOscX)), x_count);
  return out;
}

}  // namespace popproto
