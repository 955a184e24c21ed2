// Self-stabilizing 3-species two-level oscillator (paper §5.2; protocol P_o
// after [DK18] — 7 states: A_i^+ / A_i^++ for i in {1,2,3} plus the control
// state X; see DESIGN.md §3.1 for the analysis of this concrete ruleset).
//
// Dynamics, per ordered interaction (initiator, responder):
//   * strong predation:  A_i^{++} + A_{i-1}^{±} -> A_i^{++} + A_i^{+}
//   * weak predation:    A_i^{+}  + A_{i-1}^{±} -> A_i^{+}  + A_i^{+},
//                        succeeding with probability 1/2
//   * activation:        A_i^{±}  + A_i^{+}     -> A_i^{±}  + A_i^{++}
//   * deactivation:      A_i^{±}  + A_j^{++}    -> A_i^{±}  + A_j^{+}, j != i
//   * source:            X + A_j^{±} -> X + A_u^{+}, u uniform in {1,2,3}
//
// Why this oscillates (mean-field): the activated fraction of species j
// tracks its abundance (q_j ≈ x_j), so the effective predation rate of
// species i is (1 + x_i)/2 — large species press their advantage. For
// V = Σ log x_i this gives dV/dt ≈ -Σu²/12 near the uniform point (u = the
// displacement), i.e. the interior fixed point is *repelling* and the
// stochastic Θ(n^{-1/2}) fluctuation floor is amplified to macroscopic
// amplitude in O(log n) rounds (Thm 5.1(i)). Far from the interior the
// rising species grows at rate ≥ 1/2 per round (predation never drops below
// the weak rate), giving epidemic Θ(log n) phases and the cyclic dominance
// order A_1 -> A_2 -> A_3 (Thm 5.1(ii)). X re-seeds species, so nothing goes
// extinct while #X ≥ 1, and injects only O(#X/n) noise per round.
//
// Exposed in two forms over one bit layout (species in two bits, level bit,
// X flag), so the observers below read either:
//   * make_oscillator_protocol(): a bitmask ruleset driven by the standard
//     "sample one rule u.a.r. per interaction" scheduler convention, whose
//     dynamics are diluted by its 16 rules;
//   * make_oscillator_kernel_protocol(): the pair kernel that applies every
//     matching update per interaction (the standard top-down-execution
//     translation, §1.3) — the validated P_o of the Theorem 5.1
//     experiments. Its outcome lists enumerate the one random choice of
//     oscillator_interact, so it runs on every SimBackend with exactly the
//     dynamics the clock machinery samples.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "support/rng.hpp"

namespace popproto {

struct OscillatorParams {
  /// Success probability of *weak* predation (strong predation always
  /// succeeds). 1/2 is the reference value; must lie in (0, 1).
  double weak_predation_p = 0.5;
};

/// Variable names used by the bitmask encoding: species bits (values 0,1,2 =
/// A1,A2,A3; 3 unused), the activation level bit, and the control flag X.
inline constexpr const char* kOscBit0 = "OSC_S0";
inline constexpr const char* kOscBit1 = "OSC_S1";
inline constexpr const char* kOscLvl = "OSC_LVL";
inline constexpr const char* kOscX = "OSC_X";

/// Build the oscillator ruleset as a single-thread Protocol on `vars`.
Protocol make_oscillator_protocol(VarSpacePtr vars,
                                  const OscillatorParams& params = {});

/// Species index (0..2) held in a bitmask state, or -1 for a control agent.
int oscillator_species_of(State s, const VarSpace& vars);

/// The bitmask state of species i (0..2) at level l (0 = +, 1 = ++).
State oscillator_state(int species, int level, const VarSpace& vars);

/// The six non-control oscillator states, species-major ({A1+, A1++, A2+,
/// ...}); the corruption palette fault experiments deal victims across.
std::vector<State> oscillator_species_states(const VarSpace& vars);

class SimBackend;  // core/sim_backend.hpp

/// Per-species abundances (summed over levels) of either form on any
/// backend — the oscillator-coherence healthy predicates ("is some species
/// suppressed?") read these. O(species).
std::array<std::uint64_t, 3> oscillator_species_counts(const SimBackend& eng,
                                                       const VarSpace& vars);

/// One agent's oscillator component, used by the kernel protocols and by
/// the clock machinery (clocks/phase_clock.hpp, clocks/hierarchy.hpp).
struct OscAgent {
  std::uint8_t species = 0;  // 0..2
  bool strong = false;       // + (false) vs ++ (true)
};

/// Answers an interaction's one random choice (an X source's below(3) or a
/// weak predator's chance(p)) with a fixed way while a pair kernel lists the
/// outcomes: way 0, 1, ... in turn, recording the current way's
/// probability. Stands in for the engine's Rng in the interactions below.
class ScriptedDraw {
 public:
  std::uint64_t below(std::uint64_t k) {
    return draw(k, 1.0 / static_cast<double>(k));
  }
  bool chance(double p) { return draw(2, way_ == 1 ? p : 1.0 - p) == 1; }
  double probability() const { return p_; }
  /// Move to the next way; false once every way has been listed.
  bool next() {
    drawn_ = false;
    return ++way_ < ways_;
  }

 private:
  std::uint64_t draw(std::uint64_t ways, double p) {
    POPPROTO_CHECK_MSG(!drawn_, "an interaction made two random choices");
    drawn_ = true;
    ways_ = ways;
    p_ = p;
    return way_;
  }

  std::uint64_t way_ = 0;
  std::uint64_t ways_ = 1;
  double p_ = 1.0;
  bool drawn_ = false;
};

/// Systematic interaction semantics shared by every form: the responder
/// observes the initiator (activation/deactivation refresh) and is then
/// preyed upon if applicable. `initiator_is_x` marks a control agent acting
/// as source. `draws` is the engine's Rng or a ScriptedDraw. Returns true
/// when the responder changed.
template <class Draws>
bool oscillator_interact(const OscAgent* initiator, bool initiator_is_x,
                         OscAgent& responder, Draws& draws,
                         const OscillatorParams& params);

/// The oscillator's four variables in one VarSpace (all interned).
struct OscCodec {
  explicit OscCodec(const VarSpace& vars);
  bool is_x(State s) const { return var_is_set(s, x); }
  OscAgent decode(State s) const;
  /// The oscillator bits of `a`; an X agent is the X bit alone.
  State encode(const OscAgent& a, bool is_x) const;

  VarId b0, b1, lvl, x;
};

/// P_o as a one-thread pair-kernel protocol on `vars` (same state layout as
/// make_oscillator_protocol). Its signature carries weak_predation_p.
Protocol make_oscillator_kernel_protocol(VarSpacePtr vars,
                                         const OscillatorParams& params = {});

/// The Theorem 5.1 start: `x_count` control agents, the other n - x_count
/// split evenly over the six species states (remainder on A1+), as
/// (state, count) pairs in species-major order, X last.
std::vector<std::pair<State, std::uint64_t>> oscillator_uniform_counts(
    std::uint64_t n, std::uint64_t x_count, const VarSpace& vars);

}  // namespace popproto
