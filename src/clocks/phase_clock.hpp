// Base phase clock C_o (paper §5.2, Theorem 5.2) and its modulo-m extension
// (§5.1).
//
// Each agent runs a "believer" automaton locked to the oscillator: it
// remembers which species it currently believes to be dominant and advances
// that belief to its cyclic successor only after k *consecutive* meetings
// with agents of that successor (any miss resets the streak) — the paper's
// C'_s chain, which makes a false advance during the wrong oscillator phase
// happen with probability f^k for minority fraction f. An agent that fails
// to certify a phase (small constant probability per cycle at practical n)
// is re-synchronized by *phase adoption*: an agent circularly behind on the
// composite (digit, phase) cycle adopts the later value from its partner —
// the pull-forward consensus the paper uses for the C* copies (§5.3,
// "defaulting to the larger of the values"; cf. also the leaderless clocks
// of [AAG18]). Together these keep the whole population within one digit of
// each other over arbitrarily long windows, which is what Definition 2.2
// (synchronized iterations) consumes. See DESIGN.md §3.1.
//
// The modulo-m extension (§5.1): each agent keeps a digit in [0, m)
// incremented whenever its believed phase wraps 2 -> 0; one tick per
// oscillator period. The digit gates both the clock hierarchy (§5.3) and
// compiled program rulesets (§5.4).
#pragma once

#include <cstdint>
#include <vector>

#include "clocks/oscillator.hpp"

namespace popproto {

struct ClockLevelParams {
  /// Consecutive-meeting requirement k; false-advance probability during the
  /// wrong oscillator phase is f^k for minority fraction f, so k must exceed
  /// 3/eps for the Theorem 5.1 parameter eps (default suits eps = 1/2).
  int believer_k = 6;
  /// Digit modulus m. Levels that drive a higher clock or gate program
  /// rulesets use digit windows of stride 4, so m must be divisible by 4.
  int module = 8;
  OscillatorParams osc;
};

/// One agent's full single-level clock state.
struct ClockAgent {
  OscAgent osc;
  std::uint8_t believed = 0;  // species currently believed dominant (0..2)
  std::uint8_t streak = 0;    // certificate streak length so far
  std::uint8_t digit = 0;     // mod-m phase
};

/// Believer update of `self` observing the species of its interaction
/// partner (`other_species` = -1 for a control/X partner, which always
/// breaks the streak). Returns true when the digit ticked.
bool believer_observe(ClockAgent& self, int other_species,
                      const ClockLevelParams& params);

/// Composite circular phase of an agent: digit * 3 + believed, living on a
/// cycle of length 3m. All clock-phase comparisons use this value.
inline int composite_phase(const ClockAgent& a) {
  return static_cast<int>(a.digit) * 3 + static_cast<int>(a.believed);
}

/// Phase adoption (synchronization): if `self` is circularly behind `seen`
/// on the composite cycle (distance in [1, 3m/2)), it adopts the later
/// (believed, digit) pair and drops its streak. This is the standard
/// pull-to-maximum correction of leaderless phase clocks (cf. [AAG18] and
/// the §5.3 consensus default "the larger of the values"): during correct
/// operation all agents sit within one phase of each other, so adoption
/// only snaps stragglers forward; it is what erases the digit offsets
/// accumulated during the pre-oscillatory startup. Returns true when the
/// adoption crossed a digit boundary (counts as a tick for the adopter).
bool phase_adopt(ClockAgent& self, const ClockAgent& seen,
                 const ClockLevelParams& params);

/// Full systematic single-level clock interaction for an ordered pair:
/// oscillator action of a on b, then believer updates and phase adoption of
/// both sides. Control agents (is_x) hold no species but still run
/// believers/digits. `draws` is the engine's Rng or a ScriptedDraw (the
/// oscillator action is the only random choice). Returns the number of
/// digit ticks that occurred (0..4).
template <class Draws>
int clock_level_interact(ClockAgent& a, bool a_is_x, ClockAgent& b, bool b_is_x,
                         Draws& draws, const ClockLevelParams& params);

// -- Kernel clock C_o -----------------------------------------------------
//
// The validated Theorem 5.2 clock as a one-thread pair-kernel protocol: each
// interaction runs clock_level_interact on the ordered pair, one outcome
// per way of its random choice. It runs on every SimBackend; the default
// parameters (k = 6, m = 8) reach 7 * 3 * 6 * 8 = 1008 states, inside the
// transition cache's default cap.

/// Bit layout of a kernel clock agent: the oscillator's variables
/// (OscCodec), then one contiguous field holding the believed species in
/// two bits and the streak and digit in as many bits as believer_k - 1 and
/// module - 1 need.
class ClockCodec {
 public:
  /// The clock's variables must be interned in `vars`, the field's bits
  /// consecutively (make_clock_kernel_protocol does).
  ClockCodec(const VarSpace& vars, const ClockLevelParams& params);

  bool is_x(State s) const { return osc_.is_x(s); }
  ClockAgent decode(State s) const;
  State encode(const ClockAgent& a, bool is_x) const;
  const ClockLevelParams& params() const { return params_; }

 private:
  OscCodec osc_;
  ClockLevelParams params_;
  int streak_bits_;
  int digit_bits_;
  VarId base_ = 0;  // bit of the field's lowest believed bit
};

/// C_o on `vars` (one "Clock" kernel thread). Its signature carries k, m
/// and weak_predation_p.
Protocol make_clock_kernel_protocol(VarSpacePtr vars,
                                    const ClockLevelParams& params = {});

/// Initial population: agents [0, x_count) are control agents, agent i of
/// the rest holds species (i - x_count) mod 3 at level +; every believer
/// and digit starts at 0.
std::vector<State> clock_kernel_initial_states(std::size_t n,
                                               std::size_t x_count,
                                               const ClockCodec& codec);

/// Occupancy of a kernel clock population per digit and per composite
/// phase, read from species() in O(species).
struct ClockCensus {
  std::vector<std::uint64_t> digits;     // index: digit, size m
  std::vector<std::uint64_t> composite;  // index: composite_phase, size 3m
  /// Arc length of the smallest circular arc holding every occupied digit
  /// (0 = synchronized, 1 = the tolerated adjacent split).
  int digit_spread() const;
  /// The same on the composite (digit, believed) cycle. In steady operation
  /// the population moves as a tight wave with composite spread <= 1;
  /// believer corruption widens it without touching digit_spread, so this
  /// is the healthy predicate of the fault experiments.
  int composite_spread() const;
};
ClockCensus clock_census(const SimBackend& eng, const ClockCodec& codec);

/// Fault burst: rewrite ceil(fraction * active_n()) uniformly drawn agents
/// through mutate_random_agents, drawing from `rng`: species and level
/// (control agents keep theirs), believed, streak, and the digit — a
/// uniform re-draw for max_digit_offset < 0, else a shift by a uniform
/// offset in [-max, +max] (mod m). Uniform digit scrambles push the
/// population outside the adoption rule's basin of attraction: with every
/// digit occupied the circular pull-forward order frustrates cyclically and
/// the spread never collapses (see EXPERIMENTS.md, fault experiments).
/// Returns the number of agents drawn.
std::uint64_t scramble_clock(SimBackend& eng, const ClockCodec& codec,
                             double fraction, Rng& rng,
                             int max_digit_offset = -1);

// -- Bitmask phase-clock protocol ---------------------------------------
//
// The same believer + digit machinery expressed as a rule-based Protocol
// over one VarSpace, composed with make_oscillator_protocol as a second
// thread. Unlike the kernel clock (which applies every matching update
// systematically per interaction and is the *validated* Theorem 5.2
// clock), this form goes through the generic scheduler — each interaction
// picks one thread and one rule u.a.r. — so its believer dynamics are
// rule-diluted and correspondingly slower. Its purpose is the engine hot
// path: with ~60 rules over two threads and ~672 reachable states it is the
// kernel-benchmark and transition-cache stress protocol, not a replacement
// for the kernel clock.

/// Variable names of the clock thread: believed species (2 bits), certifying
/// streak (2 bits, so believer_k <= 4), digit (3 bits, so module <= 8).
inline constexpr const char* kPcB0 = "PC_B0";
inline constexpr const char* kPcB1 = "PC_B1";
inline constexpr const char* kPcK0 = "PC_K0";
inline constexpr const char* kPcK1 = "PC_K1";
inline constexpr const char* kPcD0 = "PC_D0";
inline constexpr const char* kPcD1 = "PC_D1";
inline constexpr const char* kPcD2 = "PC_D2";

struct PhaseClockProtocolParams {
  int believer_k = 4;  // in [2, 4] (two streak bits)
  int module = 8;      // in [2, 8] (three digit bits)
  OscillatorParams osc;
};

/// Oscillator thread + "Clock" thread (streak build/advance/reset on species
/// observations, digit tick on the 2 -> 0 belief wrap, pull-forward digit
/// adoption for circular offsets in [1, m/2)) on the shared `vars`.
Protocol make_phase_clock_protocol(VarSpacePtr vars,
                                   const PhaseClockProtocolParams& params = {});

/// Initial population for the bitmask clock: agents [0, x_count) are control
/// (X) agents, the rest split uniformly across the three species at level +;
/// everyone starts with belief 0, streak 0, digit 0.
std::vector<State> phase_clock_initial_states(std::size_t n,
                                              std::size_t x_count,
                                              const VarSpace& vars);

/// Digit held in a bitmask clock state.
int phase_clock_digit_of(State s, const VarSpace& vars);

/// Circular distance between two digits mod m.
int circular_distance(int a, int b, int m);

/// Of two digit values known to be equal or circularly adjacent, return the
/// later one (the consensus default of §5.3); falls back to max otherwise.
int circular_later(int a, int b, int m);

}  // namespace popproto
