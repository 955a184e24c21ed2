// Hierarchy of phase clocks with logarithmically separated rates (paper
// §5.3).
//
// Level 1 is a native oscillator + believer + mod-m digit clock
// (clocks/phase_clock.hpp). Every level j >= 2 is a fresh copy of the same
// clock whose rules execute only through the *slowed matching scheduler*
// emulated by level j-1:
//
//   * every agent keeps a current and a new copy of its level-j clock state
//     plus a trigger flag S;
//   * when two agents meet while both their level-(j-1) digits equal the
//     same value divisible by 4 and both triggers are set, they simulate
//     one level-j interaction on the current copies, write the results to
//     the new copies, and clear the triggers — so each agent takes part in
//     at most one level-j interaction per window, and the set of pairs
//     formed during a window is (nearly) a uniform random matching;
//   * when the pair meets in a window two digits later (digit ≡ 2 mod 4),
//     agents that participated commit new -> current and re-arm the
//     trigger.
//
// One matching activation per stride-4 digit window of level j-1 slows
// level j by a factor Θ(r^(j-1)), giving rates r^(j) = Θ((α ln n)^j) — the
// paper's clock hierarchy. All levels share one control state X, whose
// process (a Protocol of clocks/x_control.hpp) runs as its own thread on
// the agents' X states.
//
// For stable reads, each agent stores a local copy C*^{(j)} of its level-j
// digit, refreshed at the start of every level-(j-1) cycle (digit 0) and
// consensus-corrected pairwise at digit 2 by "the later of the two values"
// (§5.3). Program compilation (src/lang/compile.hpp) gates rulesets on the
// time path τ = (live level-1 digit, C*^{(2)}, ..., C*^{(L)}) — Π_τ of §5.4.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "clocks/phase_clock.hpp"
#include "clocks/x_control.hpp"
#include "core/transition_cache.hpp"

namespace popproto {

/// The interaction count a sequential `run_rounds(rounds)` call runs to,
/// from `done` interactions among n agents. A call whose rounds·n is whole,
/// with no fraction carried, runs to ⌊(done/n + rounds)·n⌋; any other call
/// runs ⌊rounds·n + carry⌋ interactions and leaves the fraction in `carry`,
/// so repeated fractional calls keep their time.
std::uint64_t run_rounds_target(std::uint64_t done, std::size_t n,
                                double rounds, double& carry);

struct HierarchyParams {
  int levels = 2;  // l_max: number of clocks in the hierarchy
  ClockLevelParams level;  // believer k, digit modulus m, oscillator params
};

class ClockHierarchy {
 public:
  /// `x_protocol` is the X process. Agents take the states of `x_init` in
  /// table order (its counts sum to n), so a fixed table {X: x, ∅: n - x}
  /// makes agents [0, x) the control agents. The protocol's VarSpace holds
  /// kXVar, and the protocol must outlive the hierarchy.
  ClockHierarchy(std::size_t n, const HierarchyParams& params,
                 const Protocol& x_protocol,
                 const std::vector<std::pair<State, std::uint64_t>>& x_init,
                 std::uint64_t seed);

  /// Threads composed into the clock machinery: thread 0 is the X process,
  /// thread 1 the native level-1 clock, thread j (2..levels) the slowed
  /// driver of level j.
  int num_threads() const { return params_.levels + 1; }

  /// One interaction of `thread` for the ordered pair (a, b). The compiled
  /// engine calls it for the clock threads it interleaves with program
  /// threads.
  void interact_thread(std::size_t a, std::size_t b, int thread);

  /// One sequential scheduler step: a random ordered pair runs a thread
  /// chosen u.a.r.
  void step();
  /// Run `rounds` more rounds in whole interactions; a fraction of an
  /// interaction carries over to the next call (see run_rounds_target).
  void run_rounds(double rounds);
  double rounds() const {
    return static_cast<double>(interactions_) / static_cast<double>(n_);
  }

  std::size_t n() const { return n_; }
  const HierarchyParams& params() const { return params_; }
  bool is_x(std::size_t agent) const {
    return var_is_set(x_states_[agent], x_var_);
  }

  /// Live digit of clock `level` (1-based) for an agent. For level >= 2
  /// this is the committed ("current") copy.
  int live_digit(std::size_t agent, int level) const;
  /// Stored local copy C*^{(level)}; defined for level >= 2.
  int star_digit(std::size_t agent, int level) const;

  /// Program-gating slot at `level` for an agent: digit/4 when the gating
  /// digit (live for level 1, starred for level >= 2) is divisible by 4 and
  /// the slot lies in [1, width]; -1 otherwise ("this level is between
  /// slots"). See §5.4.
  int slot(std::size_t agent, int level, int width) const;

  /// Cumulative digit ticks at each level across the whole population
  /// (level-j rate estimate: interval = n * Δrounds / Δticks).
  std::uint64_t total_ticks(int level) const {
    return total_ticks_[static_cast<std::size_t>(level - 1)];
  }

  /// The time path (slot vector, innermost level first) if every level is
  /// currently on a valid slot for this agent; nullopt = ⊥.
  std::optional<std::vector<int>> time_path(std::size_t agent,
                                            const std::vector<int>& widths) const;

 private:
  struct SlowLevel {
    ClockAgent cur;
    ClockAgent nxt;
    bool trigger = true;
    std::uint8_t star = 0;
  };

  void level1_interact(std::size_t a, std::size_t b);
  void slow_level_interact(std::size_t a, std::size_t b, int level);
  int gating_digit(std::size_t agent, int below_level) const;

  std::size_t n_;
  HierarchyParams params_;
  // Thread 0: the X process on the agents' X states. A protocol without
  // rules (a fixed X set) draws nothing.
  TransitionCache x_cache_;
  bool x_fixed_;
  VarId x_var_;
  std::vector<State> x_states_;
  Rng rng_;
  std::vector<ClockAgent> level1_;
  // slow_[j-2][agent]: state of level j (j >= 2).
  std::vector<std::vector<SlowLevel>> slow_;
  std::vector<std::uint64_t> total_ticks_;
  std::uint64_t interactions_ = 0;
  double carry_ = 0.0;  // run_rounds' fractional interaction
};

}  // namespace popproto
