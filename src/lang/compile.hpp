// Compilation and execution of programs as real population protocols
// (paper §2.2, §5.4).
//
// The compiled protocol composes, per interaction, a uniform choice among:
//   * the clock machinery threads (X process, level-1 clock, slowed drivers
//     of levels 2..l_max — see clocks/hierarchy.hpp),
//   * the gated program thread: both agents derive their time path
//     τ = (τ_{l_max}, ..., τ_1) from the clock digits (live level-1 digit,
//     stored C* copies above); when the paths agree and name a leaf of the
//     precompiled code tree, one rule of that leaf's ruleset fires — the
//     Π_τ-guarded rules of §5.4,
//   * one thread per background ("execute ruleset:") program thread,
//     ungated.
//
// The digit modulus is m = 4 (w_max + 1): slot s in [1, w_max] occupies
// digit 4s, digit 0 is the C*-refresh window, and digits not divisible by 4
// separate the slots (the paper uses m = 4 w_max + 2; we round the idle
// allowance up so that the stride-4 windows of the slowed-scheduler
// construction stay aligned at every level).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "clocks/hierarchy.hpp"
#include "lang/precompile.hpp"

namespace popproto {

class CompiledEngine {
 public:
  /// `inputs` are the user states (program initializers are OR-ed on top);
  /// `x_protocol`, started from the table `x_init`, controls the shared
  /// clock control state (see ClockHierarchy) and must outlive the engine.
  CompiledEngine(const Program& program, std::vector<State> inputs,
                 const Protocol& x_protocol,
                 const std::vector<std::pair<State, std::uint64_t>>& x_init,
                 const ClockLevelParams& clock, std::uint64_t seed);

  void step();  // one sequential scheduler interaction
  /// Run `rounds` more rounds in whole interactions; a fraction of an
  /// interaction carries over to the next call (see run_rounds_target).
  void run_rounds(double rounds);
  /// Run until predicate(*this) holds, checking every `check_interval`
  /// rounds and at the horizon `max_rounds`, which the last interval is
  /// clamped to; nullopt on timeout.
  std::optional<double> run_until(
      const std::function<bool(const CompiledEngine&)>& predicate,
      double max_rounds, double check_interval = 16.0);

  double rounds() const {
    return static_cast<double>(interactions_) / static_cast<double>(n_);
  }
  std::size_t n() const { return n_; }

  /// Agents whose user state satisfies the guard (O(n) scan).
  std::uint64_t count_matching(const Guard& g) const;
  const ClockHierarchy& hierarchy() const { return *hierarchy_; }
  const CodeTree& tree() const { return tree_; }

  /// Time path of one agent (nullopt = ⊥).
  std::optional<std::vector<int>> time_path(std::size_t agent) const {
    return hierarchy_->time_path(agent, widths_);
  }
  /// The common time path when all agents currently agree on a non-⊥ path.
  std::optional<std::vector<int>> common_time_path() const;

  /// Number of program-rule applications so far (diagnostics).
  std::uint64_t program_rule_firings() const { return program_firings_; }

 private:
  CodeTree tree_;
  std::size_t n_;
  std::vector<int> widths_;
  std::vector<int> tau_;  // step()'s common time path, reused
  std::unique_ptr<ClockHierarchy> hierarchy_;
  std::vector<State> user_;  // agent id -> user state
  std::vector<const ProgramThread*> background_;
  Rng rng_;
  std::uint64_t interactions_ = 0;
  double carry_ = 0.0;  // run_rounds' fractional interaction
  std::uint64_t program_firings_ = 0;
};

}  // namespace popproto
