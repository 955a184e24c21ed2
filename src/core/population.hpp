// Agent-based population: explicit per-agent states with incrementally
// maintained per-variable counts.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/expr.hpp"
#include "core/state.hpp"
#include "support/check.hpp"

namespace popproto {

class AgentPopulation {
 public:
  explicit AgentPopulation(std::vector<State> initial);
  AgentPopulation(std::size_t n, State uniform_state);

  std::size_t size() const { return states_.size(); }
  State state(std::size_t i) const { return states_[i]; }
  const std::vector<State>& states() const { return states_; }

  void set_state(std::size_t i, State s) {
    POPPROTO_DCHECK(i < states_.size());
    const State diff = states_[i] ^ s;
    State a = diff & s;  // added bits
    while (a) {
      ++var_count_[static_cast<std::size_t>(std::countr_zero(a))];
      a &= a - 1;
    }
    State r = diff & states_[i];  // removed bits
    while (r) {
      --var_count_[static_cast<std::size_t>(std::countr_zero(r))];
      r &= r - 1;
    }
    states_[i] = s;
  }

  /// Number of agents with variable v set (O(1), maintained incrementally).
  std::uint64_t count_var(VarId v) const { return var_count_[v]; }

  /// Number of agents whose state satisfies the guard (O(n) scan).
  std::uint64_t count_matching(const Guard& g) const;
  std::uint64_t count_matching(const BoolExpr& e) const {
    return count_matching(Guard(e));
  }

  /// Existence check with early exit.
  bool exists(const Guard& g) const;
  bool exists(const BoolExpr& e) const { return exists(Guard(e)); }

  /// True when every agent satisfies the guard.
  bool all(const Guard& g) const;
  bool all(const BoolExpr& e) const { return all(Guard(e)); }

 private:
  void rebuild_counts();

  std::vector<State> states_;
  std::array<std::uint64_t, kMaxVars> var_count_{};
};

}  // namespace popproto
