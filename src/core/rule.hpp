// Interaction rules `▷ (Σ1) + (Σ2) → (Σ3) + (Σ4)` (paper §1.3).
//
// A rule is activated for an ordered (initiator, responder) pair whose states
// satisfy Σ1 and Σ2; execution performs the *minimal update* making Σ3 and Σ4
// hold, which is well defined because right-hand sides are conjunctions of
// literals and therefore compile to (set_mask, clear_mask) pairs.
//
// The randomized model (§1: "agents have access to a constant number of fair
// coin tosses in each iteration") is expressed by giving a rule several
// weighted outcomes; the residual probability mass is a no-op.
#pragma once

#include <string>
#include <vector>

#include "core/expr.hpp"
#include "core/state.hpp"
#include "support/rng.hpp"

namespace popproto {

/// Minimal state update: (s & ~clear_mask) | set_mask.
struct Update {
  State set_mask = 0;
  State clear_mask = 0;

  State apply(State s) const { return (s & ~clear_mask) | set_mask; }
  bool is_noop_on(State s) const { return apply(s) == s; }
};

/// One probabilistic branch of a rule's effect.
struct Outcome {
  double probability = 1.0;
  Update initiator;
  Update responder;
};

class Rule {
 public:
  /// Deterministic rule from four formulas; Σ3/Σ4 must be literal
  /// conjunctions (or `.` for "leave unchanged").
  Rule(const BoolExpr& sigma1, const BoolExpr& sigma2, const BoolExpr& sigma3,
       const BoolExpr& sigma4, std::string label = "");

  /// Rule with explicit probabilistic outcomes (probabilities must sum to a
  /// value in (0, 1]; the remainder is a no-op branch).
  Rule(const BoolExpr& sigma1, const BoolExpr& sigma2,
       std::vector<Outcome> outcomes, std::string label = "");

  bool matches(State initiator, State responder) const {
    return guard1_.matches(initiator) && guard2_.matches(responder);
  }

  /// Apply to a matching pair; returns the updated states. `rng` is consumed
  /// only when the rule has probabilistic outcomes.
  std::pair<State, State> apply(State initiator, State responder,
                                Rng& rng) const;

  /// Rebuild this rule with `extra` conjoined to both guards (the §4
  /// branch-elimination guard injection).
  Rule strengthened(const BoolExpr& extra) const;

  const Guard& initiator_guard() const { return guard1_; }
  const Guard& responder_guard() const { return guard2_; }
  const std::vector<Outcome>& outcomes() const { return outcomes_; }
  const std::string& label() const { return label_; }

 private:
  Guard guard1_;
  Guard guard2_;
  BoolExpr sigma1_;  // retained for guard strengthening
  BoolExpr sigma2_;
  std::vector<Outcome> outcomes_;
  std::string label_;
};

/// Convenience factory mirroring the paper's notation.
inline Rule make_rule(const BoolExpr& s1, const BoolExpr& s2,
                      const BoolExpr& s3, const BoolExpr& s4,
                      std::string label = "") {
  return Rule(s1, s2, s3, s4, std::move(label));
}

/// Build the Update pinned by a literal-conjunction formula (checked).
Update update_from_formula(const BoolExpr& formula);

}  // namespace popproto
