#include "core/rule.hpp"

#include <numeric>

namespace popproto {

Update update_from_formula(const BoolExpr& formula) {
  auto lits = formula.as_literal_conjunction();
  POPPROTO_CHECK_MSG(lits.has_value(),
                     "rule right-hand side must be a conjunction of literals");
  return Update{lits->set_mask, lits->clear_mask};
}

Rule::Rule(const BoolExpr& sigma1, const BoolExpr& sigma2,
           const BoolExpr& sigma3, const BoolExpr& sigma4, std::string label)
    : guard1_(sigma1),
      guard2_(sigma2),
      sigma1_(sigma1),
      sigma2_(sigma2),
      label_(std::move(label)) {
  Outcome o;
  o.probability = 1.0;
  o.initiator = update_from_formula(sigma3);
  o.responder = update_from_formula(sigma4);
  outcomes_.push_back(o);
}

Rule::Rule(const BoolExpr& sigma1, const BoolExpr& sigma2,
           std::vector<Outcome> outcomes, std::string label)
    : guard1_(sigma1),
      guard2_(sigma2),
      sigma1_(sigma1),
      sigma2_(sigma2),
      outcomes_(std::move(outcomes)),
      label_(std::move(label)) {
  POPPROTO_CHECK(!outcomes_.empty());
  double total = 0.0;
  for (const auto& o : outcomes_) {
    POPPROTO_CHECK(o.probability > 0.0);
    total += o.probability;
  }
  POPPROTO_CHECK_MSG(total <= 1.0 + 1e-12, "outcome probabilities exceed 1");
}

Rule Rule::strengthened(const BoolExpr& extra) const {
  Rule r = *this;
  r.sigma1_ = extra && sigma1_;
  r.sigma2_ = extra && sigma2_;
  r.guard1_ = Guard(r.sigma1_);
  r.guard2_ = Guard(r.sigma2_);
  return r;
}

std::pair<State, State> Rule::apply(State initiator, State responder,
                                    Rng& rng) const {
  if (outcomes_.size() == 1 && outcomes_[0].probability >= 1.0) {
    return {outcomes_[0].initiator.apply(initiator),
            outcomes_[0].responder.apply(responder)};
  }
  double u = rng.uniform();
  for (const auto& o : outcomes_) {
    if (u < o.probability)
      return {o.initiator.apply(initiator), o.responder.apply(responder)};
    u -= o.probability;
  }
  return {initiator, responder};  // residual no-op branch
}

}  // namespace popproto
