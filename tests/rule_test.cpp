#include <gtest/gtest.h>

#include "core/rule.hpp"

namespace popproto {
namespace {

class RuleTest : public ::testing::Test {
 protected:
  VarSpacePtr vars_ = make_var_space();
  VarId a_ = vars_->intern("A");
  VarId b_ = vars_->intern("B");
  VarId c_ = vars_->intern("C");
  Rng rng_{42};
};

TEST_F(RuleTest, UpdateAppliesMinimalChange) {
  const Update u = update_from_formula(BoolExpr::var(a_) && !BoolExpr::var(b_));
  const State s = var_bit(b_) | var_bit(c_);
  EXPECT_EQ(u.apply(s), var_bit(a_) | var_bit(c_));
}

TEST_F(RuleTest, UpdateOfAnyIsNoop) {
  const Update u = update_from_formula(BoolExpr::any());
  EXPECT_EQ(u.apply(var_bit(a_)), var_bit(a_));
  EXPECT_TRUE(u.is_noop_on(var_bit(a_)));
}

TEST_F(RuleTest, MatchRequiresBothGuards) {
  const Rule r = make_rule(BoolExpr::var(a_), BoolExpr::var(b_),
                           BoolExpr::any(), BoolExpr::any());
  EXPECT_TRUE(r.matches(var_bit(a_), var_bit(b_)));
  EXPECT_FALSE(r.matches(var_bit(b_), var_bit(a_)));  // ordered pair
  EXPECT_FALSE(r.matches(var_bit(a_), var_bit(a_)));
}

TEST_F(RuleTest, ApplyPerformsBothUpdates) {
  // ▷ (A) + (B) -> (¬A) + (¬B): the cancellation rule.
  const Rule r = make_rule(BoolExpr::var(a_), BoolExpr::var(b_),
                           !BoolExpr::var(a_), !BoolExpr::var(b_));
  const auto [na, nb] = r.apply(var_bit(a_), var_bit(b_) | var_bit(c_), rng_);
  EXPECT_EQ(na, 0u);
  EXPECT_EQ(nb, var_bit(c_));
}

TEST_F(RuleTest, ProbabilisticOutcomeFrequency) {
  Outcome o;
  o.probability = 0.25;
  o.responder = update_from_formula(BoolExpr::var(c_));
  const Rule r(BoolExpr::any(), BoolExpr::any(), {o}, "p25");
  int hits = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    const auto [na, nb] = r.apply(0, 0, rng_);
    (void)na;
    if (nb == var_bit(c_)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.25, 0.01);
}

TEST_F(RuleTest, MultipleOutcomesAreExclusive) {
  Outcome x, y;
  x.probability = 0.5;
  x.responder = update_from_formula(BoolExpr::var(a_));
  y.probability = 0.5;
  y.responder = update_from_formula(BoolExpr::var(b_));
  const Rule r(BoolExpr::any(), BoolExpr::any(), {x, y});
  int xa = 0, yb = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto [na, nb] = r.apply(0, 0, rng_);
    (void)na;
    if (nb == var_bit(a_)) ++xa;
    if (nb == var_bit(b_)) ++yb;
  }
  EXPECT_EQ(xa + yb, 20000);
  EXPECT_NEAR(xa / 20000.0, 0.5, 0.02);
}

TEST_F(RuleTest, StrengthenedAddsGuardToBothSides) {
  const Rule r = make_rule(BoolExpr::var(a_), BoolExpr::any(),
                           BoolExpr::any(), BoolExpr::var(b_));
  const Rule g = r.strengthened(BoolExpr::var(c_));
  EXPECT_FALSE(g.matches(var_bit(a_), 0));  // c missing on both
  EXPECT_FALSE(g.matches(var_bit(a_) | var_bit(c_), 0));  // c missing on resp
  EXPECT_TRUE(g.matches(var_bit(a_) | var_bit(c_), var_bit(c_)));
}

TEST_F(RuleTest, StrengthenedKeepsOutcomes) {
  const Rule r = make_rule(BoolExpr::var(a_), BoolExpr::any(),
                           BoolExpr::any(), BoolExpr::var(b_));
  const Rule g = r.strengthened(BoolExpr::var(c_));
  const auto [na, nb] =
      g.apply(var_bit(a_) | var_bit(c_), var_bit(c_), rng_);
  (void)na;
  EXPECT_EQ(nb, var_bit(c_) | var_bit(b_));
}

TEST_F(RuleTest, RhsMustBeLiteralConjunction) {
  EXPECT_DEATH(make_rule(BoolExpr::any(), BoolExpr::any(),
                         BoolExpr::var(a_) || BoolExpr::var(b_),
                         BoolExpr::any()),
               "conjunction of literals");
}

}  // namespace
}  // namespace popproto
