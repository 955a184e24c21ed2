#include "protocols/majority.hpp"

namespace popproto {

std::vector<Rule> majority_cancel_rules(VarId a_star, VarId b_star) {
  const BoolExpr A = BoolExpr::var(a_star);
  const BoolExpr B = BoolExpr::var(b_star);
  return {make_rule(A, B, !A, !B, "cancel")};
}

std::vector<Rule> majority_duplicate_rules(VarId a_star, VarId b_star,
                                           VarId k) {
  const BoolExpr A = BoolExpr::var(a_star);
  const BoolExpr B = BoolExpr::var(b_star);
  const BoolExpr K = BoolExpr::var(k);
  return {
      make_rule(A && !K, !A && !B, A && K, A && K, "dup_A"),
      make_rule(B && !K, !A && !B, B && K, B && K, "dup_B"),
  };
}

Program make_majority_program(VarSpacePtr vars) {
  const VarId A = vars->intern(kMajInputA);
  const VarId B = vars->intern(kMajInputB);
  const VarId Y = vars->intern(kMajOutput);
  const VarId As = vars->intern("MAJ_As");
  const VarId Bs = vars->intern("MAJ_Bs");
  const VarId K = vars->intern("MAJ_K");

  std::vector<Stmt> inner;
  inner.push_back(execute_ruleset(majority_cancel_rules(As, Bs)));
  inner.push_back(assign(K, BoolExpr::constant(false)));
  inner.push_back(execute_ruleset(majority_duplicate_rules(As, Bs, K)));

  std::vector<Stmt> body;
  body.push_back(assign(As, BoolExpr::var(A)));
  body.push_back(assign(Bs, BoolExpr::var(B)));
  body.push_back(repeat_log(std::move(inner)));
  body.push_back(if_exists(BoolExpr::var(As),
                           {assign(Y, BoolExpr::constant(true))}));
  body.push_back(if_exists(BoolExpr::var(Bs),
                           {assign(Y, BoolExpr::constant(false))}));

  Program p;
  p.name = "Majority";
  p.vars = std::move(vars);
  p.initializers = {};
  ProgramThread main;
  main.name = "Main";
  main.body = std::move(body);
  p.threads.push_back(std::move(main));
  return p;
}

std::vector<State> majority_inputs(const VarSpace& vars, std::size_t n,
                                   std::size_t count_a, std::size_t count_b) {
  POPPROTO_CHECK(count_a + count_b <= n);
  const auto A = vars.find(kMajInputA);
  const auto B = vars.find(kMajInputB);
  POPPROTO_CHECK(A && B);
  std::vector<State> states(n, State{0});
  for (std::size_t i = 0; i < count_a; ++i) states[i] |= var_bit(*A);
  for (std::size_t i = 0; i < count_b; ++i)
    states[count_a + i] |= var_bit(*B);
  return states;
}

bool majority_output_is(const SimBackend& backend, const VarSpace& vars,
                        bool a_wins) {
  const auto Y = vars.find(kMajOutput);
  POPPROTO_CHECK(Y.has_value());
  const std::uint64_t set = backend.count_matching(BoolExpr::var(*Y));
  return a_wins ? set == backend.active_n() : set == 0;
}

}  // namespace popproto
