#include "protocols/leader_election_exact.hpp"

#include "lang/derandomize.hpp"

namespace popproto {

Program make_leader_election_exact_program(VarSpacePtr vars) {
  const VarId L = vars->intern(kExactLeaderVar);
  const VarId R = vars->intern("LEX_R");
  VarId F = vars->intern("LEX_F");
  const VarId D = vars->intern("LEX_D");
  // thread FilteredCoin uses F (background ruleset, lines 16-21); it interns
  // LEX_I and LEX_S after the variables above, so every bit keeps its place.
  std::vector<Rule> coin_rules = make_filtered_coin_rules(*vars, "LEX_", &F);
  const VarId I = vars->at("LEX_I");
  const VarId S = vars->at("LEX_S");

  const BoolExpr eL = BoolExpr::var(L);
  const BoolExpr eR = BoolExpr::var(R);
  const BoolExpr eF = BoolExpr::var(F);
  const BoolExpr eD = BoolExpr::var(D);

  Program p;
  p.name = "LeaderElectionExact";
  p.vars = vars;
  p.initializers = {{L, true}, {R, true}, {F, true},
                    {D, false}, {I, true}, {S, true}};

  // thread Main uses L, reads R, F. The branch structure follows the
  // invariants of the Thm 6.1/6.2 proofs (mirroring LeaderElection's
  // nesting): a flat reading of the printed pseudocode deadlocks when L
  // empties while a stale D survives — "if exists (L)" then guards the D
  // update forever, and "L := L ∧ D" can never repopulate L. Nesting the
  // D-test under the L-test (with L := R whenever either set is empty)
  // preserves every step of the paper's analysis and removes the trap.
  {
    std::vector<Stmt> inner;
    inner.push_back(assign(D, eL && eF));
    inner.push_back(if_exists(eD, {assign(L, eL && eD)},
                              {assign(L, eR)}));
    std::vector<Stmt> body;
    body.push_back(if_exists(eL, std::move(inner), {assign(L, eR)}));
    ProgramThread main;
    main.name = "Main";
    main.body = std::move(body);
    p.threads.push_back(std::move(main));
  }

  {
    ProgramThread t;
    t.name = "FilteredCoin";
    t.background_rules = std::move(coin_rules);
    p.threads.push_back(std::move(t));
  }

  // thread ReduceSets uses R, L (background ruleset, lines 24-26).
  {
    std::vector<Rule> rules;
    rules.push_back(
        make_rule(eR, eR && !eL, BoolExpr::any(), !eR && !eL, "rs_cull"));
    rules.push_back(make_rule(eR && eL, eR && eL, eR && eL, !eR && !eL,
                              "rs_cull_leaders"));
    ProgramThread t;
    t.name = "ReduceSets";
    t.background_rules = std::move(rules);
    p.threads.push_back(std::move(t));
  }
  return p;
}

}  // namespace popproto
