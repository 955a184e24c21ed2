#include "protocols/leader_election.hpp"

namespace popproto {

Program make_leader_election_program(VarSpacePtr vars) {
  const VarId L = vars->intern(kLeaderVar);
  const VarId D = vars->intern("LE_D");
  const VarId F = vars->intern("LE_F");

  // repeat:
  //   if exists (L):
  //     F := coin; D := L ∧ F
  //     if exists (D): L := D
  //   else:
  //     L := on
  //
  // (The nesting follows the drift recurrence of Theorem 3.1's proof:
  // E[ℓ_{i+1} | ℓ_i] = ℓ_i/2 + 2^{-ℓ_i} ℓ_i — when every leader's coin
  // fails, the leader set is *kept*; only an empty leader set triggers the
  // global reset L := on.)
  std::vector<Stmt> inner;
  inner.push_back(assign_coin(F));
  inner.push_back(assign(D, BoolExpr::var(L) && BoolExpr::var(F)));
  inner.push_back(if_exists(BoolExpr::var(D),
                            {assign(L, BoolExpr::var(D))}));
  std::vector<Stmt> body;
  body.push_back(if_exists(BoolExpr::var(L), std::move(inner),
                           {assign(L, BoolExpr::constant(true))}));

  Program p;
  p.name = "LeaderElection";
  p.vars = std::move(vars);
  p.initializers = {{L, true}, {D, false}, {F, true}};
  ProgramThread main;
  main.name = "Main";
  main.body = std::move(body);
  p.threads.push_back(std::move(main));
  return p;
}

std::uint64_t leader_count(const SimBackend& backend, const VarSpace& vars) {
  const auto L = vars.find(kLeaderVar);
  POPPROTO_CHECK(L.has_value());
  return backend.count_matching(BoolExpr::var(*L));
}

}  // namespace popproto
