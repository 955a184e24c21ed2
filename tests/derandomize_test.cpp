#include <gtest/gtest.h>

#include <functional>

#include "core/engine.hpp"
#include "lang/derandomize.hpp"
#include "lang/runtime.hpp"
#include "protocols/leader_election.hpp"

namespace popproto {
namespace {

TEST(Derandomize, ReplacesCoinAssignments) {
  auto vars = make_var_space();
  const Program p = make_leader_election_program(vars);
  const DerandomizedProgram d = derandomize(p);
  EXPECT_EQ(d.coins_replaced, 1);  // LeaderElection's F := coin
  // No coin assignment survives anywhere in the main thread.
  std::function<void(const std::vector<Stmt>&)> check =
      [&](const std::vector<Stmt>& body) {
        for (const auto& s : body) {
          EXPECT_FALSE(s.kind == StmtKind::kAssign && s.coin);
          check(s.then_branch);
          check(s.else_branch);
          check(s.body);
        }
      };
  check(d.program.main_thread().body);
}

TEST(Derandomize, AddsSyntheticCoinThread) {
  auto vars = make_var_space();
  const Program p = make_leader_election_program(vars);
  const DerandomizedProgram d = derandomize(p);
  ASSERT_EQ(d.program.background_threads().size(), 1u);
  EXPECT_EQ(d.program.background_threads()[0]->name, "SyntheticCoin");
  EXPECT_TRUE(d.program.vars->find("SYN_F").has_value());
}

TEST(Derandomize, NoCoinsMeansNoNewThread) {
  Program p;
  p.vars = make_var_space();
  const VarId x = p.vars->intern("X");
  ProgramThread main;
  main.name = "Main";
  main.body = {assign(x, BoolExpr::constant(true))};
  p.threads.push_back(std::move(main));
  const DerandomizedProgram d = derandomize(p);
  EXPECT_EQ(d.coins_replaced, 0);
  EXPECT_TRUE(d.program.background_threads().empty());
}

TEST(Derandomize, SyntheticCoinHoversAtConstantFraction) {
  auto vars = make_var_space();
  VarId coin = 0;
  std::vector<Rule> rules = make_filtered_coin_rules(*vars, "SYN_", &coin);
  Protocol proto("coin", vars);
  proto.add_thread("SyntheticCoin", std::move(rules));
  const State init =
      var_bit(*vars->find("SYN_I")) | var_bit(*vars->find("SYN_S"));
  Engine eng(proto, std::vector<State>(4096, init), 5);
  eng.run_rounds(30.0);  // bootstrap
  int balanced = 0;
  for (int i = 0; i < 30; ++i) {
    eng.run_rounds(5.0);
    const double f =
        static_cast<double>(eng.count_matching(BoolExpr::var(coin))) / 4096.0;
    if (f > 0.05 && f < 0.95) ++balanced;
  }
  EXPECT_GE(balanced, 28);
}

TEST(Derandomize, LeaderElectionStillConverges) {
  // Thm 3.1 survives derandomization: per-agent coins become the
  // scheduler-driven synthetic coin, and the drift argument still applies
  // (cf. Thm 6.2's analysis with the F filter).
  auto vars = make_var_space();
  const Program p = make_leader_election_program(vars);
  const DerandomizedProgram d = derandomize(p);
  RuntimeOptions opts;
  opts.seed = 17;
  FrameworkRuntime rt(d.program, 2048, opts);
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return leader_count(pop, *vars) == 1;
      },
      600);
  ASSERT_TRUE(t.has_value());
}

TEST(Derandomize, DeterministicRulesOnly) {
  // Every rule of the derandomized LeaderElection's precompiled form must
  // have a single certain outcome (no coin-flip branches) — except none at
  // all, since derandomization removed the only coin.
  auto vars = make_var_space();
  const Program p = make_leader_election_program(vars);
  const DerandomizedProgram d = derandomize(p);
  for (const auto* bt : d.program.background_threads())
    for (const auto& r : bt->background_rules) {
      ASSERT_EQ(r.outcomes().size(), 1u);
      ASSERT_GE(r.outcomes()[0].probability, 1.0);
    }
}

}  // namespace
}  // namespace popproto
