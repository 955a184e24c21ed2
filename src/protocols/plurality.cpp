#include "protocols/plurality.hpp"

#include "protocols/majority.hpp"

namespace popproto {

std::string plurality_input_var(int color) {
  return "P" + std::to_string(color);
}

std::string plurality_output_var(int color) {
  return "WIN" + std::to_string(color);
}

Program make_plurality_program(VarSpacePtr vars, int colors) {
  POPPROTO_CHECK_MSG(colors >= 2 && colors <= 5,
                     "plurality supports 2..5 colors (variable budget)");
  std::vector<VarId> in(static_cast<std::size_t>(colors));
  std::vector<VarId> win(static_cast<std::size_t>(colors));
  for (int i = 0; i < colors; ++i) {
    in[static_cast<std::size_t>(i)] = vars->intern(plurality_input_var(i));
    win[static_cast<std::size_t>(i)] = vars->intern(plurality_output_var(i));
  }

  struct Pair {
    int i, j;
    VarId a, b, k, w;  // copies, recruitment flag, "i beats j" flag
  };
  std::vector<Pair> pairs;
  for (int i = 0; i < colors; ++i)
    for (int j = i + 1; j < colors; ++j) {
      const std::string suffix =
          std::to_string(i) + "_" + std::to_string(j);
      pairs.push_back(Pair{i, j, vars->intern("PLU_A" + suffix),
                           vars->intern("PLU_B" + suffix),
                           vars->intern("PLU_K" + suffix),
                           vars->intern("PLU_W" + suffix)});
    }

  std::vector<Stmt> body;
  // Refresh every pair's working copies from the inputs.
  for (const auto& p : pairs) {
    body.push_back(assign(p.a, BoolExpr::var(in[static_cast<std::size_t>(p.i)])));
    body.push_back(assign(p.b, BoolExpr::var(in[static_cast<std::size_t>(p.j)])));
  }
  // One inner loop running every pairwise majority concurrently (merged
  // rulesets keep the loop depth — and the time bound — equal to Majority).
  std::vector<Stmt> inner;
  {
    std::vector<Rule> cancel;
    for (const auto& p : pairs)
      for (auto& r : majority_cancel_rules(p.a, p.b)) cancel.push_back(r);
    inner.push_back(execute_ruleset(std::move(cancel)));
    for (const auto& p : pairs)
      inner.push_back(assign(p.k, BoolExpr::constant(false)));
    std::vector<Rule> dup;
    for (const auto& p : pairs)
      for (auto& r : majority_duplicate_rules(p.a, p.b, p.k))
        dup.push_back(r);
    inner.push_back(execute_ruleset(std::move(dup)));
  }
  body.push_back(repeat_log(std::move(inner)));
  // Per-pair winners, then per-color conjunction outputs.
  for (const auto& p : pairs) {
    body.push_back(if_exists(BoolExpr::var(p.a),
                             {assign(p.w, BoolExpr::constant(true))}));
    body.push_back(if_exists(BoolExpr::var(p.b),
                             {assign(p.w, BoolExpr::constant(false))}));
  }
  for (int i = 0; i < colors; ++i) {
    BoolExpr beats_all = BoolExpr::any();
    for (const auto& p : pairs) {
      if (p.i == i) beats_all = beats_all && BoolExpr::var(p.w);
      if (p.j == i) beats_all = beats_all && !BoolExpr::var(p.w);
    }
    body.push_back(assign(win[static_cast<std::size_t>(i)], beats_all));
  }

  Program prog;
  prog.name = "Plurality" + std::to_string(colors);
  prog.vars = std::move(vars);
  ProgramThread main;
  main.name = "Main";
  main.body = std::move(body);
  prog.threads.push_back(std::move(main));
  return prog;
}

double plurality_recommended_c(int colors) {
  const int pairs = colors * (colors - 1) / 2;
  return 2.5 + 0.75 * pairs;
}

std::vector<State> plurality_inputs(const VarSpace& vars, std::size_t n,
                                    const std::vector<std::size_t>& counts) {
  std::vector<State> states(n, State{0});
  std::size_t at = 0;
  for (int i = 0; i < static_cast<int>(counts.size()); ++i) {
    const auto v = vars.find(plurality_input_var(i));
    POPPROTO_CHECK(v.has_value());
    for (std::size_t c = 0; c < counts[static_cast<std::size_t>(i)]; ++c) {
      POPPROTO_CHECK(at < n);
      states[at++] |= var_bit(*v);
    }
  }
  return states;
}

int plurality_winner(const SimBackend& backend, const VarSpace& vars,
                     int colors) {
  int winner = -1;
  for (int i = 0; i < colors; ++i) {
    const auto v = vars.find(plurality_output_var(i));
    POPPROTO_CHECK(v.has_value());
    if (backend.count_matching(BoolExpr::var(*v)) == backend.active_n()) {
      if (winner >= 0) return -1;  // two unanimous winners: inconsistent
      winner = i;
    }
  }
  return winner;
}

}  // namespace popproto
