#include "clocks/x_control.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "support/check.hpp"

namespace popproto {

Protocol make_fixed_x_protocol(VarSpacePtr vars) {
  vars->intern(kXVar);
  return Protocol("fixed_x", std::move(vars));
}

std::vector<std::pair<State, std::uint64_t>> x_counts(std::uint64_t n,
                                                      std::uint64_t x_count,
                                                      const VarSpace& vars) {
  POPPROTO_CHECK(x_count <= n);
  std::vector<std::pair<State, std::uint64_t>> out;
  if (x_count > 0) out.emplace_back(var_bit(vars.at(kXVar)), x_count);
  if (n > x_count) out.emplace_back(State{0}, n - x_count);
  return out;
}

Protocol make_x_elimination_protocol(VarSpacePtr vars) {
  const VarId x = vars->intern(kXVar);
  std::vector<Rule> rules;
  rules.push_back(make_rule(BoolExpr::var(x), BoolExpr::var(x),
                            !BoolExpr::var(x), BoolExpr::any(), "x_elim"));
  Protocol proto("x_elimination", std::move(vars));
  proto.add_thread("XElimination", std::move(rules));
  return proto;
}

Protocol make_klevel_signal_protocol(VarSpacePtr vars, int k) {
  POPPROTO_CHECK(k >= 1 && k <= 8);
  const VarId x = vars->intern(kXVar);
  const VarId z = vars->intern(kZVar);
  std::vector<VarId> zr;  // Z ladder rungs Z1..Zk
  for (int i = 1; i <= k; ++i)
    zr.push_back(vars->intern("Z" + std::to_string(i)));
  std::vector<VarId> xr;  // X ladder rungs X1..X(k-1)
  for (int i = 1; i <= k - 1; ++i)
    xr.push_back(vars->intern("X" + std::to_string(i)));

  auto none_of = [](const std::vector<VarId>& vs) {
    BoolExpr e = BoolExpr::any();
    for (VarId v : vs) e = e && !BoolExpr::var(v);
    return e;
  };
  auto clear_all = none_of;

  std::vector<Rule> rules;
  // Ladder resets on meeting a non-Z agent.
  rules.push_back(make_rule(BoolExpr::any(), !BoolExpr::var(z), clear_all(zr),
                            BoolExpr::any(), "z_reset"));
  if (!xr.empty())
    rules.push_back(make_rule(BoolExpr::any(), !BoolExpr::var(z), clear_all(xr),
                              BoolExpr::any(), "x_reset"));
  // Z ladder: k consecutive meetings with Z agents unset the initiator's Z.
  rules.push_back(make_rule(BoolExpr::var(z) && none_of(zr), BoolExpr::var(z),
                            BoolExpr::var(zr[0]), BoolExpr::any(), "z_climb1"));
  for (int i = 1; i < k; ++i)
    rules.push_back(make_rule(
        BoolExpr::var(zr[static_cast<std::size_t>(i - 1)]), BoolExpr::var(z),
        !BoolExpr::var(zr[static_cast<std::size_t>(i - 1)]) &&
            BoolExpr::var(zr[static_cast<std::size_t>(i)]),
        BoolExpr::any(), "z_climb" + std::to_string(i + 1)));
  rules.push_back(make_rule(BoolExpr::var(zr.back()), BoolExpr::var(z),
                            !BoolExpr::var(z) && !BoolExpr::var(zr.back()),
                            BoolExpr::any(), "z_top"));
  // X ladder: k consecutive meetings with Z agents unset the initiator's X.
  if (k == 1) {
    rules.push_back(make_rule(BoolExpr::var(x), BoolExpr::var(z),
                              !BoolExpr::var(x), BoolExpr::any(), "x_top"));
  } else {
    rules.push_back(make_rule(BoolExpr::var(x) && none_of(xr), BoolExpr::var(z),
                              BoolExpr::var(xr[0]), BoolExpr::any(),
                              "x_climb1"));
    for (int i = 1; i < k - 1; ++i)
      rules.push_back(make_rule(
          BoolExpr::var(xr[static_cast<std::size_t>(i - 1)]), BoolExpr::var(z),
          !BoolExpr::var(xr[static_cast<std::size_t>(i - 1)]) &&
              BoolExpr::var(xr[static_cast<std::size_t>(i)]),
          BoolExpr::any(), "x_climb" + std::to_string(i + 1)));
    rules.push_back(make_rule(BoolExpr::var(xr.back()), BoolExpr::var(z),
                              !BoolExpr::var(x) && !BoolExpr::var(xr.back()),
                              BoolExpr::any(), "x_top"));
  }

  Protocol proto("klevel_signal", std::move(vars));
  proto.add_thread("KLevelSignal", std::move(rules));
  return proto;
}

namespace {

constexpr int kJuntaLevelBits = 5;  // levels 0..kJuntaLevelCap
static_assert(kJuntaLevelCap < (1 << kJuntaLevelBits));

std::string junta_level_var(int bit) { return "JUNTA_L" + std::to_string(bit); }

std::array<VarId, kJuntaLevelBits> junta_level_vars(const VarSpace& vars) {
  std::array<VarId, kJuntaLevelBits> out{};
  for (int i = 0; i < kJuntaLevelBits; ++i)
    out[static_cast<std::size_t>(i)] = vars.at(junta_level_var(i));
  return out;
}

int decode_level(State s, const std::array<VarId, kJuntaLevelBits>& bits) {
  int level = 0;
  for (int i = 0; i < kJuntaLevelBits; ++i)
    if (var_is_set(s, bits[static_cast<std::size_t>(i)])) level |= 1 << i;
  return level;
}

}  // namespace

Protocol make_junta_protocol(VarSpacePtr vars) {
  const VarId x = vars->intern(kXVar);
  for (int i = 0; i < kJuntaLevelBits; ++i) vars->intern(junta_level_var(i));
  const auto bits = junta_level_vars(*vars);
  PairKernel kernel;
  kernel.outcomes = [x, bits](State a, State b,
                              std::vector<KernelOutcome>& out) {
    const auto encode = [&](int level, bool climbing) {
      State s = climbing ? var_bit(x) : 0;
      for (int i = 0; i < kJuntaLevelBits; ++i)
        if (level & (1 << i)) s |= var_bit(bits[static_cast<std::size_t>(i)]);
      return s;
    };
    // A climber's level is its max (DESIGN.md §3.3), so la and lb serve
    // as both.
    const bool xa = var_is_set(a, x);
    const bool xb = var_is_set(b, x);
    int la = decode_level(a, bits);
    const int lb = decode_level(b, bits);
    // Climb: the initiator of a same-level climbing pair advances one level.
    if (xa && xb && la == lb && la < kJuntaLevelCap) ++la;
    // Epidemic maximum; knock-out: a climber below it drops out.
    const int m = std::max(la, lb);
    out.push_back(KernelOutcome{1.0, encode(m, xa && la == m),
                                encode(m, xb && lb == m)});
  };
  kernel.signature = "junta cap=" + std::to_string(kJuntaLevelCap);
  Protocol proto("junta", std::move(vars));
  proto.add_kernel_thread("JuntaElection", std::move(kernel));
  return proto;
}

int junta_level(State s, const VarSpace& vars) {
  return decode_level(s, junta_level_vars(vars));
}

}  // namespace popproto
