#include "protocols/semilinear.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace popproto {

// ---------------------------------------------------------------------------
// Predicate specs.
// ---------------------------------------------------------------------------

bool PredicateSpec::eval(const std::vector<std::uint64_t>& counts) const {
  switch (kind) {
    case Kind::kThreshold:
    case Kind::kMod: {
      long long sum = 0;
      POPPROTO_CHECK(counts.size() >= coeffs.size());
      for (std::size_t i = 0; i < coeffs.size(); ++i)
        sum += static_cast<long long>(coeffs[i]) *
               static_cast<long long>(counts[i]);
      if (kind == Kind::kThreshold) return sum >= rhs;
      long long r = sum % modulus;
      if (r < 0) r += modulus;
      return r == remainder;
    }
    case Kind::kAnd:
      return children[0].eval(counts) && children[1].eval(counts);
    case Kind::kOr:
      return children[0].eval(counts) || children[1].eval(counts);
    case Kind::kNot:
      return !children[0].eval(counts);
  }
  return false;
}

std::size_t PredicateSpec::num_inputs() const {
  switch (kind) {
    case Kind::kThreshold:
    case Kind::kMod:
      return coeffs.size();
    case Kind::kAnd:
    case Kind::kOr:
      return std::max(children[0].num_inputs(), children[1].num_inputs());
    case Kind::kNot:
      return children[0].num_inputs();
  }
  return 0;
}

PredicateSpec threshold_ge(std::vector<int> coeffs, int rhs) {
  PredicateSpec s;
  s.kind = PredicateSpec::Kind::kThreshold;
  s.coeffs = std::move(coeffs);
  s.rhs = rhs;
  return s;
}

PredicateSpec mod_eq(std::vector<int> coeffs, int modulus, int remainder) {
  POPPROTO_CHECK(modulus >= 2 && remainder >= 0 && remainder < modulus);
  PredicateSpec s;
  s.kind = PredicateSpec::Kind::kMod;
  s.coeffs = std::move(coeffs);
  s.modulus = modulus;
  s.remainder = remainder;
  return s;
}

PredicateSpec p_and(PredicateSpec a, PredicateSpec b) {
  PredicateSpec s;
  s.kind = PredicateSpec::Kind::kAnd;
  s.children = {std::move(a), std::move(b)};
  return s;
}

PredicateSpec p_or(PredicateSpec a, PredicateSpec b) {
  PredicateSpec s;
  s.kind = PredicateSpec::Kind::kOr;
  s.children = {std::move(a), std::move(b)};
  return s;
}

PredicateSpec p_not(PredicateSpec a) {
  PredicateSpec s;
  s.kind = PredicateSpec::Kind::kNot;
  s.children = {std::move(a)};
  return s;
}

std::string semilinear_input_var(int input_class) {
  return "IN" + std::to_string(input_class);
}

// ---------------------------------------------------------------------------
// Bit-encoded small-integer fields.
// ---------------------------------------------------------------------------

namespace {

struct BitField {
  std::vector<VarId> bits;

  BoolExpr equals(unsigned v) const {
    BoolExpr e = BoolExpr::any();
    for (std::size_t i = 0; i < bits.size(); ++i) {
      const BoolExpr b = BoolExpr::var(bits[i]);
      e = e && (((v >> i) & 1) ? b : !b);
    }
    return e;
  }
  /// Literal conjunction pinning the field to v (usable as a rule RHS).
  BoolExpr set_to(unsigned v) const { return equals_literals(v); }
  BoolExpr equals_literals(unsigned v) const { return equals(v); }
};

BitField intern_field(VarSpace& vars, const std::string& prefix,
                      unsigned value_count) {
  POPPROTO_CHECK(value_count >= 1);
  unsigned bits = 1;
  while ((1u << bits) < value_count) ++bits;
  BitField f;
  for (unsigned i = 0; i < bits; ++i)
    f.bits.push_back(vars.intern(prefix + "b" + std::to_string(i)));
  return f;
}

/// One base-predicate instance of the slow blackbox.
struct SlowLeaf {
  std::vector<Rule> rules;
  BoolExpr output = BoolExpr::any();
  std::vector<std::pair<Guard, Update>> seeding;
};

SlowLeaf build_threshold_leaf(VarSpace& vars, const PredicateSpec& spec,
                              int id) {
  int s = std::abs(spec.rhs);
  for (int c : spec.coeffs) s = std::max(s, std::abs(c));
  s = std::max(s, 1);
  POPPROTO_CHECK_MSG(s <= 7, "threshold magnitude too large for bit encoding");
  const std::string prefix = "SLT" + std::to_string(id) + "_";
  BitField value = intern_field(vars, prefix + "V",
                                static_cast<unsigned>(2 * s + 1));
  const VarId act = vars.intern(prefix + "ACT");
  const VarId out = vars.intern(prefix + "OUT");
  const BoolExpr ACT = BoolExpr::var(act);
  const BoolExpr OUT = BoolExpr::var(out);
  auto enc = [&](int v) { return static_cast<unsigned>(v + s); };

  SlowLeaf leaf;
  leaf.output = OUT;
  // Merging rules over active value pairs: clamped addition with exact
  // remainder (the total is conserved), outputs refreshed on both sides.
  for (int u = -s; u <= s; ++u) {
    for (int v = -s; v <= s; ++v) {
      const int sum = u + v;
      const int clamped = std::clamp(sum, -s, s);
      const int rest = sum - clamped;
      const BoolExpr o =
          clamped >= spec.rhs ? OUT : !OUT;
      BoolExpr init_upd = value.set_to(enc(clamped)) && (clamped >= spec.rhs ? OUT : !OUT);
      BoolExpr resp_upd =
          rest == 0
              ? (!ACT && value.set_to(enc(0)) && o)
              : (value.set_to(enc(rest)) && o);
      leaf.rules.push_back(make_rule(ACT && value.equals(enc(u)),
                                     ACT && value.equals(enc(v)), init_upd,
                                     resp_upd, prefix + "merge"));
    }
    // Output spreading from actives to passives (both orientations).
    const BoolExpr o = u >= spec.rhs ? OUT : !OUT;
    leaf.rules.push_back(make_rule(ACT && value.equals(enc(u)), !ACT,
                                   BoolExpr::any(), o, prefix + "spread_f"));
    leaf.rules.push_back(make_rule(!ACT, ACT && value.equals(enc(u)), o,
                                   BoolExpr::any(), prefix + "spread_r"));
  }
  // Seeding: every agent first gets the empty-sum default output (so an
  // all-blank population correctly reports [0 >= rhs]); input class i then
  // becomes an active agent holding value c_i.
  leaf.seeding.emplace_back(
      Guard(), update_from_formula(0 >= spec.rhs ? OUT : !OUT));
  for (std::size_t i = 0; i < spec.coeffs.size(); ++i) {
    const int c = spec.coeffs[i];
    if (c == 0) continue;
    const auto in = vars.find(semilinear_input_var(static_cast<int>(i)));
    POPPROTO_CHECK(in.has_value());
    leaf.seeding.emplace_back(
        Guard(BoolExpr::var(*in)),
        update_from_formula(ACT && value.set_to(enc(c)) &&
                            (c >= spec.rhs ? OUT : !OUT)));
  }
  return leaf;
}

SlowLeaf build_mod_leaf(VarSpace& vars, const PredicateSpec& spec, int id) {
  const int m = spec.modulus;
  POPPROTO_CHECK_MSG(m <= 15, "modulus too large for bit encoding");
  const std::string prefix = "SLM" + std::to_string(id) + "_";
  BitField value = intern_field(vars, prefix + "V", static_cast<unsigned>(m));
  const VarId act = vars.intern(prefix + "ACT");
  const VarId out = vars.intern(prefix + "OUT");
  const BoolExpr ACT = BoolExpr::var(act);
  const BoolExpr OUT = BoolExpr::var(out);

  SlowLeaf leaf;
  leaf.output = OUT;
  for (int u = 0; u < m; ++u) {
    for (int v = 0; v < m; ++v) {
      const int sum = (u + v) % m;
      const BoolExpr o = sum == spec.remainder ? OUT : !OUT;
      leaf.rules.push_back(make_rule(
          ACT && value.equals(static_cast<unsigned>(u)),
          ACT && value.equals(static_cast<unsigned>(v)),
          value.set_to(static_cast<unsigned>(sum)) && o,
          !ACT && value.set_to(0) && o, prefix + "merge"));
    }
    const BoolExpr o = u == spec.remainder ? OUT : !OUT;
    leaf.rules.push_back(make_rule(ACT && value.equals(static_cast<unsigned>(u)),
                                   !ACT, BoolExpr::any(), o,
                                   prefix + "spread_f"));
    leaf.rules.push_back(make_rule(!ACT,
                                   ACT && value.equals(static_cast<unsigned>(u)),
                                   o, BoolExpr::any(), prefix + "spread_r"));
  }
  // Empty-sum default for every agent (0 ≡ remainder?), so all-blank
  // populations report the correct value without any token.
  leaf.seeding.emplace_back(
      Guard(), update_from_formula(0 == spec.remainder ? OUT : !OUT));
  for (std::size_t i = 0; i < spec.coeffs.size(); ++i) {
    const int c = ((spec.coeffs[i] % m) + m) % m;
    const auto in = vars.find(semilinear_input_var(static_cast<int>(i)));
    POPPROTO_CHECK(in.has_value());
    // Class agents start active even when c == 0 (they hold a genuine zero
    // token); blanks stay passive.
    leaf.seeding.emplace_back(
        Guard(BoolExpr::var(*in)),
        update_from_formula(ACT && value.set_to(static_cast<unsigned>(c)) &&
                            (c == spec.remainder ? OUT : !OUT)));
  }
  return leaf;
}

SlowLeaf build_slow(VarSpace& vars, const PredicateSpec& spec, int& next_id) {
  switch (spec.kind) {
    case PredicateSpec::Kind::kThreshold:
      return build_threshold_leaf(vars, spec, next_id++);
    case PredicateSpec::Kind::kMod:
      return build_mod_leaf(vars, spec, next_id++);
    case PredicateSpec::Kind::kAnd:
    case PredicateSpec::Kind::kOr: {
      SlowLeaf a = build_slow(vars, spec.children[0], next_id);
      SlowLeaf b = build_slow(vars, spec.children[1], next_id);
      SlowLeaf combined;
      combined.rules = std::move(a.rules);
      combined.rules.insert(combined.rules.end(),
                            std::make_move_iterator(b.rules.begin()),
                            std::make_move_iterator(b.rules.end()));
      combined.seeding = std::move(a.seeding);
      combined.seeding.insert(combined.seeding.end(),
                              std::make_move_iterator(b.seeding.begin()),
                              std::make_move_iterator(b.seeding.end()));
      combined.output = spec.kind == PredicateSpec::Kind::kAnd
                            ? (a.output && b.output)
                            : (a.output || b.output);
      return combined;
    }
    case PredicateSpec::Kind::kNot: {
      SlowLeaf a = build_slow(vars, spec.children[0], next_id);
      a.output = !a.output;
      return a;
    }
  }
  return {};
}

}  // namespace

std::vector<State> SemilinearProtocol::inputs(
    std::size_t n, const std::vector<std::size_t>& counts) const {
  std::vector<State> states(n, State{0});
  std::size_t at = 0;
  for (int i = 0; i < static_cast<int>(counts.size()); ++i) {
    const auto v = program.vars->find(semilinear_input_var(i));
    POPPROTO_CHECK(v.has_value());
    for (std::size_t c = 0; c < counts[static_cast<std::size_t>(i)]; ++c) {
      POPPROTO_CHECK(at < n);
      states[at++] |= var_bit(*v);
    }
  }
  for (auto& s : states) {
    for (const auto& [guard, update] : seeding)
      if (guard.matches(s)) s = update.apply(s);
  }
  return states;
}

SemilinearProtocol make_slow_semilinear_protocol(VarSpacePtr vars,
                                                 const PredicateSpec& spec) {
  for (std::size_t i = 0; i < spec.num_inputs(); ++i)
    vars->intern(semilinear_input_var(static_cast<int>(i)));
  const VarId P = vars->intern(kSemilinearOutput);
  int next_id = 0;
  SlowLeaf slow = build_slow(*vars, spec, next_id);

  Program prog;
  prog.name = "SemilinearSlow";
  prog.vars = vars;

  // Main thread: P tracks the (per-agent) slow output; once the blackbox
  // stabilizes, P stabilizes one good iteration later.
  ProgramThread main;
  main.name = "Main";
  main.body.push_back(assign(P, slow.output));
  prog.threads.push_back(std::move(main));

  ProgramThread bb;
  bb.name = "SemLinearSlow";
  bb.background_rules = std::move(slow.rules);
  prog.threads.push_back(std::move(bb));

  SemilinearProtocol out;
  out.program = std::move(prog);
  out.seeding = std::move(slow.seeding);
  out.slow_output = slow.output;
  return out;
}

SemilinearProtocol make_semilinear_exact_protocol(VarSpacePtr vars,
                                                  const PredicateSpec& spec) {
  for (std::size_t i = 0; i < spec.num_inputs(); ++i)
    vars->intern(semilinear_input_var(static_cast<int>(i)));
  const VarId P = vars->intern(kSemilinearOutput);
  int next_id = 0;
  SlowLeaf slow = build_slow(*vars, spec, next_id);

  Program prog;
  prog.name = "SemilinearPredicateExact";
  prog.vars = vars;

  ProgramThread main;
  main.name = "Main";

  if (spec.fast_path_available()) {
    // Fast blackbox: signed unit-token cancel/duplicate with shedding
    // (DESIGN.md §3.2). Sign-magnitude working value in [-3, 3].
    int cmax = 1;
    for (int c : spec.coeffs) cmax = std::max(cmax, std::abs(c));
    POPPROTO_CHECK_MSG(cmax <= 3, "fast path supports |coeff| <= 3");
    const VarId sgn = vars->intern("FT_S");
    BitField mag = intern_field(*vars, "FT_M", 4);
    const VarId k = vars->intern("FT_K");
    const VarId pstar = vars->intern("FT_P");  // the paper's P*
    const BoolExpr S = BoolExpr::var(sgn);
    const BoolExpr K = BoolExpr::var(k);
    const BoolExpr Ps = BoolExpr::var(pstar);

    auto& body = main.body;
    // Working value := input coefficient (per magnitude bit + sign).
    for (std::size_t bit = 0; bit < mag.bits.size(); ++bit) {
      BoolExpr src = BoolExpr::constant(false);
      for (std::size_t i = 0; i < spec.coeffs.size(); ++i) {
        if ((static_cast<unsigned>(std::abs(spec.coeffs[i])) >> bit) & 1) {
          const auto in = vars->find(semilinear_input_var(static_cast<int>(i)));
          src = src || BoolExpr::var(*in);
        }
      }
      body.push_back(assign(mag.bits[bit], src));
    }
    {
      BoolExpr src = BoolExpr::constant(false);
      for (std::size_t i = 0; i < spec.coeffs.size(); ++i) {
        if (spec.coeffs[i] < 0) {
          const auto in = vars->find(semilinear_input_var(static_cast<int>(i)));
          src = src || BoolExpr::var(*in);
        }
      }
      body.push_back(assign(sgn, src));
    }

    std::vector<Stmt> inner;
    {
      // Shedding: a token of magnitude >= 2 unloads one unit onto a blank.
      std::vector<Rule> shed;
      for (int m = 2; m <= cmax; ++m) {
        for (int neg = 0; neg <= 1; ++neg) {
          const BoolExpr sign_e = neg ? S : !S;
          const BoolExpr sign_u = neg ? S : !S;
          shed.push_back(make_rule(
              sign_e && mag.equals(static_cast<unsigned>(m)), mag.equals(0),
              mag.set_to(static_cast<unsigned>(m - 1)),
              sign_u && mag.set_to(1) && !K, "shed"));
        }
      }
      inner.push_back(execute_ruleset(std::move(shed)));
      // Cancellation of opposite tokens at any magnitudes (one unit per
      // meeting): this keeps the phase correct even when shedding has not
      // fully unfolded the multi-unit tokens yet.
      std::vector<Rule> cancel;
      for (int pm = 1; pm <= cmax; ++pm) {
        for (int nm = 1; nm <= cmax; ++nm) {
          const BoolExpr init_upd =
              pm == 1 ? (mag.set_to(0) && !S)
                      : mag.set_to(static_cast<unsigned>(pm - 1));
          const BoolExpr resp_upd =
              nm == 1 ? (mag.set_to(0) && !S)
                      : (mag.set_to(static_cast<unsigned>(nm - 1)) && S);
          cancel.push_back(make_rule(
              !S && mag.equals(static_cast<unsigned>(pm)),
              S && mag.equals(static_cast<unsigned>(nm)), init_upd, resp_upd,
              "cancel"));
        }
      }
      inner.push_back(execute_ruleset(std::move(cancel)));
      inner.push_back(assign(k, BoolExpr::constant(false)));
      // Duplication: each surviving unit token recruits one blank per phase.
      std::vector<Rule> dup;
      for (int neg = 0; neg <= 1; ++neg) {
        const BoolExpr sign_e = neg ? S : !S;
        dup.push_back(make_rule(sign_e && mag.equals(1) && !K, mag.equals(0),
                                mag.set_to(1) && K,
                                sign_e && mag.set_to(1) && K, "dup"));
      }
      inner.push_back(execute_ruleset(std::move(dup)));
    }
    body.push_back(repeat_log(std::move(inner)));
    body.push_back(if_exists(!S && !mag.equals(0),
                             {assign(pstar, BoolExpr::constant(true))}));
    body.push_back(if_exists(S && !mag.equals(0),
                             {assign(pstar, BoolExpr::constant(false))}));

    // Combiner (Thm 6.4): writes of P are vetoed by a stabilized slow
    // blackbox of the opposite value.
    body.push_back(if_exists(
        Ps, {if_exists(slow.output, {assign(P, BoolExpr::constant(true))})}));
    body.push_back(if_exists(
        !Ps,
        {if_exists(!slow.output,
                   {if_exists(BoolExpr::var(P),
                              {assign(P, BoolExpr::constant(false))})})}));
  } else {
    // No fast path (modulo / compound predicate): P follows the slow
    // output; convergence is carried entirely by the slow blackbox.
    main.body.push_back(assign(P, slow.output));
  }
  prog.threads.push_back(std::move(main));

  ProgramThread bb;
  bb.name = "SemLinearSlow";
  bb.background_rules = std::move(slow.rules);
  prog.threads.push_back(std::move(bb));

  SemilinearProtocol out;
  out.program = std::move(prog);
  out.seeding = std::move(slow.seeding);
  out.slow_output = slow.output;
  return out;
}

bool semilinear_output_is(const SimBackend& backend, const VarSpace& vars,
                          bool value) {
  const auto P = vars.find(kSemilinearOutput);
  POPPROTO_CHECK(P.has_value());
  const std::uint64_t set = backend.count_matching(BoolExpr::var(*P));
  return value ? set == backend.active_n() : set == 0;
}

}  // namespace popproto
