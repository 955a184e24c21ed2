#include "core/expr.hpp"

#include <algorithm>
#include <bit>
#include <string_view>
#include <utility>

#include "support/parse.hpp"

namespace popproto {

struct BoolExpr::Node {
  enum class Kind { kConst, kVar, kNot, kAnd, kOr } kind;
  bool value = false;  // kConst
  VarId var = 0;       // kVar
  NodePtr a, b;        // kNot uses a; kAnd/kOr use a and b
};

namespace {

using Node = BoolExpr::LiteralConjunction;  // (unused alias guard)

}  // namespace

BoolExpr BoolExpr::any() { return constant(true); }

BoolExpr BoolExpr::constant(bool value) {
  auto n = std::make_shared<BoolExpr::Node>();
  n->kind = Node::Kind::kConst;
  n->value = value;
  return BoolExpr(std::move(n));
}

BoolExpr BoolExpr::var(VarId v) {
  auto n = std::make_shared<BoolExpr::Node>();
  n->kind = Node::Kind::kVar;
  n->var = v;
  return BoolExpr(std::move(n));
}

BoolExpr BoolExpr::operator!() const {
  auto n = std::make_shared<BoolExpr::Node>();
  n->kind = Node::Kind::kNot;
  n->a = node_;
  return BoolExpr(std::move(n));
}

BoolExpr BoolExpr::operator&&(const BoolExpr& rhs) const {
  auto n = std::make_shared<BoolExpr::Node>();
  n->kind = Node::Kind::kAnd;
  n->a = node_;
  n->b = rhs.node_;
  return BoolExpr(std::move(n));
}

BoolExpr BoolExpr::operator||(const BoolExpr& rhs) const {
  auto n = std::make_shared<BoolExpr::Node>();
  n->kind = Node::Kind::kOr;
  n->a = node_;
  n->b = rhs.node_;
  return BoolExpr(std::move(n));
}

bool BoolExpr::eval(State s) const {
  using K = Node::Kind;
  switch (node_->kind) {
    case K::kConst:
      return node_->value;
    case K::kVar:
      return var_is_set(s, node_->var);
    case K::kNot:
      return !BoolExpr(node_->a).eval(s);
    case K::kAnd:
      return BoolExpr(node_->a).eval(s) && BoolExpr(node_->b).eval(s);
    case K::kOr:
      return BoolExpr(node_->a).eval(s) || BoolExpr(node_->b).eval(s);
  }
  return false;
}

State BoolExpr::support() const {
  using K = Node::Kind;
  switch (node_->kind) {
    case K::kConst:
      return 0;
    case K::kVar:
      return var_bit(node_->var);
    case K::kNot:
      return BoolExpr(node_->a).support();
    case K::kAnd:
    case K::kOr:
      return BoolExpr(node_->a).support() | BoolExpr(node_->b).support();
  }
  return 0;
}

std::optional<BoolExpr::LiteralConjunction> BoolExpr::as_literal_conjunction()
    const {
  using K = Node::Kind;
  switch (node_->kind) {
    case K::kConst:
      if (node_->value) return LiteralConjunction{};
      return std::nullopt;
    case K::kVar:
      return LiteralConjunction{var_bit(node_->var), 0};
    case K::kNot: {
      const BoolExpr inner(node_->a);
      if (inner.node_->kind == K::kVar)
        return LiteralConjunction{0, var_bit(inner.node_->var)};
      return std::nullopt;
    }
    case K::kAnd: {
      auto lhs = BoolExpr(node_->a).as_literal_conjunction();
      auto rhs = BoolExpr(node_->b).as_literal_conjunction();
      if (!lhs || !rhs) return std::nullopt;
      LiteralConjunction out{lhs->set_mask | rhs->set_mask,
                             lhs->clear_mask | rhs->clear_mask};
      if (out.set_mask & out.clear_mask) return std::nullopt;  // contradiction
      return out;
    }
    case K::kOr:
      return std::nullopt;
  }
  return std::nullopt;
}

std::string BoolExpr::to_string(const VarSpace& vars) const {
  using K = Node::Kind;
  switch (node_->kind) {
    case K::kConst:
      return node_->value ? "." : "false";
    case K::kVar:
      return vars.name(node_->var);
    case K::kNot:
      return "!" + BoolExpr(node_->a).to_string(vars);
    case K::kAnd:
      return "(" + BoolExpr(node_->a).to_string(vars) + " & " +
             BoolExpr(node_->b).to_string(vars) + ")";
    case K::kOr:
      return "(" + BoolExpr(node_->a).to_string(vars) + " | " +
             BoolExpr(node_->b).to_string(vars) + ")";
  }
  return "?";
}

bool BoolExpr::is_const_true() const {
  return node_->kind == Node::Kind::kConst && node_->value;
}

bool BoolExpr::is_const_false() const {
  return node_->kind == Node::Kind::kConst && !node_->value;
}

// ---------------------------------------------------------------------------
// Guard compilation: enumerate assignments of the (small) support set and
// greedily merge adjacent minterms. Guards in compiled protocols mention at
// most a dozen variables, so the 2^|support| sweep is fine at build time and
// buys branch-free matching in the simulation hot loop.
// ---------------------------------------------------------------------------

Guard::Guard() : always_(true) {}

Guard::Guard(const BoolExpr& expr) {
  support_ = expr.support();
  const int k = std::popcount(support_);
  POPPROTO_CHECK_MSG(k <= 20, "guard support too large to compile");

  // Positions of the support bits.
  std::vector<VarId> vars;
  for (std::size_t v = 0; v < kMaxVars; ++v)
    if (support_ & var_bit(static_cast<VarId>(v)))
      vars.push_back(static_cast<VarId>(v));

  std::vector<Minterm> terms;
  const std::uint64_t combos = 1ull << k;
  for (std::uint64_t c = 0; c < combos; ++c) {
    State s = 0;
    for (int i = 0; i < k; ++i)
      if ((c >> i) & 1) s |= var_bit(vars[i]);
    if (expr.eval(s)) terms.push_back(Minterm{support_, s});
  }

  if (terms.size() == combos && k >= 0) {
    // Tautology over its support (includes constant-true / empty support).
    always_ = true;
    return;
  }

  // Greedy merging: combine pairs of minterms that differ in exactly one
  // cared bit, dropping that bit from the mask. Iterate to fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < terms.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < terms.size(); ++j) {
        if (terms[i].mask != terms[j].mask) continue;
        const State diff = terms[i].bits ^ terms[j].bits;
        if (std::popcount(diff) == 1) {
          terms[i].mask &= ~diff;
          terms[i].bits &= ~diff;
          terms.erase(terms.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
          break;
        }
      }
    }
  }

  // Absorption: drop terms implied by a weaker term.
  std::vector<Minterm> kept;
  for (const auto& t : terms) {
    bool absorbed = false;
    for (const auto& u : terms) {
      if (&u == &t) continue;
      const bool u_weaker = (u.mask & ~t.mask) == 0;
      if (u_weaker && (t.bits & u.mask) == u.bits &&
          (u.mask != t.mask || u.bits != t.bits || &u < &t)) {
        absorbed = true;
        break;
      }
    }
    if (!absorbed) kept.push_back(t);
  }
  terms_ = std::move(kept);
}

std::vector<std::pair<State, State>> Guard::minterms() const {
  std::vector<std::pair<State, State>> out;
  out.reserve(terms_.size());
  for (const auto& t : terms_) out.emplace_back(t.mask, t.bits);
  return out;
}

Guard Guard::from_minterms(
    bool always, const std::vector<std::pair<State, State>>& terms) {
  Guard g;
  g.always_ = always;
  if (always) return g;
  g.terms_.reserve(terms.size());
  for (const auto& [mask, bits] : terms) {
    g.terms_.push_back(Minterm{mask, bits & mask});
    g.support_ |= mask;
  }
  return g;
}

namespace {

// Recursive descent over a character stream:  or := and ('|' and)*,
// and := not ('&' not)*, not := '!'* atom, atom := '(' or ')' | ident | 0|1.
// `&&`/`||` collapse to their single-character forms in the lexer. Without
// a variable space (syntax check only) every identifier reads as true.
class ExprParser {
 public:
  ExprParser(const std::string& text, const VarSpace* vars)
      : text_(text), vars_(vars) {}

  BoolExpr parse() {
    BoolExpr e = parse_or();
    skip_ws();
    if (pos_ != text_.size())
      throw ExprParseError{"trailing input in expression at '" +
                           text_.substr(pos_) + "'"};
    return e;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t'))
      ++pos_;
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      // Collapse the doubled forms && and ||.
      if ((c == '&' || c == '|') && pos_ < text_.size() && text_[pos_] == c)
        ++pos_;
      return true;
    }
    return false;
  }

  BoolExpr parse_or() {
    BoolExpr e = parse_and();
    while (eat('|')) e = e || parse_and();
    return e;
  }

  BoolExpr parse_and() {
    BoolExpr e = parse_not();
    while (eat('&')) e = e && parse_not();
    return e;
  }

  BoolExpr parse_not() {
    if (eat('!')) return !parse_not();
    return parse_atom();
  }

  BoolExpr parse_atom() {
    skip_ws();
    if (pos_ >= text_.size())
      throw ExprParseError{"expression ended unexpectedly"};
    if (eat('(')) {
      BoolExpr e = parse_or();
      if (!eat(')')) throw ExprParseError{"missing ')' in expression"};
      return e;
    }
    skip_ws();
    if (pos_ >= text_.size())
      throw ExprParseError{"expression ended unexpectedly"};
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool ident = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9') || c == '_';
      if (!ident) break;
      ++pos_;
    }
    if (pos_ == start)
      throw ExprParseError{std::string("unexpected character '") +
                           text_[pos_] + "' in expression"};
    const std::string name = text_.substr(start, pos_ - start);
    if (name == "0") return BoolExpr::constant(false);
    if (name == "1" || vars_ == nullptr) return BoolExpr::constant(true);
    if (auto id = vars_->find(name)) return BoolExpr::var(*id);
    throw ExprParseError{"unknown variable '" + name +
                         "' for this protocol"};
  }

  const std::string& text_;
  const VarSpace* vars_;
  std::size_t pos_ = 0;
};

}  // namespace

BoolExpr parse_bool_expr(const std::string& text, const VarSpace& vars) {
  return ExprParser(text, &vars).parse();
}

void check_bool_expr_syntax(const std::string& text) {
  ExprParser(text, nullptr).parse();
}

CountPredicate CountPredicate::parse(const std::vector<std::string>& tokens,
                                     std::size_t from) {
  using C = Cmp;
  static constexpr std::pair<std::string_view, Cmp> kCmps[] = {
      {"<", C::kLt},  {"<=", C::kLe}, {"==", C::kEq},
      {"!=", C::kNe}, {">=", C::kGe}, {">", C::kGt}};
  CountPredicate p;
  std::size_t expr_end = tokens.size();
  if (expr_end >= from + 2) {
    const std::string& op = tokens[expr_end - 2];
    const auto hit = std::find_if(std::begin(kCmps), std::end(kCmps),
                                  [&](const auto& c) { return op == c.first; });
    if (hit != std::end(kCmps)) {
      p.cmp = hit->second;
      const std::string& rhs = tokens.back();
      if (rhs == "all")
        p.all = true;
      else if (const auto count = parse_u64(rhs))
        p.count = *count;
      else
        throw ExprParseError{"bad predicate count '" + rhs + "'"};
      expr_end -= 2;
    }
  }
  if (expr_end <= from) throw ExprParseError{"predicate needs an expression"};
  p.expr = join_tokens(tokens, from, expr_end);
  return p;
}

bool CountPredicate::holds(std::uint64_t matching,
                           std::uint64_t active_n) const {
  const std::uint64_t rhs = all ? active_n : count;
  switch (cmp) {
    case Cmp::kLt: return matching < rhs;
    case Cmp::kLe: return matching <= rhs;
    case Cmp::kEq: return matching == rhs;
    case Cmp::kNe: return matching != rhs;
    case Cmp::kGe: return matching >= rhs;
    case Cmp::kGt: return matching > rhs;
  }
  return false;
}

}  // namespace popproto
