// Boolean formulas over state variables (the Σ's of rule bit-masks, §1.3).
//
// Formulas appear in three roles:
//  * interaction guards Σ1, Σ2 — arbitrary boolean formulas;
//  * rule right-hand sides Σ3, Σ4 — must be conjunctions of literals so that
//    the "minimal update" semantics of the paper is well defined;
//  * `if exists (Σ)` conditions and assignment sources in the language.
//
// Guards are compiled once into a small DNF (mask, bits) minterm list, so
// matching an interaction is a handful of AND/CMP ops.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/state.hpp"

namespace popproto {

/// Immutable boolean expression tree; cheap to copy (shared nodes).
class BoolExpr {
 public:
  /// The empty formula "(.)" matching any agent.
  static BoolExpr any();
  static BoolExpr constant(bool value);
  static BoolExpr var(VarId v);

  BoolExpr operator!() const;
  BoolExpr operator&&(const BoolExpr& rhs) const;
  BoolExpr operator||(const BoolExpr& rhs) const;

  bool eval(State s) const;

  /// Bitmask of variables the formula mentions.
  State support() const;

  /// If the formula is a conjunction of literals (or a constant), return the
  /// (set_mask, clear_mask) pair it pins; nullopt otherwise or when
  /// contradictory.
  struct LiteralConjunction {
    State set_mask = 0;
    State clear_mask = 0;
  };
  std::optional<LiteralConjunction> as_literal_conjunction() const;

  std::string to_string(const VarSpace& vars) const;

  bool is_const_true() const;
  bool is_const_false() const;

 private:
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;
  explicit BoolExpr(NodePtr n) : node_(std::move(n)) {}
  NodePtr node_;
  friend class Guard;
};

/// Thrown by parse_bool_expr on malformed input or unknown variable names.
struct ExprParseError {
  std::string message;
};

/// Parse a boolean formula over `vars` from text: `!` not, `&` and, `|` or,
/// parentheses, literals `0`/`1`, identifiers resolved against the variable
/// space; whitespace between operators is optional and the doubled forms
/// `&&`/`||` are accepted. Shared by popprotod's `run-until`/`observe`
/// grammar (server/command.cpp) and popsweep's `until` spec key
/// (sweep/spec.cpp). Throws ExprParseError with a caller-presentable
/// message on bad input.
BoolExpr parse_bool_expr(const std::string& text, const VarSpace& vars);

/// parse_bool_expr's syntax check alone: any identifier is accepted and
/// none is looked up or interned, so no variable space is needed. Throws
/// the ExprParseError parse_bool_expr throws on malformed text. popsweep
/// checks an `until` expression with it when the spec is parsed.
void check_bool_expr_syntax(const std::string& text);

/// A convergence predicate `count_matching(expr) <cmp> <count>|all`: the
/// text form of popprotod's `run-until` and popsweep's `until` key. The
/// expression stays text, since it compiles (parse_bool_expr) only against
/// a concrete protocol's variable space, which the caller holds.
struct CountPredicate {
  enum class Cmp { kLt, kLe, kEq, kNe, kGe, kGt };

  std::string expr;
  Cmp cmp = Cmp::kGe;
  std::uint64_t count = 1;
  bool all = false;  // compare against active_n at check time, not count

  /// Parse tokens[from..] as `<expr> [<cmp> <count>|all]`, cmp one of
  /// < <= == != >= >. The trailing pair is a comparison when its first
  /// token is a comparator; without it the predicate is `>= 1`
  /// (existence). Throws ExprParseError on an empty expression or a count
  /// that is neither `all` nor a u64.
  static CountPredicate parse(const std::vector<std::string>& tokens,
                              std::size_t from);

  bool holds(std::uint64_t matching, std::uint64_t active_n) const;
};

/// Compiled guard: DNF minterm list over the formula's support.
class Guard {
 public:
  Guard();  // matches everything
  explicit Guard(const BoolExpr& expr);

  bool matches(State s) const {
    if (always_) return true;
    for (const auto& t : terms_)
      if ((s & t.mask) == t.bits) return true;
    return false;
  }

  bool always_true() const { return always_; }
  bool never_true() const { return !always_ && terms_.empty(); }
  State support() const { return support_; }
  std::size_t num_terms() const { return terms_.size(); }

  // -- Persistence surface (src/persist/, DESIGN.md §10) --------------------
  // The compiled (mask, bits) minterm list IS the matcher, so round-tripping
  // it reproduces the guard's semantics exactly without serializing the
  // source expression tree. Used to persist SchedulerBias windows inside
  // fault schedules and to fingerprint protocols.
  /// The DNF minterm list as (mask, bits) pairs (empty for an always-true
  /// guard — check always_true() first).
  std::vector<std::pair<State, State>> minterms() const;
  /// Rebuild a guard directly from a minterm list (no re-compilation).
  static Guard from_minterms(bool always,
                             const std::vector<std::pair<State, State>>& terms);

 private:
  struct Minterm {
    State mask = 0;
    State bits = 0;
  };
  std::vector<Minterm> terms_;
  State support_ = 0;
  bool always_ = false;
};

}  // namespace popproto
