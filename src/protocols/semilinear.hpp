// Semi-linear predicate computation (paper §6.3, Theorem 6.4).
//
// A semi-linear predicate is a boolean combination of threshold predicates
// (Σ cᵢ·#Aᵢ >= t) and modulo predicates (Σ cᵢ·#Aᵢ ≡ r mod m) over the input
// class counts [AAD+06]. Three building blocks:
//
//  * Slow blackbox — the classic stable computation: each base predicate
//    runs value-merging agents (clamped addition for thresholds, exact
//    mod-m addition onto a shrinking active set for remainders), with
//    outputs spread from active to passive agents. Always stabilizes to the
//    correct answer, in polynomial time. Built as ordinary bitmask rulesets
//    (values are bit-encoded, rules enumerated over value pairs).
//  * Fast blackbox — for *comparison-form* thresholds (t = 0, i.e.
//    Σ over positive-coefficient classes vs Σ over negative ones): the
//    cancel/duplicate dynamic of Majority generalized to signed unit
//    tokens, with a shedding pre-phase unfolding |cᵢ| > 1 multiplicities
//    onto blank agents. Converges w.h.p. in O(log^3 n) rounds. (The paper
//    uses the [AAE08b] leader-driven register machine as its fast blackbox;
//    this leaderless substitution is documented in DESIGN.md §3.2 — modulo
//    predicates have no fast path here and ride the slow blackbox.)
//  * SemilinearPredicateExact — the always-correct combiner: the Main
//    thread repeatedly recomputes the fast result P* and copies it into the
//    output P, but each write is guarded by existence tests on the slow
//    blackbox's output states (P0/P1): once the slow protocol has
//    stabilized, writes of the wrong value are permanently disabled, so the
//    output is eventually correct with certainty (Thm 6.4).
#pragma once

#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/sim_backend.hpp"
#include "lang/ast.hpp"

namespace popproto {

/// Specification of a semi-linear predicate over k input classes.
struct PredicateSpec {
  enum class Kind { kThreshold, kMod, kAnd, kOr, kNot };
  Kind kind = Kind::kThreshold;
  std::vector<int> coeffs;  // kThreshold / kMod: one per input class
  int rhs = 0;              // kThreshold: form(x) >= rhs
  int modulus = 0;          // kMod
  int remainder = 0;        // kMod: form(x) ≡ remainder (mod modulus)
  std::vector<PredicateSpec> children;  // kAnd / kOr / kNot

  /// Ground truth on concrete input counts.
  bool eval(const std::vector<std::uint64_t>& input_counts) const;
  std::size_t num_inputs() const;
  /// True when the spec is a single comparison-form threshold (rhs == 0),
  /// i.e. the fast blackbox applies.
  bool fast_path_available() const {
    return kind == Kind::kThreshold && rhs == 0;
  }
};

PredicateSpec threshold_ge(std::vector<int> coeffs, int rhs);
PredicateSpec mod_eq(std::vector<int> coeffs, int modulus, int remainder);
PredicateSpec p_and(PredicateSpec a, PredicateSpec b);
PredicateSpec p_or(PredicateSpec a, PredicateSpec b);
PredicateSpec p_not(PredicateSpec a);

/// Input variable name of class i (0-based): "IN0", "IN1", ...
std::string semilinear_input_var(int input_class);

/// A runnable semilinear protocol: the program plus the value-register
/// seeding that turns pure input flags into the blackbox's initial
/// configuration (the paper encodes inputs directly as starting states; we
/// keep the flag/seed split so one input layout serves every variant).
struct SemilinearProtocol {
  Program program;
  std::vector<std::pair<Guard, Update>> seeding;
  /// Per-agent expression reading the slow blackbox's current output (the
  /// paper's P1; P0 is its negation).
  BoolExpr slow_output = BoolExpr::any();
  /// Initial states: counts[i] agents of input class i, rest blank, with
  /// the seeding applied.
  std::vector<State> inputs(std::size_t n,
                            const std::vector<std::size_t>& counts) const;
};

/// Slow blackbox only (stable computation, poly-time stabilization).
SemilinearProtocol make_slow_semilinear_protocol(VarSpacePtr vars,
                                                 const PredicateSpec& spec);

/// The always-correct combined protocol (Thm 6.4): fast thread (when the
/// spec admits one) + slow blackbox + guarded output writes.
SemilinearProtocol make_semilinear_exact_protocol(VarSpacePtr vars,
                                                  const PredicateSpec& spec);

inline constexpr const char* kSemilinearOutput = "SL_P";

/// True when every agent's SL_P equals `value`.
bool semilinear_output_is(const SimBackend& backend, const VarSpace& vars,
                          bool value);

}  // namespace popproto
