// Framework runtime: the reference execution semantics promised by
// Theorem 2.4 (paper §2.2-§2.3).
//
// The compiled protocol guarantees that, after an initialization phase,
// Ω(log n) consecutive iterations of the main thread's outer loop are
// *good* (Def. 2.3): all agents execute the same statement, every
// `execute`/`repeat >= c ln n` runs for at least its prescribed duration
// under a fair uniform scheduler (with background threads composed in), and
// assignments / existence tests reach their expected outcome. This runtime
// executes programs directly under those semantics, on species counts: each
// `execute` runs its statement_protocol on a CountEngine, the charges of
// `:=` and `if exists` run the background threads alone, `:=` relabels
// species (binomial splits for coins and partial assignments) and
// `if exists` counts matching agents.
//
// Fidelity knobs:
//  * bad_iteration_rate injects adversarial (synchronization-free)
//    iterations that still respect the guaranteed-behaviour constraints of
//    Def. 2.1 — partial ruleset execution, per-agent partial assignments,
//    early abort — used to test the always-correct protocols;
//  * startup_chaos_rounds runs the uncontrolled pre-phase (§3: "the provided
//    rulesets will be executed in no particular order"), exercising
//    constraint (1) of the safe-use discipline, once, on per-agent states;
//  * epidemic_if_exists decides `if exists` by the exact outcome of the
//    Z-flag epidemic (the Fig. 2 lowering) instead of a global scan.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "core/count_engine.hpp"
#include "lang/ast.hpp"

namespace popproto {

struct RuntimeOptions {
  /// The loop constant c: rulesets run for c*ln(n) rounds and repeat-log
  /// loops run ceil(c*ln(n)) times.
  double c = 3.0;
  double bad_iteration_rate = 0.0;
  double startup_chaos_rounds = 0.0;
  bool epidemic_if_exists = false;
  std::uint64_t seed = 1;
};

/// What an `execute` of `rules` runs: `rules` as one thread beside the
/// program's background threads (§2.2), or those alone if `rules` is empty.
Protocol statement_protocol(const Program& program, std::vector<Rule> rules);

class FrameworkRuntime {
 public:
  /// All agents start in the program's initializer state.
  FrameworkRuntime(const Program& program, std::size_t n, RuntimeOptions opts);
  /// Custom initial states (inputs): initializers are OR-ed on top.
  FrameworkRuntime(const Program& program, const std::vector<State>& inputs,
                   RuntimeOptions opts);

  /// Execute one iteration of the main thread's outer loop (good with
  /// probability 1 - bad_iteration_rate).
  void run_iteration();

  /// Run until predicate(backend()) holds at an iteration boundary.
  /// Returns the parallel time, or nullopt after max_iterations.
  std::optional<double> run_until(const SimBackend::Predicate& predicate,
                                  std::size_t max_iterations);

  std::size_t iterations() const { return iterations_; }
  /// Parallel time consumed so far (rounds), counting the charges of every
  /// primitive per the compilation scheme: c ln n rounds per ruleset
  /// execution, 2 c ln n per assignment, 2 c ln n per existence test.
  double rounds() const { return rounds_; }

  /// The engine holding the configuration; its own rounds() counts only
  /// the time run on it. Agents crashed on it stay there when the next
  /// statement moves the species to another engine.
  const SimBackend& backend() const { return *engines_[live_]; }
  SimBackend& backend() { return *engines_[live_]; }

 private:
  using Species = std::vector<std::pair<State, std::uint64_t>>;

  FrameworkRuntime(const Program& program, const Species& initial,
                   RuntimeOptions opts);
  std::size_t add_engine(Protocol protocol, const Species& initial);
  void add_statement_engines(const std::vector<Stmt>& body,
                             const Species& initial);
  /// Charge `rounds` and run engine `e` for them, moving the species to it.
  void run_engine(std::size_t e, double rounds);
  void run_block(const std::vector<Stmt>& body, bool good);
  void run_stmt(const Stmt& stmt, bool good);
  void apply_assign(const Stmt& stmt, bool good);
  bool epidemic_reaches(std::uint64_t sources);
  void run_startup_chaos();

  const Program& program_;
  RuntimeOptions opts_;
  Rng rng_;
  double exec_rounds_;        // c * ln n
  std::size_t repeat_count_;  // ceil(c * ln n)
  // Engine 0 runs the background threads alone; the others run the
  // `execute` statements of engine_of_, each built once.
  std::vector<std::unique_ptr<Protocol>> protocols_;
  std::vector<std::unique_ptr<CountEngine>> engines_;
  std::unordered_map<const Stmt*, std::size_t> engine_of_;
  std::size_t live_ = 0;
  std::size_t iterations_ = 0;
  double rounds_ = 0.0;
  bool chaos_done_ = false;
};

}  // namespace popproto
