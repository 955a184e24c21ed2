#include "lang/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/pair_sampler.hpp"

namespace popproto {

namespace {

/// A primitive operation reachable in the code, together with the chain of
/// enclosing `if exists` conditions. In the compiled protocol the branch
/// bodies are gated on the Z_# flags (Fig. 2), which can only ever be set
/// while their condition holds somewhere (Def. 2.1) — so the chaos phase
/// may fire a nested operation only while its conditions currently exist.
struct ChaosOp {
  const Stmt* assign = nullptr;  // kAssign ops
  const Rule* rule = nullptr;    // rules of kExecuteRuleset ops
  std::vector<Guard> conditions;
};

void collect_ops(const std::vector<Stmt>& body, std::vector<Guard>& conds,
                 std::vector<ChaosOp>& out) {
  for (const auto& s : body) {
    switch (s.kind) {
      case StmtKind::kExecuteRuleset:
        for (const auto& r : s.rules)
          out.push_back(ChaosOp{nullptr, &r, conds});
        break;
      case StmtKind::kAssign:
        out.push_back(ChaosOp{&s, nullptr, conds});
        break;
      case StmtKind::kIfExists: {
        conds.emplace_back(s.condition);
        collect_ops(s.then_branch, conds, out);
        conds.pop_back();
        conds.emplace_back(!s.condition);
        collect_ops(s.else_branch, conds, out);
        conds.pop_back();
        break;
      }
      case StmtKind::kRepeatLog:
        collect_ops(s.body, conds, out);
        break;
    }
  }
}

/// Species table of per-agent states, `extra` OR-ed into each.
std::vector<std::pair<State, std::uint64_t>> collapse(
    const std::vector<State>& states, State extra) {
  std::map<State, std::uint64_t> counts;
  for (const State s : states) ++counts[s | extra];
  return {counts.begin(), counts.end()};
}

}  // namespace

Protocol statement_protocol(const Program& program, std::vector<Rule> rules) {
  Protocol p(program.name, program.vars);
  if (!rules.empty()) p.add_thread("execute", std::move(rules));
  for (const ProgramThread* t : program.background_threads())
    p.add_thread(t->name, t->background_rules);
  return p;
}

FrameworkRuntime::FrameworkRuntime(const Program& program, std::size_t n,
                                   RuntimeOptions opts)
    : FrameworkRuntime(program, Species{{program.initial_state(), n}},
                       opts) {}

FrameworkRuntime::FrameworkRuntime(const Program& program,
                                   const std::vector<State>& inputs,
                                   RuntimeOptions opts)
    : FrameworkRuntime(program, collapse(inputs, program.initial_state()),
                       opts) {}

FrameworkRuntime::FrameworkRuntime(const Program& program,
                                   const Species& initial, RuntimeOptions opts)
    : program_(program), opts_(opts), rng_(opts.seed) {
  add_engine(statement_protocol(program_, {}), initial);
  add_statement_engines(program_.main_thread().body, initial);
  exec_rounds_ =
      opts_.c * std::log(static_cast<double>(backend().active_n()));
  repeat_count_ = static_cast<std::size_t>(std::ceil(exec_rounds_));
}

std::size_t FrameworkRuntime::add_engine(Protocol protocol,
                                         const Species& initial) {
  protocols_.push_back(std::make_unique<Protocol>(std::move(protocol)));
  engines_.push_back(
      std::make_unique<CountEngine>(*protocols_.back(), initial, rng_()));
  return engines_.size() - 1;
}

void FrameworkRuntime::add_statement_engines(const std::vector<Stmt>& body,
                                             const Species& initial) {
  for (const auto& s : body) {
    if (s.kind == StmtKind::kExecuteRuleset) {
      engine_of_[&s] =
          s.rules.empty()
              ? 0
              : add_engine(statement_protocol(program_, s.rules), initial);
    }
    add_statement_engines(s.then_branch, initial);  // empty unless if/else
    add_statement_engines(s.else_branch, initial);
    add_statement_engines(s.body, initial);  // empty unless repeat
  }
}

void FrameworkRuntime::run_engine(std::size_t e, double rounds_to_run) {
  rounds_ += rounds_to_run;
  if (protocols_[e]->num_rules() == 0) return;  // nothing can change
  if (e != live_) {
    engines_[e]->reset_population(engines_[live_]->species());
    live_ = e;
  }
  engines_[e]->run_rounds(rounds_to_run);
}

bool FrameworkRuntime::epidemic_reaches(std::uint64_t sources) {
  // Fig. 2 lowering: unset all Z flags, then run the epidemic with source
  // set {agents satisfying the condition} for c ln n rounds. The flags stay
  // empty iff none of the m = ⌊c ln n · n⌋ interactions has a source as
  // initiator, which happens with probability (1 - k/n)^m.
  const auto n = static_cast<double>(backend().active_n());
  const double m = std::floor(exec_rounds_ * n);
  if (sources == 0 || m == 0.0) return false;
  return !rng_.chance(
      std::exp(m * std::log1p(-static_cast<double>(sources) / n)));
}

void FrameworkRuntime::apply_assign(const Stmt& stmt, bool good) {
  const Guard guard(stmt.source);
  const State bit = var_bit(stmt.target);
  Species next;
  for (const auto& [s, c] : engines_[live_]->species()) {
    // A bad iteration's partial assignment skips each agent with
    // probability 1/2.
    const std::uint64_t hit = good ? c : sample_binomial(rng_, c, 0.5);
    const std::uint64_t on = stmt.coin ? sample_binomial(rng_, hit, 0.5)
                             : guard.matches(s) ? hit
                                                : 0;
    next.emplace_back(s | bit, on);
    next.emplace_back(s & ~bit, hit - on);
    next.emplace_back(s, c - hit);
  }
  engines_[live_]->reset_population(next);
}

void FrameworkRuntime::run_stmt(const Stmt& stmt, bool good) {
  switch (stmt.kind) {
    case StmtKind::kExecuteRuleset:
      run_engine(engine_of_.at(&stmt),
                 good ? exec_rounds_ : rng_.uniform() * exec_rounds_);
      break;
    case StmtKind::kAssign:
      apply_assign(stmt, good);
      run_engine(0, 2.0 * exec_rounds_);  // the Fig. 1 two-phase charge
      break;
    case StmtKind::kIfExists: {
      run_engine(0, 2.0 * exec_rounds_);  // Z reset + epidemic charge
      const std::uint64_t k = backend().count_matching(stmt.condition);
      bool take_then;
      if (good) {
        take_then = opts_.epidemic_if_exists ? epidemic_reaches(k) : k > 0;
      } else {
        // Adversarial evaluation: stale Z flags may exist only while the
        // condition holds somewhere (Def. 2.1's second constraint), so a
        // currently-false condition forces the else branch; a true one may
        // resolve either way.
        take_then = k > 0 && rng_.coin();
      }
      run_block(take_then ? stmt.then_branch : stmt.else_branch, good);
      break;
    }
    case StmtKind::kRepeatLog: {
      const std::size_t count =
          good ? repeat_count_
               : static_cast<std::size_t>(rng_.below(repeat_count_ + 1));
      for (std::size_t i = 0; i < count; ++i) run_block(stmt.body, good);
      break;
    }
  }
}

void FrameworkRuntime::run_block(const std::vector<Stmt>& body, bool good) {
  for (const auto& s : body) {
    if (!good && rng_.chance(0.25)) return;  // adversarial early abort
    run_stmt(s, good);
  }
}

void FrameworkRuntime::run_startup_chaos() {
  // Uncontrolled pre-phase: all rules fire in no particular order and
  // assignments hit arbitrary subsets of agents (§3), except that
  // operations nested in `if exists` branches stay disabled while their
  // conditions are absent (Def. 2.1 via the Z_# gating).
  std::vector<ChaosOp> pool;
  std::vector<Guard> conds;
  collect_ops(program_.main_thread().body, conds, pool);
  for (const auto* bt : program_.background_threads())
    for (const auto& r : bt->background_rules)
      pool.push_back(ChaosOp{nullptr, &r, {}});
  std::vector<State> agents;
  for (const auto& [s, c] : backend().species())
    agents.insert(agents.end(), c, s);
  const auto exists = [&](const Guard& g) {
    return std::any_of(agents.begin(), agents.end(),
                       [&](State s) { return g.matches(s); });
  };
  const auto interactions = static_cast<std::uint64_t>(
      opts_.startup_chaos_rounds * static_cast<double>(agents.size()));
  rounds_ += opts_.startup_chaos_rounds;
  for (std::uint64_t i = 0; i < interactions && !pool.empty(); ++i) {
    const auto [a, b] = rng_.distinct_pair(agents.size());
    const ChaosOp& op = pool[rng_.below(pool.size())];
    if (!std::all_of(op.conditions.begin(), op.conditions.end(), exists))
      continue;
    if (op.assign != nullptr) {
      const Guard guard(op.assign->source);
      const State s = agents[a];
      const bool value = op.assign->coin ? rng_.coin() : guard.matches(s);
      agents[a] = value ? (s | var_bit(op.assign->target))
                        : (s & ~var_bit(op.assign->target));
    } else {
      const Rule& rule = *op.rule;
      const State sa = agents[a];
      const State sb = agents[b];
      if (!rule.matches(sa, sb)) continue;
      const auto [na, nb] = rule.apply(sa, sb, rng_);
      agents[a] = na;
      agents[b] = nb;
    }
  }
  engines_[live_]->reset_population(collapse(agents, 0));
}

void FrameworkRuntime::run_iteration() {
  if (!chaos_done_) {
    chaos_done_ = true;
    if (opts_.startup_chaos_rounds > 0.0) run_startup_chaos();
  }
  const bool good = !rng_.chance(opts_.bad_iteration_rate);
  run_block(program_.main_thread().body, good);
  ++iterations_;
}

std::optional<double> FrameworkRuntime::run_until(
    const SimBackend::Predicate& predicate, std::size_t max_iterations) {
  if (predicate(backend())) return rounds();
  while (iterations_ < max_iterations) {
    run_iteration();
    if (predicate(backend())) return rounds();
  }
  return std::nullopt;
}

}  // namespace popproto
