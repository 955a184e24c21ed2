// Conformance slice (ROADMAP item 5(a)) for the three pair-kernel protocols
// and for the statement protocols FrameworkRuntime runs an `execute` on:
// the validated oscillator P_o and base clock C_o, the junta election of
// Prop 5.4, Majority's cancel and duplicate rulesets, and a ruleset
// composed with derandomize's
// FilteredCoin background thread run on every backend and are compared
// against the agent Engine reference. The five registry protocols join on
// the batch backend. Each backend gives one hitting-time sample
// (two-sample KS) and one final-configuration category (two-sample
// chi-square) per seed. The family is Holm-corrected at alpha = 0.01: Holm
// rejects nothing exactly when every test passes at alpha / (family size),
// which is what these cases assert.
//
// The reference is Engine with the sequential scheduler for the agent,
// count and count_shard backends, and Engine with the random-matching
// scheduler for batch on one thread, whose rounds are exact uniform
// matchings too. The agent backend under test runs with its cache off, so
// the uncached kernel walks are what it checks. Registered under the ctest
// label `conformance`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clocks/oscillator.hpp"
#include "clocks/phase_clock.hpp"
#include "clocks/x_control.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/engine.hpp"
#include "lang/derandomize.hpp"
#include "lang/runtime.hpp"
#include "protocols/majority.hpp"
#include "server/protocol_registry.hpp"
#include "support/stats.hpp"

namespace popproto {
namespace {

constexpr double kAlpha = 0.01;
// (6 protocols x 4 backends + 5 registry protocols on batch) x (KS +
// chi-square).
constexpr double kFamily = 58.0;
constexpr int kSeeds = 100;

using Counts = std::vector<std::pair<State, std::uint64_t>>;

std::vector<State> agents_of(const Counts& counts) {
  std::vector<State> out;
  for (const auto& [s, c] : counts) out.insert(out.end(), c, s);
  return out;
}

// One backend under test and its reference scheduler.
struct Backend {
  std::string name;
  SchedulerKind reference;
  std::function<std::unique_ptr<SimBackend>(const Protocol&, const Counts&,
                                            std::uint64_t)>
      make;
};

std::vector<Backend> backends() {
  return {
      {"agent", SchedulerKind::kSequential,
       [](const Protocol& p, const Counts& init, std::uint64_t seed) {
         auto e = std::make_unique<Engine>(p, agents_of(init), seed);
         e->set_transition_cache(false);
         return std::unique_ptr<SimBackend>(std::move(e));
       }},
      {"count", SchedulerKind::kSequential,
       [](const Protocol& p, const Counts& init, std::uint64_t seed) {
         return std::unique_ptr<SimBackend>(
             std::make_unique<CountEngine>(p, init, seed));
       }},
      {"batch_t1", SchedulerKind::kRandomMatching,
       [](const Protocol& p, const Counts& init, std::uint64_t seed) {
         BatchEngine::Params params;
         params.threads = 1;
         return std::unique_ptr<SimBackend>(
             std::make_unique<BatchEngine>(p, init, seed, params));
       }},
      {"count_shard_2", SchedulerKind::kSequential,
       [](const Protocol& p, const Counts& init, std::uint64_t seed) {
         CountShardEngine::Params params;
         params.shards = 2;
         auto e = std::make_unique<CountShardEngine>(p, init, seed, params);
         EXPECT_EQ(e->shards(), 2u);
         return std::unique_ptr<SimBackend>(std::move(e));
       }},
  };
}

// Per-seed observables of one run: a hitting time and a final category.
struct Sample {
  std::vector<double> hit;
  std::vector<double> category;
};

// What one protocol contributes: its start, hitting predicate and horizon,
// and the category read at `final_round`.
struct Subject {
  const Protocol* protocol;
  Counts init;
  SimBackend::Predicate hit;
  double max_rounds;
  double final_round;
  std::function<double(const SimBackend&)> category;
};

Sample run(const Subject& s,
           const std::function<std::unique_ptr<SimBackend>(std::uint64_t)>&
               make,
           std::uint64_t seed0) {
  Sample out;
  for (int t = 0; t < kSeeds; ++t) {
    const auto eng = make(seed0 + static_cast<std::uint64_t>(t));
    const auto h = eng->run_until(s.hit, s.max_rounds, 1.0);
    EXPECT_TRUE(h.has_value()) << "seed " << seed0 + t;
    out.hit.push_back(h.value_or(s.max_rounds));
    if (eng->rounds() < s.final_round)
      eng->run_rounds(s.final_round - eng->rounds());
    out.category.push_back(s.category(*eng));
  }
  return out;
}

void expect_conforms_on(const Subject& s, const Backend& b,
                      const char* what) {
  const Sample ref = run(
      s,
      [&](std::uint64_t seed) {
        return std::unique_ptr<SimBackend>(std::make_unique<Engine>(
            *s.protocol, agents_of(s.init), seed, b.reference));
      },
      1000);
  const Sample got = run(
      s,
      [&](std::uint64_t seed) { return b.make(*s.protocol, s.init, seed); },
      50000);
  const double d = ks_statistic(ref.hit, got.hit);
  EXPECT_LT(d, ks_critical_value(ref.hit.size(), got.hit.size(),
                                 kAlpha / kFamily))
      << what << " on " << b.name << ": hitting-time KS";
  std::size_t dof = 0;
  const double chi2 =
      chi_square_two_sample(ref.category, got.category, 64, &dof);
  if (dof > 0) {
    EXPECT_LT(chi2, chi_square_critical_value(dof, kAlpha / kFamily))
        << what << " on " << b.name << ": final-category chi-square";
  }
}

void expect_conforms(const Subject& s, const char* what) {
  for (const Backend& b : backends()) expect_conforms_on(s, b, what);
}

TEST(Conformance, OscillatorKernelOnEveryBackend) {
  // Hitting time: escape from the uniform start (some species below
  // n^{3/4}, Thm 5.1(i)). Final category: the dominant species 40 rounds on.
  auto vars = make_var_space();
  const Protocol proto = make_oscillator_kernel_protocol(vars);
  const std::uint64_t n = 1024;
  const double thr = std::pow(static_cast<double>(n), 0.75);
  Subject s;
  s.protocol = &proto;
  s.init = oscillator_uniform_counts(n, 4, *vars);
  s.hit = [&](const SimBackend& e) {
    const auto c = oscillator_species_counts(e, *vars);
    return static_cast<double>(std::min({c[0], c[1], c[2]})) < thr;
  };
  s.max_rounds = 2000.0;
  s.final_round = 40.0;
  s.category = [&](const SimBackend& e) {
    const auto c = oscillator_species_counts(e, *vars);
    return static_cast<double>(std::max_element(c.begin(), c.end()) -
                               c.begin());
  };
  expect_conforms(s, "oscillator kernel");
}

TEST(Conformance, ClockKernelOnEveryBackend) {
  // Hitting time: the first round at which half the population has left
  // digit 0 (the first population-wide tick). Final category: the most
  // populated composite phase at round 30.
  auto vars = make_var_space();
  const ClockLevelParams prm;
  const Protocol proto = make_clock_kernel_protocol(vars, prm);
  const ClockCodec codec(*vars, prm);
  const std::uint64_t n = 512;
  Subject s;
  s.protocol = &proto;
  for (const State st : clock_kernel_initial_states(n, 4, codec)) {
    const auto it = std::find_if(s.init.begin(), s.init.end(),
                                 [&](const auto& e) { return e.first == st; });
    if (it == s.init.end()) {
      s.init.emplace_back(st, 1);
    } else {
      ++it->second;
    }
  }
  s.hit = [&](const SimBackend& e) {
    return clock_census(e, codec).digits[0] * 2 <= n;
  };
  s.max_rounds = 2000.0;
  s.final_round = 30.0;
  s.category = [&](const SimBackend& e) {
    const auto c = clock_census(e, codec).composite;
    return static_cast<double>(std::max_element(c.begin(), c.end()) -
                               c.begin());
  };
  expect_conforms(s, "clock kernel");
}

TEST(Conformance, JuntaKernelOnEveryBackend) {
  // Hitting time: #X < n^{1/2} (Prop 5.4). Final category: the highest
  // level present at round 40.
  auto vars = make_var_space();
  const Protocol proto = make_junta_protocol(vars);
  const VarId x = vars->at(kXVar);
  const std::uint64_t n = 1024;
  const double thr = std::sqrt(static_cast<double>(n));
  Subject s;
  s.protocol = &proto;
  s.init = x_counts(n, n, *vars);
  s.hit = [&](const SimBackend& e) {
    return static_cast<double>(e.count_matching(BoolExpr::var(x))) < thr;
  };
  s.max_rounds = 2000.0;
  s.final_round = 40.0;
  s.category = [&](const SimBackend& e) {
    int top = 0;
    for (const auto& [st, c] : e.species())
      top = std::max(top, junta_level(st, *vars));
    return static_cast<double>(top);
  };
  expect_conforms(s, "junta kernel");
}

// Majority's working copies: `a` A* marks, `b` B* marks and the rest
// blank, each agent also carrying `base`.
Counts working_copies(const VarSpace& vars, std::uint64_t n, std::uint64_t a,
                      std::uint64_t b, State base) {
  return {{base | var_bit(*vars.find("MAJ_As")), a},
          {base | var_bit(*vars.find("MAJ_Bs")), b},
          {base, n - a - b}};
}

std::uint64_t count_var(const SimBackend& e, const VarSpace& vars,
                        const char* name) {
  return e.count_matching(BoolExpr::var(*vars.find(name)));
}

TEST(Conformance, MajorityCancelStatementOnEveryBackend) {
  // Hitting time: the minority's working copies are gone. Final category:
  // how many of them are left at round 5.
  auto vars = make_var_space();
  const Program program = make_majority_program(vars);
  const Protocol proto = statement_protocol(
      program, majority_cancel_rules(*vars->find("MAJ_As"),
                                     *vars->find("MAJ_Bs")));
  Subject s;
  s.protocol = &proto;
  s.init = working_copies(*vars, 512, 150, 120, 0);
  s.hit = [&](const SimBackend& e) {
    return count_var(e, *vars, "MAJ_Bs") == 0;
  };
  s.max_rounds = 2000.0;
  s.final_round = 5.0;
  s.category = [&](const SimBackend& e) {
    return static_cast<double>(count_var(e, *vars, "MAJ_Bs"));
  };
  expect_conforms(s, "majority cancel statement");
}

TEST(Conformance, MajorityDuplicateStatementOnEveryBackend) {
  // Hitting time: every working copy has recruited its blank. Final
  // category: how many copies are still unrecruited at round 3.
  auto vars = make_var_space();
  const Program program = make_majority_program(vars);
  const VarId as = *vars->find("MAJ_As");
  const VarId bs = *vars->find("MAJ_Bs");
  const VarId k = *vars->find("MAJ_K");
  const Protocol proto =
      statement_protocol(program, majority_duplicate_rules(as, bs, k));
  const BoolExpr unrecruited =
      (BoolExpr::var(as) || BoolExpr::var(bs)) && !BoolExpr::var(k);
  Subject s;
  s.protocol = &proto;
  s.init = working_copies(*vars, 512, 40, 30, 0);
  s.hit = [&](const SimBackend& e) {
    return e.count_matching(unrecruited) == 0;
  };
  s.max_rounds = 2000.0;
  s.final_round = 3.0;
  s.category = [&](const SimBackend& e) {
    return static_cast<double>(e.count_matching(unrecruited));
  };
  expect_conforms(s, "majority duplicate statement");
}

TEST(Conformance, StatementWithFilteredCoinOnEveryBackend) {
  // Majority's cancel ruleset beside the FilteredCoin thread that
  // derandomize() appends for a coin assignment: each interaction picks
  // one of the two threads. Hitting time: the minority's copies are gone.
  // Final category: the synthetic coin's size at round 20.
  auto vars = make_var_space();
  Program program = make_majority_program(vars);
  const VarId as = *vars->find("MAJ_As");
  const VarId bs = *vars->find("MAJ_Bs");
  program.threads[0].body.insert(program.threads[0].body.begin(),
                                 assign_coin(*vars->find("MAJ_K")));
  const DerandomizedProgram d = derandomize(program);
  ASSERT_EQ(d.coins_replaced, 1);
  const Protocol proto =
      statement_protocol(d.program, majority_cancel_rules(as, bs));
  ASSERT_EQ(proto.threads().size(), 2u);
  Subject s;
  s.protocol = &proto;
  s.init = working_copies(*vars, 512, 150, 120, d.program.initial_state());
  s.hit = [&](const SimBackend& e) {
    return count_var(e, *vars, "MAJ_Bs") == 0;
  };
  s.max_rounds = 2000.0;
  s.final_round = 20.0;
  s.category = [&](const SimBackend& e) {
    return static_cast<double>(
        e.count_matching(BoolExpr::var(d.coin_var)));
  };
  expect_conforms(s, "statement with FilteredCoin");
}

// -- The registry protocols on batch ------------------------------------------
// Each registry protocol from its registry start at n <= 1024, on batch
// with one shard against Engine(kRandomMatching).

/// A registry subject: the instance, whose protocol the subject points
/// into, with its start table.
struct RegistrySubject {
  std::unique_ptr<ProtocolInstance> inst;
  Subject subject;

  RegistrySubject(const char* name, std::uint64_t n)
      : inst(make_protocol_instance(name, n)) {
    subject.protocol = inst->protocol.get();
    subject.init = inst->initial_counts;
    subject.max_rounds = 2000.0;
  }
  std::uint64_t count(const SimBackend& e, const char* expr) const {
    return e.count_matching(parse_bool_expr(expr, *inst->vars));
  }
};

void expect_conforms_on_batch(const Subject& s, const char* what) {
  for (const Backend& b : backends())
    if (b.name == "batch_t1") expect_conforms_on(s, b, what);
}

TEST(Conformance, RegistryApproxMajorityOnBatch) {
  // Hitting time: B opinions fall to n/8. Final category: B opinions left
  // at round 60.
  RegistrySubject r("approx_majority", 1024);
  r.subject.hit = [&](const SimBackend& e) {
    return r.count(e, "BB") * 8 <= e.active_n();
  };
  r.subject.final_round = 60.0;
  r.subject.category = [&](const SimBackend& e) {
    return static_cast<double>(r.count(e, "BB"));
  };
  expect_conforms_on_batch(r.subject, "approx_majority");
}

TEST(Conformance, RegistryDv12MajorityOnBatch) {
  // Hitting time: B opinions fall to n/8. Final category: B opinions left
  // at round 150.
  RegistrySubject r("dv12_majority", 1024);
  r.subject.hit = [&](const SimBackend& e) {
    return r.count(e, "MB") * 8 <= e.active_n();
  };
  r.subject.final_round = 150.0;
  r.subject.category = [&](const SimBackend& e) {
    return static_cast<double>(r.count(e, "MB"));
  };
  expect_conforms_on_batch(r.subject, "dv12_majority");
}

TEST(Conformance, RegistryFratricideOnBatch) {
  // Hitting time: leaders fall to 8. Final category: leaders left at round
  // 160.
  RegistrySubject r("fratricide", 256);
  r.subject.hit = [&](const SimBackend& e) { return r.count(e, "L") <= 8; };
  r.subject.final_round = 160.0;
  r.subject.category = [&](const SimBackend& e) {
    return static_cast<double>(r.count(e, "L"));
  };
  expect_conforms_on_batch(r.subject, "fratricide");
}

TEST(Conformance, RegistryPhaseClockOnBatch) {
  // Hitting time: a sixteenth of the population holds a certificate streak.
  // Final category: streak holders at round 150.
  RegistrySubject r("phase_clock", 512);
  r.subject.hit = [&](const SimBackend& e) {
    return r.count(e, "PC_K0 | PC_K1") * 16 >= e.active_n();
  };
  r.subject.final_round = 150.0;
  r.subject.category = [&](const SimBackend& e) {
    return static_cast<double>(r.count(e, "PC_K0 | PC_K1"));
  };
  expect_conforms_on_batch(r.subject, "phase_clock");
}

TEST(Conformance, RegistrySyntheticCoinOnBatch) {
  // Hitting time: the coin count strays 24 from n/2. Final category: the
  // coin count at round 200.
  RegistrySubject r("synthetic_coin", 1024);
  r.subject.hit = [&](const SimBackend& e) {
    const auto c = static_cast<double>(r.count(e, "COIN"));
    return std::abs(c - 512.0) >= 24.0;
  };
  r.subject.final_round = 200.0;
  r.subject.category = [&](const SimBackend& e) {
    return static_cast<double>(r.count(e, "COIN"));
  };
  expect_conforms_on_batch(r.subject, "synthetic_coin");
}

}  // namespace
}  // namespace popproto
