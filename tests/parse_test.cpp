// Tests for the shared text grammars: the strict tokenizer and number
// parsers (support/parse), the count predicate (core/expr) and the
// fault-event parser (faults/fault_plan), plus a table-driven check that
// popprotod's `run-until`/`inject` and a sweep spec's `until`/`fault` keys
// accept the same language and build the same predicates and plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/expr.hpp"
#include "faults/fault_plan.hpp"
#include "server/command.hpp"
#include "support/parse.hpp"
#include "support/serialize.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace popproto {
namespace {

// -- Tokenizer and numbers ---------------------------------------------------

TEST(StrictParse, TokenizeSplitsOnSpacesAndTabs) {
  EXPECT_EQ(tokenize("  run-until\tb  10 BA  "),
            (std::vector<std::string>{"run-until", "b", "10", "BA"}));
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize(" \t ").empty());
  // Other whitespace stays inside a token, where the number parsers reject it.
  EXPECT_EQ(tokenize("a\vb\r"), (std::vector<std::string>{"a\vb\r"}));
  const std::vector<std::string> t = {"x", "BA", "&", "!BB", "y"};
  EXPECT_EQ(join_tokens(t, 1, 4), "BA & !BB");
  EXPECT_EQ(join_tokens(t, 2, 2), "");
}

TEST(StrictParse, U64AcceptsWholeDigitStringsOnly) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("+7"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad :
       {"", "+", "-1", "-0", "+-1", "++1", " 5", "5 ", "\v5", "5\r", "abc",
        "12abc", "1e3", "0x10", "18446744073709551616",
        "99999999999999999999999"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
}

TEST(StrictParse, U64Base16TakesBareHexDigits) {
  EXPECT_EQ(parse_u64("ff", 16), 255u);
  EXPECT_EQ(parse_u64("DEADbeef", 16), 0xdeadbeefu);
  EXPECT_EQ(parse_u64("ffffffffffffffff", 16),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "0xff", "-1", "g", "1ffffffffffffffff"})
    EXPECT_FALSE(parse_u64(bad, 16).has_value()) << "'" << bad << "'";
}

TEST(StrictParse, DoubleAcceptsStrtodSyntaxWithoutSlack) {
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-2"), -2.0);
  EXPECT_EQ(parse_double("+3"), 3.0);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_EQ(parse_double("0x1p+3"), 8.0);  // the manifest's hexfloats
  EXPECT_EQ(parse_double("inf"), std::numeric_limits<double>::infinity());
  for (const char* bad : {"", "nan", "-nan", " 1", "\t1", "1 ", "1.5x", "abc",
                          "1e999", "1e-400", "."})
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
  // An embedded NUL ends strtod's view early; the whole token must parse.
  EXPECT_FALSE(parse_double(std::string("1\0" "5", 3)).has_value());
}

// -- Count predicates --------------------------------------------------------

CountPredicate parse_pred(const std::string& text) {
  return CountPredicate::parse(tokenize("until " + text), 1);
}

TEST(CountPredicate, ParsesExpressionComparatorAndCount) {
  using C = CountPredicate::Cmp;
  const CountPredicate bare = parse_pred("BA");
  EXPECT_EQ(bare.expr, "BA");
  EXPECT_EQ(bare.cmp, C::kGe);
  EXPECT_EQ(bare.count, 1u);
  EXPECT_FALSE(bare.all);

  const CountPredicate all = parse_pred("BA  &\t!BB == all");
  EXPECT_EQ(all.expr, "BA & !BB");
  EXPECT_EQ(all.cmp, C::kEq);
  EXPECT_TRUE(all.all);

  const CountPredicate lt = parse_pred("BA < 12");
  EXPECT_EQ(lt.cmp, C::kLt);
  EXPECT_EQ(lt.count, 12u);
  EXPECT_FALSE(lt.all);

  // A trailing comparator with no count is expression text, rejected later
  // by parse_bool_expr rather than read as a comparison.
  const CountPredicate dangling = parse_pred("BA >=");
  EXPECT_EQ(dangling.expr, "BA >=");
  EXPECT_EQ(dangling.cmp, C::kGe);
}

TEST(CountPredicate, RejectsEmptyExpressionsAndBadCounts) {
  for (const char* bad : {"", ">= 5", "== all", "BA >= zz", "BA >= -1",
                          "BA < 18446744073709551616", "BA != 0x10"})
    EXPECT_THROW(parse_pred(bad), ExprParseError) << "'" << bad << "'";
  // `from` past the end is an empty expression too.
  EXPECT_THROW(CountPredicate::parse({"until"}, 3), ExprParseError);
}

TEST(CountPredicate, SyntaxCheckNeedsNoVariableSpace) {
  // More distinct names than a VarSpace holds (64): the check interns none,
  // so a wide expression cannot hit that cap.
  std::string wide = "V0";
  for (int i = 1; i < 100; ++i) wide += " | V" + std::to_string(i);
  EXPECT_NO_THROW(check_bool_expr_syntax(wide));
  for (const char* ok : {"BA", "NOPE", "!(BA & NOPE) | 1", "a&&b||!c", "0"})
    EXPECT_NO_THROW(check_bool_expr_syntax(ok)) << "'" << ok << "'";
  for (const char* bad :
       {"", "BA &", "BA BB", "BA >=", "(BA", "BA)", "!", "BA $ BB", "| BA"})
    EXPECT_THROW(check_bool_expr_syntax(bad), ExprParseError)
        << "'" << bad << "'";
}

TEST(CountPredicate, HoldsComparesAgainstCountOrActivePopulation) {
  using C = CountPredicate::Cmp;
  const auto holds = [](C cmp, std::uint64_t matching) {
    CountPredicate p;
    p.cmp = cmp;
    p.count = 5;
    return p.holds(matching, 100);
  };
  EXPECT_TRUE(holds(C::kLt, 4));
  EXPECT_FALSE(holds(C::kLt, 5));
  EXPECT_TRUE(holds(C::kLe, 5));
  EXPECT_FALSE(holds(C::kLe, 6));
  EXPECT_TRUE(holds(C::kEq, 5));
  EXPECT_FALSE(holds(C::kEq, 4));
  EXPECT_TRUE(holds(C::kNe, 4));
  EXPECT_FALSE(holds(C::kNe, 5));
  EXPECT_TRUE(holds(C::kGe, 5));
  EXPECT_FALSE(holds(C::kGe, 4));
  EXPECT_TRUE(holds(C::kGt, 6));
  EXPECT_FALSE(holds(C::kGt, 5));

  CountPredicate all;
  all.cmp = C::kEq;
  all.all = true;
  EXPECT_TRUE(all.holds(90, 90));
  EXPECT_FALSE(all.holds(90, 100));
}

// -- Fault lines -------------------------------------------------------------

FaultPlan parse_fault(const std::string& text) {
  FaultPlan plan;
  plan.parse_event(tokenize("fault " + text), 1);
  return plan;
}

TEST(FaultLine, BuildsEachEventKind) {
  const FaultPlan crash = parse_fault("crash 2 0.1");
  ASSERT_EQ(crash.size(), 1u);
  EXPECT_EQ(crash.events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(crash.events()[0].at_round, 2.0);
  EXPECT_EQ(crash.events()[0].crash.fraction, 0.1);

  const FaultEvent corrupt = parse_fault("corrupt 3.5 1").events().at(0);
  EXPECT_EQ(corrupt.kind, FaultKind::kCorrupt);
  EXPECT_EQ(corrupt.at_round, 3.5);
  EXPECT_EQ(corrupt.corrupt.fraction, 1.0);
  EXPECT_EQ(corrupt.corrupt.mode, CorruptMode::kFixed);
  EXPECT_EQ(corrupt.corrupt.fixed_state, State{0});
  EXPECT_EQ(corrupt.corrupt.mask, ~State{0});

  const FaultEvent all = parse_fault("rejoin 5 all").events().at(0);
  EXPECT_EQ(all.kind, FaultKind::kRejoin);
  EXPECT_TRUE(all.rejoin.all);
  const FaultEvent half = parse_fault("rejoin 5 0.5").events().at(0);
  EXPECT_FALSE(half.rejoin.all);
  EXPECT_EQ(half.rejoin.fraction, 0.5);

  const FaultEvent drop = parse_fault("dropout 3 6 0.2").events().at(0);
  EXPECT_EQ(drop.kind, FaultKind::kDropout);
  EXPECT_EQ(drop.from_round, 3.0);
  EXPECT_EQ(drop.until_round, 6.0);
  EXPECT_EQ(drop.dropout_p, 0.2);

  // Events append in order, as repeated spec `fault` lines do.
  FaultPlan plan;
  plan.parse_event({"crash", "1", "0.5"}, 0)
      .parse_event({"rejoin", "2", "all"}, 0);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kRejoin);
}

TEST(FaultLine, RejectsMalformedLinesAndLeavesThePlanUnchanged) {
  FaultPlan plan;
  plan.parse_event({"crash", "1", "0.5"}, 0);
  for (const char* bad :
       {"", "crash", "crash 2", "crash 2 0.1 0.2", "crash -1 0.1",
        "crash 2 0", "crash 2 1.5", "crash nan 0.1", "crash 2 abc",
        "rejoin 5 none", "rejoin 5 0", "dropout 6 3 0.2", "dropout 3 6 0",
        "dropout 3 6 2", "warp 1 0.5"}) {
    EXPECT_THROW(plan.parse_event(tokenize(bad), 0), FaultParseError)
        << "'" << bad << "'";
    EXPECT_EQ(plan.size(), 1u) << "'" << bad << "'";
  }
}

// -- One language on both surfaces -------------------------------------------

constexpr const char* kSpecBase =
    "protocol approx_majority\nbackend count\nn 64\nseed 1\nmax_rounds 1\n";

/// The daemon side: a CommandExecutor with one count bucket per surface
/// test, driven by request lines as a client would send them.
class Daemon {
 public:
  Daemon() : exec_(buckets_, stats_) {
    EXPECT_EQ(exec("create b count approx_majority 64 1"), "CREATED b");
  }
  std::string exec(const std::string& line) {
    std::string reply = exec_.execute(line).text;
    if (!reply.empty() && reply.back() == '\n') reply.pop_back();
    return reply;
  }
  const FaultPlan& plan() { return buckets_.find("b")->injector->plan(); }

 private:
  BucketRegistry buckets_;
  ServerStats stats_;
  CommandExecutor exec_;
};

std::string plan_bytes(const FaultPlan& plan) {
  std::string bytes;
  BinWriter w(bytes);
  serialize_fault_plan(w, plan);
  return bytes;
}

TEST(SharedGrammar, InjectAndSpecFaultLinesAgree) {
  const struct {
    const char* line;
    bool accepted;
  } kCases[] = {
      {"crash 2 0.1", true},        {"crash 0 1", true},
      {"corrupt 3.5 0.25", true},   {"corrupt 1e1 1e-1", true},
      {"crash 0x10 0.5", true},     {"crash +2 0.1", true},
      {"rejoin 5 all", true},       {"rejoin 5 0.5", true},
      {"dropout 3 6 0.2", true},    {"dropout 0 inf 1", true},
      {"", false},                  {"crash", false},
      {"crash 2", false},           {"crash 2 0.1 0.2", false},
      {"crash -1 0.1", false},      {"crash 2 0", false},
      {"crash 2 1.5", false},       {"crash nan 0.1", false},
      {"crash 2 abc", false},       {"crash 1e999 0.5", false},
      {"corrupt 2 -0.5", false},    {"rejoin 5", false},
      {"rejoin 5 none", false},     {"rejoin 5 0", false},
      {"rejoin -1 all", false},     {"dropout 3 6", false},
      {"dropout 6 3 0.2", false},   {"dropout 3 3 0.2", false},
      {"dropout 3 6 0", false},     {"dropout 3 6 2", false},
      {"dropout -1 6 0.2", false},  {"dropout 3 nan 0.2", false},
      {"warp 1 0.5", false},        {"CRASH 2 0.1", false},
  };
  Daemon daemon;
  for (const auto& c : kCases) {
    SCOPED_TRACE(std::string("fault line '") + c.line + "'");
    const std::string reply = daemon.exec(std::string("inject b ") + c.line);
    const bool daemon_ok = reply == "OK fault schedule installed";
    EXPECT_TRUE(daemon_ok || reply.rfind("ERROR ", 0) == 0) << reply;
    SweepSpec spec;
    bool spec_ok = true;
    try {
      spec = parse_sweep_spec(std::string(kSpecBase) + "fault " + c.line +
                              "\n");
    } catch (const SpecError&) {
      spec_ok = false;
    }
    EXPECT_EQ(daemon_ok, c.accepted) << reply;
    EXPECT_EQ(spec_ok, c.accepted);
    if (daemon_ok && spec_ok) {
      EXPECT_EQ(plan_bytes(daemon.plan()), plan_bytes(spec.faults));
      EXPECT_EQ(spec.faults.size(), 1u);
    }
  }
}

TEST(SharedGrammar, RunUntilAndSpecUntilAgree) {
  using C = CountPredicate::Cmp;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // Where a spec rejects a predicate: a syntax error or a bad count fails
  // parse_sweep_spec itself, before any job runs; an expression that parses
  // but names a variable the protocol lacks fails at job start.
  enum class Verdict { kAccepted, kSpecError, kJobError };
  using V = Verdict;
  const struct {
    const char* text;
    Verdict verdict;
    C cmp;
    std::uint64_t count;
    bool all;
  } kCases[] = {
      // Expression `1` counts every agent (64), `0` none: the comparisons
      // below come out both ways, so a swapped comparator shows.
      {"BA", V::kAccepted, C::kGe, 1, false},
      {"1 == all", V::kAccepted, C::kEq, 1, true},
      {"1 != all", V::kAccepted, C::kNe, 1, true},
      {"1 < 64", V::kAccepted, C::kLt, 64, false},
      {"1 <= 64", V::kAccepted, C::kLe, 64, false},
      {"1 > 63", V::kAccepted, C::kGt, 63, false},
      {"1 >= 65", V::kAccepted, C::kGe, 65, false},
      {"0 == 0", V::kAccepted, C::kEq, 0, false},
      {"BA & !BB < 3", V::kAccepted, C::kLt, 3, false},
      {"BA|BB >= +7", V::kAccepted, C::kGe, 7, false},
      {"BA > 18446744073709551615", V::kAccepted, C::kGt, kMax, false},
      {"BA >= zz", V::kSpecError, C::kGe, 1, false},
      {"BA >= -1", V::kSpecError, C::kGe, 1, false},
      {"BA >= 18446744073709551616", V::kSpecError, C::kGe, 1, false},
      {"BA == 0x10", V::kSpecError, C::kGe, 1, false},
      {">= 5", V::kSpecError, C::kGe, 1, false},
      {"== all", V::kSpecError, C::kGe, 1, false},
      {"BA &", V::kSpecError, C::kGe, 1, false},
      {"NOPE", V::kJobError, C::kGe, 1, false},
      {"BA >=", V::kSpecError, C::kGe, 1, false},
      {"BA BB", V::kSpecError, C::kGe, 1, false},
  };
  Daemon daemon;
  const std::string ckpt = testing::TempDir() + "shared_grammar_until.ckpt";
  for (const auto& c : kCases) {
    SCOPED_TRACE(std::string("predicate '") + c.text + "'");
    // max-rounds 0: the predicate is checked once, up front, on round 0.
    const std::string reply =
        daemon.exec(std::string("run-until b 0 ") + c.text);
    const bool daemon_ok = reply.rfind("ERROR ", 0) != 0;
    EXPECT_EQ(daemon_ok, c.verdict == V::kAccepted) << reply;
    // The spec alone (no job run) must already refuse every syntax error.
    SweepSpec spec;
    try {
      spec = parse_sweep_spec(std::string(kSpecBase) + "until " + c.text +
                              "\n");
    } catch (const SpecError&) {
      EXPECT_EQ(c.verdict, V::kSpecError);
      continue;
    }
    EXPECT_NE(c.verdict, V::kSpecError) << "parse_sweep_spec accepted it";
    bool job_ok = true;
    std::remove(ckpt.c_str());
    try {
      (void)run_one_job(expand_grid(spec)[0], spec, ckpt);
    } catch (const RunnerError&) {
      job_ok = false;
    }
    std::remove(ckpt.c_str());
    EXPECT_EQ(job_ok, c.verdict == V::kAccepted);
    if (!daemon_ok || !job_ok) continue;
    ASSERT_TRUE(spec.until.has_value());
    EXPECT_EQ(spec.until->cmp, c.cmp);
    EXPECT_EQ(spec.until->count, c.count);
    EXPECT_EQ(spec.until->all, c.all);
    // The daemon's verdict on round 0 is the spec predicate's verdict on
    // the same bucket's count.
    const std::string observed = daemon.exec("observe b " + spec.until->expr);
    ASSERT_EQ(observed.rfind("COUNT ", 0), 0u) << observed;
    const std::uint64_t matching = *parse_u64(observed.substr(6));
    EXPECT_EQ(reply, spec.until->holds(matching, 64) ? "CONVERGED 0"
                                                     : "TIMEOUT 0");
  }
}

}  // namespace
}  // namespace popproto
