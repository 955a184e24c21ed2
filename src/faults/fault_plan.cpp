#include "faults/fault_plan.hpp"

#include <algorithm>
#include <optional>

#include "support/check.hpp"
#include "support/parse.hpp"
#include "support/serialize.hpp"

namespace popproto {

FaultEvent& FaultPlan::push(FaultKind kind) {
  events_.emplace_back();
  events_.back().kind = kind;
  return events_.back();
}

FaultPlan& FaultPlan::corrupt_at(double round, CorruptSpec spec) {
  POPPROTO_CHECK(spec.fraction >= 0.0 && spec.fraction <= 1.0);
  FaultEvent& e = push(FaultKind::kCorrupt);
  e.at_round = round;
  e.corrupt = std::move(spec);
  return *this;
}

FaultPlan& FaultPlan::corrupt_bernoulli(double rate, double from, double until,
                                        CorruptSpec spec) {
  POPPROTO_CHECK(rate > 0.0 && from < until);
  FaultEvent& e = push(FaultKind::kCorrupt);
  e.rate = rate;
  e.from_round = from;
  e.until_round = until;
  e.corrupt = std::move(spec);
  return *this;
}

FaultPlan& FaultPlan::crash_at(double round, CrashSpec spec) {
  FaultEvent& e = push(FaultKind::kCrash);
  e.at_round = round;
  e.crash = spec;
  return *this;
}

FaultPlan& FaultPlan::crash_bernoulli(double rate, double from, double until,
                                      CrashSpec spec) {
  POPPROTO_CHECK(rate > 0.0 && from < until);
  FaultEvent& e = push(FaultKind::kCrash);
  e.rate = rate;
  e.from_round = from;
  e.until_round = until;
  e.crash = spec;
  return *this;
}

FaultPlan& FaultPlan::rejoin_at(double round, RejoinSpec spec) {
  FaultEvent& e = push(FaultKind::kRejoin);
  e.at_round = round;
  e.rejoin = spec;
  return *this;
}

FaultPlan& FaultPlan::rejoin_bernoulli(double rate, double from, double until,
                                       RejoinSpec spec) {
  POPPROTO_CHECK(rate > 0.0 && from < until);
  FaultEvent& e = push(FaultKind::kRejoin);
  e.rate = rate;
  e.from_round = from;
  e.until_round = until;
  e.rejoin = spec;
  return *this;
}

FaultPlan& FaultPlan::dropout_window(double from, double until, double p) {
  POPPROTO_CHECK(p >= 0.0 && p <= 1.0 && from < until);
  FaultEvent& e = push(FaultKind::kDropout);
  e.from_round = from;
  e.until_round = until;
  e.dropout_p = p;
  return *this;
}

FaultPlan& FaultPlan::bias_window(double from, double until,
                                  SchedulerBias bias) {
  POPPROTO_CHECK(bias.epsilon >= 0.0 && bias.epsilon <= 1.0 && from < until);
  FaultEvent& e = push(FaultKind::kBias);
  e.from_round = from;
  e.until_round = until;
  e.bias = std::move(bias);
  return *this;
}

FaultPlan FaultPlan::from_events(std::vector<FaultEvent> events) {
  FaultPlan plan;
  plan.events_ = std::move(events);
  return plan;
}

namespace {

constexpr const char* kTextFaultKinds = "crash, rejoin, corrupt, dropout";

[[noreturn]] void fault_error(std::string message) {
  throw FaultParseError{std::move(message)};
}

/// A round time: a double >= 0 (`inf` never fires).
double parse_round(const std::string& token, const char* what) {
  const auto v = parse_double(token);
  if (!v || *v < 0)
    fault_error(std::string("bad ") + what + " '" + token + "'");
  return *v;
}

bool in_unit_interval(const std::optional<double>& v) {
  return v && *v > 0 && *v <= 1;
}

}  // namespace

FaultPlan& FaultPlan::parse_event(const std::vector<std::string>& tokens,
                                  std::size_t from) {
  if (from >= tokens.size())
    fault_error(std::string("missing fault kind (have: ") + kTextFaultKinds +
                ")");
  const std::string& kind = tokens[from];
  const std::size_t args = tokens.size() - from - 1;
  const auto arg = [&](std::size_t i) -> const std::string& {
    return tokens[from + 1 + i];
  };
  if (kind == "crash" || kind == "corrupt") {
    if (args != 2) fault_error("usage: " + kind + " <round> <fraction>");
    const double round = parse_round(arg(0), "round");
    const auto fraction = parse_double(arg(1));
    if (!in_unit_interval(fraction))
      fault_error("bad fraction '" + arg(1) + "' (need (0, 1])");
    if (kind == "crash")
      return crash_at(round, CrashSpec{.fraction = *fraction, .count = 0});
    CorruptSpec spec;  // kFixed all-zero full-mask rewrite
    spec.fraction = *fraction;
    return corrupt_at(round, spec);
  }
  if (kind == "rejoin") {
    if (args != 2) fault_error("usage: rejoin <round> all|<fraction>");
    const double round = parse_round(arg(0), "round");
    RejoinSpec spec;
    if (arg(1) == "all") {
      spec.all = true;
    } else {
      const auto fraction = parse_double(arg(1));
      if (!in_unit_interval(fraction))
        fault_error("bad fraction '" + arg(1) + "' (need (0, 1] or 'all')");
      spec.fraction = *fraction;
    }
    return rejoin_at(round, spec);
  }
  if (kind == "dropout") {
    if (args != 3) fault_error("usage: dropout <from> <until> <p>");
    const double start = parse_round(arg(0), "from");
    const auto until = parse_double(arg(1));
    if (!until || *until <= start) fault_error("bad until '" + arg(1) + "'");
    const auto p = parse_double(arg(2));
    if (!in_unit_interval(p)) fault_error("bad p '" + arg(2) + "'");
    return dropout_window(start, *until, *p);
  }
  fault_error("unknown fault kind '" + kind + "' (have: " + kTextFaultKinds +
              ")");
}

namespace {

void serialize_guard(BinWriter& w, const Guard& g) {
  w.u8(g.always_true() ? 1 : 0);
  const auto terms = g.minterms();
  w.u64(terms.size());
  for (const auto& [mask, bits] : terms) {
    w.u64(mask);
    w.u64(bits);
  }
}

Guard deserialize_guard(BinReader& r) {
  const bool always = r.u8() != 0;
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / 16)
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "guard minterm count exceeds payload");
  std::vector<std::pair<State, State>> terms;
  terms.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const State mask = r.u64();
    const State bits = r.u64();
    terms.emplace_back(mask, bits);
  }
  return Guard::from_minterms(always, terms);
}

}  // namespace

void serialize_fault_plan(BinWriter& w, const FaultPlan& plan) {
  w.u64(plan.size());
  for (const FaultEvent& e : plan.events()) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.f64(e.at_round);
    w.f64(e.rate);
    w.f64(e.from_round);
    w.f64(e.until_round);
    w.f64(e.corrupt.fraction);
    w.u64(e.corrupt.count);
    w.u8(static_cast<std::uint8_t>(e.corrupt.mode));
    w.u64(e.corrupt.fixed_state);
    w.u64_vec(e.corrupt.palette);
    w.u64(e.corrupt.mask);
    w.f64(e.crash.fraction);
    w.u64(e.crash.count);
    w.f64(e.rejoin.fraction);
    w.u64(e.rejoin.count);
    w.u8(e.rejoin.all ? 1 : 0);
    w.f64(e.dropout_p);
    w.f64(e.bias.epsilon);
    w.u32(static_cast<std::uint32_t>(e.bias.tries));
    serialize_guard(w, e.bias.prefer);
  }
}

FaultPlan deserialize_fault_plan(BinReader& r) {
  const std::uint64_t count = r.u64();
  // Each event occupies well over 64 payload bytes; bound before reserving.
  if (count > r.remaining() / 64)
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "fault event count exceeds payload");
  std::vector<FaultEvent> events;
  events.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    FaultEvent e;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(FaultKind::kBias))
      throw SnapshotError(SnapshotErrc::kCorrupt, "unknown fault kind");
    e.kind = static_cast<FaultKind>(kind);
    e.at_round = r.f64();
    e.rate = r.f64();
    e.from_round = r.f64();
    e.until_round = r.f64();
    e.corrupt.fraction = r.f64();
    e.corrupt.count = r.u64();
    const std::uint8_t mode = r.u8();
    if (mode > static_cast<std::uint8_t>(CorruptMode::kSpread))
      throw SnapshotError(SnapshotErrc::kCorrupt, "unknown corruption mode");
    e.corrupt.mode = static_cast<CorruptMode>(mode);
    e.corrupt.fixed_state = r.u64();
    e.corrupt.palette = r.u64_vec();
    e.corrupt.mask = r.u64();
    if (e.kind == FaultKind::kCorrupt &&
        e.corrupt.mode != CorruptMode::kFixed && e.corrupt.palette.empty())
      throw SnapshotError(SnapshotErrc::kCorrupt,
                          "palette corruption without a palette");
    e.crash.fraction = r.f64();
    e.crash.count = r.u64();
    e.rejoin.fraction = r.f64();
    e.rejoin.count = r.u64();
    e.rejoin.all = r.u8() != 0;
    e.dropout_p = r.f64();
    e.bias.epsilon = r.f64();
    e.bias.tries = static_cast<int>(r.u32());
    e.bias.prefer = deserialize_guard(r);
    events.push_back(std::move(e));
  }
  return FaultPlan::from_events(std::move(events));
}

double FaultPlan::last_scheduled_round() const {
  double last = 0.0;
  for (const auto& e : events_) {
    if (e.rate > 0.0 || e.kind == FaultKind::kDropout ||
        e.kind == FaultKind::kBias) {
      if (e.until_round < std::numeric_limits<double>::infinity())
        last = std::max(last, e.until_round);
    } else {
      last = std::max(last, e.at_round);
    }
  }
  return last;
}

}  // namespace popproto
