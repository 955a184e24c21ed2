#include "clocks/hierarchy.hpp"

#include <cmath>

#include "support/check.hpp"

namespace popproto {

std::uint64_t run_rounds_target(std::uint64_t done, std::size_t n,
                                double rounds, double& carry) {
  const double dn = static_cast<double>(n);
  const double owed = rounds * dn + carry;
  const double whole = std::floor(owed);
  // A whole call with nothing carried keeps the form trajectories were
  // recorded with, bit for bit.
  if (owed == whole && carry == 0.0)
    return static_cast<std::uint64_t>(
        (static_cast<double>(done) / dn + rounds) * dn);
  carry = owed - whole;
  return done + static_cast<std::uint64_t>(whole);
}

ClockHierarchy::ClockHierarchy(
    std::size_t n, const HierarchyParams& params, const Protocol& x_protocol,
    const std::vector<std::pair<State, std::uint64_t>>& x_init,
    std::uint64_t seed)
    : n_(n),
      params_(params),
      x_cache_(x_protocol),
      x_fixed_(x_protocol.num_rules() == 0),
      x_var_(x_protocol.vars()->at(kXVar)),
      rng_(seed),
      level1_(n),
      total_ticks_(static_cast<std::size_t>(params.levels), 0) {
  POPPROTO_CHECK(n >= 2);
  POPPROTO_CHECK(params_.levels >= 1);
  POPPROTO_CHECK_MSG(params_.level.module % 4 == 0,
                     "digit modulus must be divisible by 4 (stride-4 gating)");
  for (const auto& [s, c] : x_init) x_states_.insert(x_states_.end(), c, s);
  POPPROTO_CHECK_MSG(x_states_.size() == n, "X table must count n agents");
  for (std::size_t i = 0; i < n_; ++i)
    level1_[i].osc.species = static_cast<std::uint8_t>(i % 3);
  slow_.resize(static_cast<std::size_t>(params_.levels - 1));
  for (auto& lvl : slow_) {
    lvl.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      lvl[i].cur.osc.species = static_cast<std::uint8_t>(i % 3);
      lvl[i].nxt = lvl[i].cur;
    }
  }
}

int ClockHierarchy::gating_digit(std::size_t agent, int below_level) const {
  return below_level == 1
             ? static_cast<int>(level1_[agent].digit)
             : static_cast<int>(
                   slow_[static_cast<std::size_t>(below_level - 2)][agent]
                       .cur.digit);
}

void ClockHierarchy::level1_interact(std::size_t a, std::size_t b) {
  const int ticks = clock_level_interact(level1_[a], is_x(a), level1_[b],
                                         is_x(b), rng_, params_.level);
  total_ticks_[0] += static_cast<std::uint64_t>(ticks);
}

void ClockHierarchy::slow_level_interact(std::size_t a, std::size_t b,
                                         int level) {
  auto& lvl = slow_[static_cast<std::size_t>(level - 2)];
  SlowLevel& sa = lvl[a];
  SlowLevel& sb = lvl[b];
  const int da = gating_digit(a, level - 1);
  const int db = gating_digit(b, level - 1);
  const int m = params_.level.module;

  // Composed C* bookkeeping (§5.3): refresh the local copy of this level's
  // digit at the start of a level-(below) cycle; consensus-correct two
  // digits later, defaulting to the later of the two values.
  if (da == 0) sa.star = sa.cur.digit;
  if (db == 0) sb.star = sb.cur.digit;
  if (da == 2 && db == 2) {
    const int v = circular_later(sa.star, sb.star, m);
    sa.star = static_cast<std::uint8_t>(v);
    sb.star = static_cast<std::uint8_t>(v);
  }

  if (da == db && da % 4 == 0 && sa.trigger && sb.trigger) {
    // Simulate one level interaction on the current copies; results go to
    // the new copies; the pair leaves the matching pool for this window.
    ClockAgent ta = sa.cur;
    ClockAgent tb = sb.cur;
    const int ticks = clock_level_interact(ta, is_x(a), tb, is_x(b), rng_,
                                           params_.level);
    total_ticks_[static_cast<std::size_t>(level - 1)] +=
        static_cast<std::uint64_t>(ticks);
    sa.nxt = ta;
    sb.nxt = tb;
    sa.trigger = false;
    sb.trigger = false;
  } else if (da == db && da % 4 == 2) {
    // Commit window: agents that took part in the matching adopt the new
    // copy and re-arm. (An agent that found no partner keeps its state —
    // its new copy would be stale.)
    for (SlowLevel* s : {&sa, &sb}) {
      if (!s->trigger) {
        s->cur = s->nxt;
        s->trigger = true;
      }
    }
  }
}

void ClockHierarchy::interact_thread(std::size_t a, std::size_t b, int thread) {
  POPPROTO_DCHECK(a != b);
  if (thread == 0) {
    if (x_fixed_) return;
    const PairOutcome o =
        x_cache_.sample(x_states_[a], x_states_[b], rng_.uniform());
    x_states_[a] = o.a;
    x_states_[b] = o.b;
  } else if (thread == 1) {
    level1_interact(a, b);
  } else {
    slow_level_interact(a, b, thread);
  }
}

void ClockHierarchy::step() {
  const auto [a, b] = rng_.distinct_pair(n_);
  ++interactions_;
  interact_thread(a, b, static_cast<int>(rng_.below(
                            static_cast<std::uint64_t>(num_threads()))));
}

void ClockHierarchy::run_rounds(double rounds_to_run) {
  const std::uint64_t target =
      run_rounds_target(interactions_, n_, rounds_to_run, carry_);
  while (interactions_ < target) step();
}

int ClockHierarchy::live_digit(std::size_t agent, int level) const {
  POPPROTO_CHECK(level >= 1 && level <= params_.levels);
  if (level == 1) return level1_[agent].digit;
  return slow_[static_cast<std::size_t>(level - 2)][agent].cur.digit;
}

int ClockHierarchy::star_digit(std::size_t agent, int level) const {
  POPPROTO_CHECK(level >= 2 && level <= params_.levels);
  return slow_[static_cast<std::size_t>(level - 2)][agent].star;
}

int ClockHierarchy::slot(std::size_t agent, int level, int width) const {
  const int digit =
      level == 1 ? live_digit(agent, 1) : star_digit(agent, level);
  if (digit % 4 != 0) return -1;
  const int s = digit / 4;
  if (s < 1 || s > width) return -1;
  return s;
}

std::optional<std::vector<int>> ClockHierarchy::time_path(
    std::size_t agent, const std::vector<int>& widths) const {
  POPPROTO_CHECK(static_cast<int>(widths.size()) == params_.levels);
  std::vector<int> tau(widths.size());
  for (int lvl = 1; lvl <= params_.levels; ++lvl) {
    const int s = slot(agent, lvl, widths[static_cast<std::size_t>(lvl - 1)]);
    if (s < 0) return std::nullopt;
    tau[static_cast<std::size_t>(lvl - 1)] = s;
  }
  return tau;
}

}  // namespace popproto
