#include "lang/compile.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace popproto {

CompiledEngine::CompiledEngine(
    const Program& program, std::vector<State> inputs,
    const Protocol& x_protocol,
    const std::vector<std::pair<State, std::uint64_t>>& x_init,
    const ClockLevelParams& clock, std::uint64_t seed)
    : tree_(precompile(program)),
      n_(inputs.size()),
      user_(std::move(inputs)),
      background_(program.background_threads()),
      rng_(seed) {
  const State init = program.initial_state();
  for (State& s : user_) s |= init;
  widths_.assign(static_cast<std::size_t>(tree_.depth), tree_.width);
  tau_.resize(widths_.size());
  HierarchyParams hp;
  hp.levels = tree_.depth;
  hp.level = clock;
  hp.level.module = 4 * (tree_.width + 1);
  hierarchy_ = std::make_unique<ClockHierarchy>(n_, hp, x_protocol, x_init,
                                                rng_.split()());
}

void CompiledEngine::step() {
  const auto [a, b] = rng_.distinct_pair(n_);
  ++interactions_;
  const int clock_threads = hierarchy_->num_threads();
  const int total_threads =
      clock_threads + 1 + static_cast<int>(background_.size());
  const int t = static_cast<int>(
      rng_.below(static_cast<std::uint64_t>(total_threads)));
  if (t < clock_threads) {
    hierarchy_->interact_thread(a, b, t);
    return;
  }
  const std::vector<Rule>* rules = nullptr;
  if (t == clock_threads) {
    // Gated program thread: fire only when both agents hold the same
    // non-⊥ time path (Π_τ of §5.4), compared level by level.
    for (int lvl = 1; lvl <= tree_.depth; ++lvl) {
      const int s = hierarchy_->slot(a, lvl, tree_.width);
      if (s < 0 || s != hierarchy_->slot(b, lvl, tree_.width)) return;
      tau_[static_cast<std::size_t>(lvl - 1)] = s;
    }
    rules = tree_.leaf(tau_);
    if (rules == nullptr || rules->empty()) return;
  } else {
    rules = &background_[static_cast<std::size_t>(t - clock_threads - 1)]
                 ->background_rules;
    if (rules->empty()) return;
  }
  const Rule& rule = (*rules)[rng_.below(rules->size())];
  const State sa = user_[a];
  const State sb = user_[b];
  if (!rule.matches(sa, sb)) return;
  const auto [na, nb] = rule.apply(sa, sb, rng_);
  user_[a] = na;
  user_[b] = nb;
  ++program_firings_;
}

void CompiledEngine::run_rounds(double rounds_to_run) {
  const std::uint64_t target =
      run_rounds_target(interactions_, n_, rounds_to_run, carry_);
  while (interactions_ < target) step();
}

std::optional<double> CompiledEngine::run_until(
    const std::function<bool(const CompiledEngine&)>& predicate,
    double max_rounds, double check_interval) {
  POPPROTO_CHECK(check_interval > 0.0);
  if (predicate(*this)) return rounds();
  while (rounds() < max_rounds) {
    const std::uint64_t before = interactions_;
    run_rounds(std::min(check_interval, max_rounds - rounds()));
    if (predicate(*this)) return rounds();
    if (interactions_ == before) break;  // horizon inside one interaction
  }
  return std::nullopt;
}

std::uint64_t CompiledEngine::count_matching(const Guard& g) const {
  return static_cast<std::uint64_t>(std::count_if(
      user_.begin(), user_.end(), [&](State s) { return g.matches(s); }));
}

std::optional<std::vector<int>> CompiledEngine::common_time_path() const {
  auto tau = hierarchy_->time_path(0, widths_);
  if (!tau) return std::nullopt;
  for (std::size_t i = 1; i < n_; ++i) {
    auto t = hierarchy_->time_path(i, widths_);
    if (!t || *t != *tau) return std::nullopt;
  }
  return tau;
}

}  // namespace popproto
