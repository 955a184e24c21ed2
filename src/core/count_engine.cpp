#include "core/count_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>

#include "core/pair_sampler.hpp"
#include "persist/snapshot.hpp"

namespace popproto {

namespace {
constexpr double kNoLimit = std::numeric_limits<double>::infinity();

// kBatch's hand-off between its dense paths (blocks, direct steps) and
// skip-ahead (DESIGN.md §9), with every cost counted in event-weight
// updates. With S species a block of ~0.63 sqrt(n) interactions draws one
// hypergeometric row per species, about kBlockCostPerSpecies updates each,
// a direct step costs kDirectStepCost, and a skip jump rebuilds S^2 event
// weights on top of a fixed cost worth kJumpFixedCost of them. The dense
// path is whichever of a block and a block's worth of direct steps costs
// less; both cost the same whether or not their interactions change
// anything, so kBatch weighs the expected number of state changes in one
// block against the number of skip jumps the dense path's block costs. The
// engine parks in skip when a block's expected changes fall below kToSkip
// of that break-even, measured over a window of kBlockWindow blocks (or as
// many as one jump costs, if more) that restarts at every decision, and
// resumes the dense path above kToBatch of it, from the exact event weight
// of the last jump. The block and jump constants come from the count_shard
// measurements, and the direct step's from the kernel clock and the
// oscillator, in EXPERIMENTS.md.
constexpr double kBlockCostPerSpecies = 200.0;
constexpr double kJumpFixedCost = 27.0;
constexpr double kDirectStepCost = 64.0;
constexpr double kToSkip = 0.85;
constexpr double kToBatch = 1.25;
constexpr double kBlockWindow = 16.0;

// The cap on one batch's interactions. A batch ends at its first
// collision anyway, so the cap only needs to clear the collision-free run
// distribution (E[run] ~ 0.63 sqrt(n) by the birthday bound, tail ~ 2 sqrt(n));
// 2 sqrt(n) lets nearly every run end naturally without truncation, and the
// sweep in EXPERIMENTS.md shows throughput is flat past that point. Clamped
// so tiny populations still batch and huge ones keep per-batch scratch
// bounded.
std::uint64_t batch_cap(std::uint64_t n) {
  const auto r =
      static_cast<std::uint64_t>(2.0 * std::sqrt(static_cast<double>(n)));
  return std::clamp<std::uint64_t>(r, 8, std::uint64_t{1} << 16);
}

// The slot holding draw r < sum(weights), found by a scan in slot order.
std::size_t slot_of(const std::vector<std::uint64_t>& weights,
                    std::uint64_t r) {
  std::size_t i = 0;
  for (; r >= weights[i]; ++i) {
    r -= weights[i];
    POPPROTO_CHECK_MSG(i + 1 < weights.size(), "slot draw fell through");
  }
  return i;
}
}  // namespace

CountEngine::CountEngine(const Protocol& protocol,
                         std::vector<std::pair<State, std::uint64_t>> initial,
                         std::uint64_t seed, CountEngineMode mode)
    : protocol_(protocol),
      cache_(protocol),
      rng_(seed),
      mode_(mode) {
  for (const auto& [s, c] : initial) add_count(s, c);
  POPPROTO_CHECK_MSG(n_ >= 2, "population needs at least 2 agents");
}

void CountEngine::set_injection_hook(InjectionHook hook) {
  injection_ = std::move(hook);
  last_injection_round_ = std::floor(time_);
}

void CountEngine::set_scheduler_bias(std::optional<SchedulerBias> bias) {
  bias_ = std::move(bias);
}

void CountEngine::add_count(State s, std::uint64_t delta) {
  if (delta == 0) return;
  n_ += delta;
  auto it = index_.find(s);
  if (it != index_.end()) {
    counts_[it->second] += delta;
    fen_add(it->second, delta);
    return;
  }
  index_.emplace(s, states_.size());
  states_.push_back(s);
  counts_.push_back(delta);
  if (fen_.size() + 1 == counts_.size()) {
    // Extend a current tree: node i sums the slots (i - lowbit(i), i].
    const std::size_t i = counts_.size();
    for (std::size_t j = i - 1; j > i - (i & (~i + 1)); j -= j & (~j + 1))
      delta += fen_[j - 1];
    fen_.push_back(delta);
  }
}

void CountEngine::remove_count(std::size_t index, std::uint64_t delta) {
  POPPROTO_DCHECK(counts_[index] >= delta);
  counts_[index] -= delta;
  n_ -= delta;
  fen_add(index, ~delta + 1);  // adds -delta modulo 2^64
}

void CountEngine::fen_add(std::size_t i, std::uint64_t delta) {
  if (fen_.size() != counts_.size()) return;
  for (++i; i <= fen_.size(); i += i & (~i + 1)) fen_[i - 1] += delta;
}

std::size_t CountEngine::fen_find(std::uint64_t r) const {
  // The last prefix of the tree that sums to at most r ends just before the
  // slot holding draw r (zero-count slots never hold one).
  std::size_t pos = 0;
  for (std::size_t step = std::bit_floor(fen_.size()); step > 0; step >>= 1) {
    if (pos + step <= fen_.size() && fen_[pos + step - 1] <= r) {
      pos += step;
      r -= fen_[pos - 1];
    }
  }
  return pos;
}

void CountEngine::compact() {
  std::size_t k = 0;
  while (k < counts_.size() && counts_[k] != 0) ++k;
  if (k == counts_.size()) return;
  // Slide the nonzero slots down over the zero ones, keeping their order.
  for (std::size_t i = k; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      index_.erase(states_[i]);
      continue;
    }
    if (i != k) {
      states_[k] = states_[i];
      counts_[k] = counts_[i];
      index_[states_[k]] = k;
    }
    ++k;
  }
  states_.resize(k);
  counts_.resize(k);
  cw_.clear();
  fen_.clear();
}

std::size_t CountEngine::sample_species(std::uint64_t exclude_one_of) {
  if (fen_.size() != counts_.size()) {
    fen_.assign(counts_.begin(), counts_.end());
    for (std::size_t i = 1; i <= fen_.size(); ++i) {
      const std::size_t up = i + (i & (~i + 1));
      if (up <= fen_.size()) fen_[up - 1] += fen_[i - 1];
    }
  }
  std::uint64_t total = n_;
  if (exclude_one_of != ~0ull) --total;
  const std::uint64_t r = rng_.below(total);
  const std::size_t i = fen_find(r);
  // Leaving out one agent of slot x lowers every prefix past x by one.
  return i < exclude_one_of ? i : fen_find(r + 1);
}

std::uint64_t CountEngine::crash_random(std::uint64_t k, Rng& rng) {
  std::uint64_t moved = 0;
  while (moved < k && n_ > 2) {
    const std::size_t i = slot_of(counts_, rng.below(n_));
    const State s = states_[i];
    remove_count(i, 1);
    auto it = std::find_if(crashed_.begin(), crashed_.end(),
                           [&](const auto& p) { return p.first == s; });
    if (it == crashed_.end()) {
      crashed_.emplace_back(s, 1);
    } else {
      ++it->second;
    }
    ++crashed_n_;
    ++moved;
  }
  ctr_.crash_events += moved;
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnCrash, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountEngine::rejoin_random(std::uint64_t k, Rng& rng) {
  std::uint64_t moved = 0;
  while (moved < k && crashed_n_ > 0) {
    std::uint64_t r = rng.below(crashed_n_);
    for (auto& [s, c] : crashed_) {
      if (r < c) {
        --c;
        --crashed_n_;
        add_count(s, 1);
        break;
      }
      r -= c;
    }
    ++moved;
  }
  if (moved > 0) silent_ = false;  // stale state may re-enable rules
  ctr_.rejoin_events += moved;
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnRejoin, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountEngine::rejoin_all() {
  const std::uint64_t moved = crashed_n_;
  for (auto& [s, c] : crashed_) {
    add_count(s, c);
    c = 0;
  }
  crashed_n_ = 0;
  crashed_.clear();
  if (moved > 0) silent_ = false;
  ctr_.rejoin_events += moved;
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnRejoin, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountEngine::mutate_random_agents(
    std::uint64_t k, Rng& rng,
    const std::function<State(State old_state, std::uint64_t j)>& f) {
  k = std::min(k, n_);
  // Draw k distinct agents without replacement from the current counts
  // (exact multivariate hypergeometric), then apply all rewrites.
  std::vector<std::uint64_t> pool = counts_;
  std::uint64_t pool_total = n_;
  std::vector<std::uint64_t> drawn(counts_.size(), 0);
  for (std::uint64_t j = 0; j < k; ++j) {
    const std::size_t i = slot_of(pool, rng.below(pool_total));
    --pool[i];
    ++drawn[i];
    --pool_total;
  }
  std::uint64_t j = 0, rewritten = 0;
  const std::size_t num_species = drawn.size();  // add_count may append
  for (std::size_t i = 0; i < num_species; ++i) {
    const State old_state = states_[i];
    for (std::uint64_t d = 0; d < drawn[i]; ++d, ++j) {
      const State ns = f(old_state, j);
      if (ns == old_state) continue;
      remove_count(i, 1);
      add_count(ns, 1);
      ++rewritten;
    }
  }
  if (rewritten > 0) silent_ = false;
  ctr_.corrupted_agents += rewritten;
  if (trace_ && k > 0)
    trace_->push(EventKind::kFaultInjected, time_,
                 static_cast<double>(rewritten));
  return k;
}

void CountEngine::apply_change(std::size_t ia, std::size_t ib) {
  const State sa = states_[ia];
  const State sb = states_[ib];
  const double u01 = rng_.uniform();
  const PairOutcome o = use_cache_
                            ? cache_.sample_change(sa, sb, u01)
                            : cache_.sample_change_uncached(sa, sb, u01);
  if (o.a == sa && o.b == sb) return;
  remove_count(ia, 1);
  remove_count(ib, 1);
  add_count(o.a, 1);
  add_count(o.b, 1);
  ++effective_;
}

void CountEngine::direct_step() {
  std::size_t ia = sample_species();
  if (bias_ && bias_->epsilon > 0.0 && rng_.chance(bias_->epsilon)) {
    for (int t = 0; t < bias_->tries; ++t) {
      ia = sample_species();
      if (bias_->prefer.matches(states_[ia])) break;
    }
  }
  const std::size_t ib = sample_species(/*exclude_one_of=*/ia);
  ++interactions_;
  time_ += 1.0 / static_cast<double>(n_);

  if (injection_.drop_interaction && injection_.drop_interaction(rng_)) {
    ++ctr_.dropped_interactions;
    return;
  }

  // One fused draw covers thread choice (incl. empty-thread padding mass),
  // rule choice, and the outcome coin; see core/transition_cache.hpp.
  const State sa = states_[ia];
  const State sb = states_[ib];
  const double u = rng_.uniform();
  const PairOutcome o =
      use_cache_ ? cache_.sample(sa, sb, u) : cache_.sample_uncached(sa, sb, u);
  if (o.a == sa && o.b == sb) return;
  remove_count(ia, 1);
  remove_count(ib, 1);
  add_count(o.a, 1);
  add_count(o.b, 1);
  ++effective_;
}

void CountEngine::rebuild_events() {
  compact();
  events_.clear();
  events_total_weight_ = 0.0;
  const std::size_t num = states_.size();
  if (use_cache_ && cw_.size() != num * num) cw_.assign(num * num, -1.0);
  const double pair_norm =
      1.0 / (static_cast<double>(n_) * static_cast<double>(n_ - 1));
  // Pair-major: one fused change weight per ordered species pair replaces
  // the old rule-major triple loop, so the event list is |S|^2 instead of
  // |rules| * |S|^2 and the weights come straight from the slot table.
  for (std::size_t i = 0; i < num; ++i) {
    for (std::size_t j = 0; j < num; ++j) {
      const double pairs =
          static_cast<double>(counts_[i]) *
          (static_cast<double>(counts_[j]) - (i == j ? 1.0 : 0.0));
      if (pairs <= 0.0) continue;
      double cw;
      if (use_cache_) {
        double& slot = cw_[i * num + j];
        if (slot < 0.0) slot = cache_.change_weight(states_[i], states_[j]);
        cw = slot;
      } else {
        cw = cache_.change_weight_uncached(states_[i], states_[j]);
      }
      if (cw <= 0.0) continue;
      const double w = pairs * pair_norm * cw;
      events_.push_back(Event{w, i, j});
      events_total_weight_ += w;
    }
  }
}

CountEngine::Jump CountEngine::skip_jump(double limit) {
  rebuild_events();
  if (events_total_weight_ <= 0.0) {
    silent_ = true;
    return Jump::kSilent;
  }
  const std::uint64_t skip =
      rng_.geometric(std::min(events_total_weight_, 1.0));
  const double landing =
      time_ + static_cast<double>(skip + 1) / static_cast<double>(n_);
  ++ctr_.skip_jumps;
  if (landing > limit) {
    const auto bulk = static_cast<std::uint64_t>(
        std::llround((limit - time_) * static_cast<double>(n_)));
    interactions_ += bulk;
    ctr_.skipped_interactions += bulk;
    time_ = limit;
    return Jump::kCut;
  }
  interactions_ += skip + 1;
  ctr_.skipped_interactions += skip;
  time_ = landing;

  double u = rng_.uniform() * events_total_weight_;
  const Event* chosen = &events_.back();
  for (const auto& e : events_) {
    if (u < e.weight) {
      chosen = &e;
      break;
    }
    u -= e.weight;
  }
  // Interaction dropout thins the effective process: a dropped effective
  // interaction is a no-op, and by memorylessness the retry chain composes
  // to the exact Geometric(w * (1 - p)) law.
  if (injection_.drop_interaction && injection_.drop_interaction(rng_)) {
    ++ctr_.dropped_interactions;
  } else {
    apply_change(chosen->species_a, chosen->species_b);
  }
  return Jump::kLanded;
}

// Batch aggregation assumes every interaction is an unbiased uniform pair
// draw (SchedulerBias breaks that) and resolves same-pair interactions in
// aggregate (a per-interaction dropout predicate cannot be consulted one
// draw at a time). Either hook routes kBatch to the per-interaction paths:
// skip jumps under a drop hook, direct steps under a bias.
bool CountEngine::batch_allowed() const {
  return !bias_.has_value() && !injection_.drop_interaction;
}

double CountEngine::dense_block() {
  if (mode_ != CountEngineMode::kBatch || !batch_allowed()) return 0.0;
  const double block = mean_block();
  maybe_toggle_batch_skip(block);
  return use_skip_ ? 0.0 : block;
}

bool CountEngine::dense_step(double limit, double block) {
  if (kBlockCostPerSpecies * static_cast<double>(states_.size()) <=
      kDirectStepCost * block)
    return batch_step(limit);
  // A block's worth of direct steps (stopping at `limit`), counted in the
  // hand-off window as a block's interactions are.
  const std::uint64_t eff0 = effective_;
  const double stop =
      std::min(limit, time_ + block / static_cast<double>(n_));
  std::uint64_t done = 0;
  do {
    direct_step();
    ++done;
  } while (time_ < stop);
  window_steps_ += done;
  window_effective_ += effective_ - eff0;
  if (effective_ == eff0 && dense_cost_in_jumps(block) >= 1.0) {
    // A no-op stretch checks for silence, as a block does, where the check
    // costs no more than the stretch; beyond that the window decides.
    rebuild_events();
    if (events_total_weight_ <= 0.0) silent_ = true;
  }
  return !silent_;
}

std::size_t CountEngine::batch_species_slot(State s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  index_.emplace(s, states_.size());
  states_.push_back(s);
  counts_.push_back(0);
  bat_touched_.push_back(0);
  return states_.size() - 1;
}

std::uint64_t CountEngine::batch_apply_pair(std::size_t ia, std::size_t ib,
                                            std::uint64_t k) {
  // The k initiators (species ia) and k responders (species ib) are already
  // out of counts_; this decides their post-interaction states and deposits
  // them into the touched multiset. Conditioned on the block being
  // collision-free, the k fused draws are i.i.d., so the number that change
  // state is Binomial(k, change_weight) and the changing ones distribute
  // multinomially over the conditional outcome categories.
  const State sa = states_[ia];
  const State sb = states_[ib];
  TransitionCache::ChangeDistView v;
  if (!use_cache_ || !cache_.change_dist(sa, sb, &v)) {
    bat_cum_.clear();
    bat_res_.clear();
    v.change_weight = cache_.change_dist_uncached(sa, sb, bat_cum_, bat_res_);
    v.cum = bat_cum_.data();
    v.res = bat_res_.data();
    v.count = static_cast<std::uint32_t>(bat_cum_.size());
  }
  std::uint64_t changed = 0;
  if (v.count > 0 && v.change_weight > 0.0)
    changed = sample_binomial(rng_, k, std::min(v.change_weight, 1.0));
  if (changed > 0) {
    if (v.count == 1) {
      const PairOutcome o = v.res[0];
      bat_touched_[batch_species_slot(o.a)] += changed;
      bat_touched_[batch_species_slot(o.b)] += changed;
    } else {
      // Category masses are the breakpoint gaps (absolute fused mass;
      // cum[count-1] == change_weight keeps the conditionals exact).
      bat_gap_.resize(v.count);
      bat_gap_[0] = v.cum[0];
      for (std::uint32_t c = 1; c < v.count; ++c)
        bat_gap_[c] = v.cum[c] - v.cum[c - 1];
      // Snapshot outcomes first: batch_species_slot may grow states_ and the
      // uncached path's view aliases bat_res_ which we are done mutating,
      // but the cached view's pointers die on the next cache build.
      bat_ores_.assign(v.res, v.res + v.count);
      sample_multinomial(rng_, changed, bat_gap_.data(), v.count,
                         v.change_weight, bat_out_);
      for (std::uint32_t c = 0; c < v.count; ++c) {
        if (bat_out_[c] == 0) continue;
        bat_touched_[batch_species_slot(bat_ores_[c].a)] += bat_out_[c];
        bat_touched_[batch_species_slot(bat_ores_[c].b)] += bat_out_[c];
      }
    }
  }
  bat_touched_[ia] += k - changed;
  bat_touched_[ib] += k - changed;
  effective_ += changed;
  return changed;
}

void CountEngine::batch_collision_interaction(std::uint64_t* m_total,
                                              std::uint64_t* u_total) {
  // The interaction that ended a collision-free run, conditioned on "not
  // collision-free": at least one participant repeats a touched agent.
  // With u touched and m untouched agents the ordered membership categories
  // weigh  TT: u(u-1)   TU: u*m   UT: m*u   (UU is the excluded
  // collision-free event), all over the same denominator n(n-1) - m(m-1),
  // so an integer draw over the three weights is the exact conditional.
  const std::uint64_t u = *u_total;
  const std::uint64_t m = *m_total;
  POPPROTO_CHECK_MSG(u > 0, "collision interaction with no touched agents");
  const std::uint64_t wtt = u > 0 ? u * (u - 1) : 0;
  const std::uint64_t wtu = u * m;
  const std::uint64_t r = rng_.below(wtt + 2 * wtu);
  const bool init_touched = r < wtt + wtu;
  const bool resp_touched = r < wtt || r >= wtt + wtu;
  // Remove the initiator from its pool before drawing the responder, so a
  // TT pair never reuses the same agent.
  std::size_t ia, ib;
  if (init_touched) {
    ia = slot_of(bat_touched_, rng_.below(*u_total));
    --bat_touched_[ia];
    --*u_total;
  } else {
    ia = slot_of(counts_, rng_.below(*m_total));
    --counts_[ia];
    --*m_total;
  }
  if (resp_touched) {
    ib = slot_of(bat_touched_, rng_.below(*u_total));
    --bat_touched_[ib];
    --*u_total;
  } else {
    ib = slot_of(counts_, rng_.below(*m_total));
    --counts_[ib];
    --*m_total;
  }
  const State sa = states_[ia];
  const State sb = states_[ib];
  const double u01 = rng_.uniform();
  const PairOutcome o = use_cache_ ? cache_.sample(sa, sb, u01)
                                   : cache_.sample_uncached(sa, sb, u01);
  ++bat_touched_[batch_species_slot(o.a)];
  ++bat_touched_[batch_species_slot(o.b)];
  *u_total += 2;
  if (o.a != sa || o.b != sb) ++effective_;
  ++ctr_.batch_collisions;
}

bool CountEngine::batch_step(double limit) {
  // Interaction budget until `limit` (round boundary or run target), capped
  // by the batch size. Guard the infinite-limit case before casting.
  const double room = (limit - time_) * static_cast<double>(n_);
  const std::uint64_t cap = batch_cap(n_);
  std::uint64_t budget = cap;
  if (room < static_cast<double>(cap))
    budget = room >= 1.0 ? static_cast<std::uint64_t>(room) : 1;

  compact();  // dense nonzero counts for the hypergeometric scans
  fen_.clear();  // the deal and the merge below write counts_ directly
  bat_touched_.assign(states_.size(), 0);
  std::uint64_t m_total = n_;  // untouched agents (still in counts_)
  std::uint64_t u_total = 0;   // touched agents (in bat_touched_)
  const std::uint64_t eff0 = effective_;
  std::uint64_t done = 0;
  // One batch = collision-free runs up to the first collision interaction
  // (or the budget). Ending the batch at the first collision is the
  // throughput sweet spot: merging the touched agents back resets the
  // collision hazard, so every run gets the full-length ~0.63 sqrt(n)
  // amortization for its O(species^2) distributional draws — continuing
  // past a collision would only buy progressively shorter runs (the hazard
  // grows with the touched count) at the same per-run sampling cost.
  while (done < budget) {
    bool collided = false;
    const std::uint64_t run =
        sample_collision_run(rng_, n_, m_total, budget - done, &collided);
    if (run > 0) {
      // Collision-free block of `run` ordered pairs over 2*run distinct
      // untouched agents. deal_pair_table draws their species once from
      // the untouched counts and deals the pair table from that pool, so
      // only its first draw is at population scale.
      const std::size_t s = counts_.size();  // slots may grow mid-loop
      deal_pair_table(rng_, counts_, m_total, run, bat_pairs_);
      m_total -= 2 * run;
      for (std::size_t i = 0; i < s; ++i) {
        for (std::size_t j = 0; j < s; ++j) {
          const std::uint64_t k = bat_pairs_[i * s + j];
          if (k > 0) batch_apply_pair(i, j, k);
        }
      }
      u_total += 2 * run;
      done += run;
      ++ctr_.batch_blocks;
    }
    if (collided && done < budget) {
      batch_collision_interaction(&m_total, &u_total);
      ++done;
      break;
    }
    if (!collided && m_total >= 2) break;  // budget reached collision-free
    // Otherwise the untouched pool ran dry before the budget (m_total < 2):
    // loop again — the next sample_collision_run returns an immediate
    // collision and the batch ends on it.
  }
  // Merge the touched multiset back into the scheduled counts; from here on
  // the next block may touch these agents again, which is exact because
  // their updated states are now part of the configuration.
  for (std::size_t i = 0; i < bat_touched_.size(); ++i)
    counts_[i] += bat_touched_[i];
  interactions_ += done;
  window_steps_ += done;
  window_effective_ += effective_ - eff0;
  time_ += static_cast<double>(done) / static_cast<double>(n_);
  if (effective_ == eff0) {
    // A whole batch of no-ops: check for silence so driver loops terminate.
    rebuild_events();
    if (events_total_weight_ <= 0.0) silent_ = true;
  }
  return !silent_;
}

double CountEngine::mean_block() const {
  // A collision-free run lasts sqrt(pi n / 8) interactions on average (the
  // birthday bound), unless the cap cuts it short.
  const double run =
      std::sqrt(std::numbers::pi / 8.0 * static_cast<double>(n_));
  return std::min(run, static_cast<double>(batch_cap(n_)));
}

double CountEngine::dense_cost_in_jumps(double block) const {
  const double s = static_cast<double>(states_.size());
  return std::min(kBlockCostPerSpecies * s, kDirectStepCost * block) /
         (s * s + kJumpFixedCost);
}

bool CountEngine::dense_pays(double block) const {
  return events_total_weight_ * block >
         kToBatch * dense_cost_in_jumps(block);
}

void CountEngine::maybe_toggle_batch_skip(double block) {
  if (use_skip_) {
    if (dense_pays(block)) {
      use_skip_ = false;
      window_steps_ = window_effective_ = 0;
    }
    return;
  }
  // The window spans kBlockWindow blocks, and at least one jump's cost.
  const auto steps = static_cast<double>(window_steps_);
  if (steps < kBlockWindow * block) return;
  const double jumps = dense_cost_in_jumps(block);
  if (steps * jumps < block) return;
  use_skip_ = static_cast<double>(window_effective_) * block <
              kToSkip * jumps * steps;
  window_steps_ = window_effective_ = 0;
}

bool CountEngine::step() {
  if (silent_) return false;
  bool alive = true;
  if (const double block = dense_block(); block > 0.0) {
    alive = dense_step(
        injection_.on_round ? last_injection_round_ + 1.0 : kNoLimit, block);
  } else if (skip_engaged()) {
    alive = skip_jump(kNoLimit) != Jump::kSilent;
  } else {
    direct_step();
  }
  maybe_fire_injection();
  return alive;
}

void CountEngine::run_rounds(double rounds_to_run) {
  const double target = time_ + rounds_to_run;
  while (time_ < target) {
    // When a fault schedule is installed, jumps (skip-ahead or silent
    // fast-forward) are capped at the next whole-round boundary so events
    // land on schedule; the geometric law's memorylessness makes stopping
    // early and resampling exact.
    double limit = target;
    if (injection_.on_round)
      limit = std::min(limit, last_injection_round_ + 1.0);
    if (silent_) {
      const auto bulk = static_cast<std::uint64_t>(
          std::llround((limit - time_) * static_cast<double>(n_)));
      interactions_ += bulk;
      ++ctr_.skip_jumps;
      ctr_.skipped_interactions += bulk;
      time_ = limit;  // nothing can change; fast-forward
    } else if (const double block = dense_block(); block > 0.0) {
      dense_step(limit, block);
    } else if (skip_engaged()) {
      const Jump jump = skip_jump(limit);
      if (jump == Jump::kSilent) continue;
      // A landed jump's exact event weight may hand kBatch back to the
      // dense path.
      if (jump == Jump::kLanded && mode_ == CountEngineMode::kBatch &&
          batch_allowed() && dense_pays(mean_block()))
        use_skip_ = false;
    } else {
      direct_step();
    }
    maybe_fire_injection();
  }
}

EngineCounters CountEngine::counters() const {
  EngineCounters c = ctr_;
  c.interactions = interactions_;
  c.effective_steps = effective_;
  c.cache_builds = cache_builds_base_ + (cache_.builds() - cache_builds_floor_);
  return c;
}

void CountEngine::snapshot(std::ostream& out) const {
  write_snapshot(out, counters());
}

void CountEngine::write_snapshot(std::ostream& out,
                                 const EngineCounters& ctr) const {
  SnapshotWriter w(out, backend_name(), protocol_fingerprint(protocol_),
                   n_ + crashed_n_);

  std::string core;
  BinWriter c(core);
  c.u8(static_cast<std::uint8_t>(mode_));
  c.u8(use_cache_ ? 1 : 0);
  c.u8(use_skip_ ? 1 : 0);
  c.u8(silent_ ? 1 : 0);
  c.u64(0);  // retired batch-cap slot; restore rejects anything else
  c.f64(time_);
  c.u64(interactions_);
  c.u64(effective_);
  c.u64(window_steps_);
  c.u64(window_effective_);
  c.f64(events_total_weight_);
  w.section(SnapshotSection::kCore, core);

  std::string popn;
  BinWriter p(popn);
  p.u64(n_);
  p.u64_vec(states_);  // exact internal order, zero-count slots included
  p.u64_vec(counts_);
  p.u64(crashed_n_);
  p.u64(crashed_.size());
  for (const auto& [s, cnt] : crashed_) {
    p.u64(s);
    p.u64(cnt);
  }
  w.section(SnapshotSection::kPopulation, popn);

  std::string rng;
  BinWriter r(rng);
  serialize_rng_streams(r, {rng_.state()});
  w.section(SnapshotSection::kRngStreams, rng);

  std::string ctrs;
  BinWriter k(ctrs);
  serialize_counters(k, ctr);
  w.section(SnapshotSection::kCounters, ctrs);

  w.finish();
}

void CountEngine::restore(std::istream& in) {
  SnapshotReader reader(in, backend_name(), protocol_fingerprint(protocol_));

  // Parse every section, in writer order, into staging locals.
  BinReader& c = reader.section(SnapshotSection::kCore);
  const std::uint8_t mode = c.u8();
  const bool use_cache = c.u8() != 0;
  const bool use_skip = c.u8() != 0;
  const bool silent = c.u8() != 0;
  const std::uint64_t batch_cap_slot = c.u64();
  const double time = c.f64();
  const std::uint64_t interactions = c.u64();
  const std::uint64_t effective = c.u64();
  const std::uint64_t window_steps = c.u64();
  const std::uint64_t window_effective = c.u64();
  const double events_total_weight = c.f64();

  BinReader& p = reader.section(SnapshotSection::kPopulation);
  const std::uint64_t n = p.u64();
  std::vector<State> states = p.u64_vec();
  std::vector<std::uint64_t> counts = p.u64_vec();
  const std::uint64_t crashed_n = p.u64();
  const std::uint64_t pairs = p.u64();
  if (pairs > p.remaining() / 16)
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "crashed-species count exceeds payload");
  std::vector<std::pair<State, std::uint64_t>> crashed;
  crashed.reserve(static_cast<std::size_t>(pairs));
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const State s = p.u64();
    const std::uint64_t cnt = p.u64();
    crashed.emplace_back(s, cnt);
  }

  BinReader& r = reader.section(SnapshotSection::kRngStreams);
  const RngState stream = deserialize_rng_streams(r, 1).front();

  BinReader& k = reader.section(SnapshotSection::kCounters);
  const EngineCounters ctr = deserialize_counters(k);
  reader.finish();

  // Semantic validation — *this stays untouched until everything passed.
  if (mode != static_cast<std::uint8_t>(CountEngineMode::kDirect) &&
      mode != static_cast<std::uint8_t>(CountEngineMode::kSkip) &&
      mode != static_cast<std::uint8_t>(CountEngineMode::kBatch))
    throw SnapshotError(SnapshotErrc::kCorrupt, "unknown count engine mode");
  if (batch_cap_slot != 0)
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "nonzero batch cap (the knob is retired)");
  if (states.size() != counts.size())
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "species/count table length mismatch");
  std::uint64_t sum = 0;
  for (const std::uint64_t cnt : counts) {
    if (cnt > n - sum)  // overflow-safe running bound
      throw SnapshotError(SnapshotErrc::kCorrupt, "species counts exceed n");
    sum += cnt;
  }
  if (sum != n || n < 2)
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "species counts do not sum to n");
  std::uint64_t crashed_sum = 0;
  for (const auto& [s, cnt] : crashed) {
    if (cnt > crashed_n - crashed_sum)
      throw SnapshotError(SnapshotErrc::kCorrupt,
                          "crashed counts exceed crashed_n");
    crashed_sum += cnt;
  }
  if (crashed_sum != crashed_n || n + crashed_n != reader.population_n())
    throw SnapshotError(SnapshotErrc::kCorrupt, "population size mismatch");
  std::unordered_map<State, std::size_t> staged_index;
  staged_index.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i)
    if (!staged_index.emplace(states[i], i).second)
      throw SnapshotError(SnapshotErrc::kCorrupt, "duplicate species entry");
  if (!(time >= 0.0) || !(events_total_weight >= 0.0))  // rejects NaN
    throw SnapshotError(SnapshotErrc::kCorrupt, "negative time or weight");

  // Commit with throw-free moves.
  states_ = std::move(states);
  counts_ = std::move(counts);
  index_ = std::move(staged_index);
  n_ = n;
  crashed_ = std::move(crashed);
  crashed_n_ = crashed_n;
  rng_.set_state(stream);
  mode_ = static_cast<CountEngineMode>(mode);
  use_cache_ = use_cache;
  use_skip_ = use_skip;
  silent_ = silent;
  time_ = time;
  interactions_ = interactions;
  effective_ = effective;
  window_steps_ = window_steps;
  window_effective_ = window_effective;
  events_total_weight_ = events_total_weight;
  ctr_ = ctr;
  cache_builds_base_ = ctr.cache_builds;
  cache_builds_floor_ = cache_.builds();
  events_.clear();  // derived; rebuild_events regenerates both
  cw_.clear();
  fen_.clear();
  bat_touched_.clear();
  bat_pairs_.clear();
  bat_out_.clear();
  bat_gap_.clear();
  bat_ores_.clear();
  bat_cum_.clear();
  bat_res_.clear();
  last_injection_round_ = std::floor(time_);
}

void CountEngine::reset_population(
    const std::vector<std::pair<State, std::uint64_t>>& counts) {
  states_.clear();
  counts_.clear();
  index_.clear();
  fen_.clear();
  n_ = 0;
  for (const auto& [s, c] : counts) add_count(s, c);
  POPPROTO_CHECK_MSG(n_ >= 2, "population needs at least 2 agents");
  // A fresh deal may re-enable rules; everything derived from the old
  // species table is rebuilt lazily on the next step.
  silent_ = false;
  events_.clear();
  cw_.clear();
  events_total_weight_ = 0.0;
  window_steps_ = window_effective_ = 0;
}

std::uint64_t CountEngine::count_state(State s) const {
  auto it = index_.find(s);
  return it == index_.end() ? 0 : counts_[it->second];
}

std::uint64_t CountEngine::count_matching(const Guard& g) const {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < states_.size(); ++i)
    if (counts_[i] > 0 && g.matches(states_[i])) c += counts_[i];
  return c;
}

std::vector<std::pair<State, std::uint64_t>> CountEngine::species() const {
  std::vector<std::pair<State, std::uint64_t>> out;
  for (std::size_t i = 0; i < states_.size(); ++i)
    if (counts_[i] > 0) out.emplace_back(states_[i], counts_[i]);
  return out;
}

std::vector<std::pair<State, std::uint64_t>> CountEngine::crashed_species()
    const {
  std::vector<std::pair<State, std::uint64_t>> out;
  for (const auto& [s, c] : crashed_)
    if (c > 0) out.emplace_back(s, c);
  return out;
}

}  // namespace popproto
