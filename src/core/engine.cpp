#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>
#include <unordered_map>

#include "persist/snapshot.hpp"

namespace popproto {

Engine::Engine(const Protocol& protocol, std::vector<State> initial_states,
               std::uint64_t seed, SchedulerKind scheduler)
    : protocol_(protocol),
      states_(std::move(initial_states)),
      rng_(seed),
      scheduler_(scheduler),
      cache_(protocol) {
  POPPROTO_CHECK_MSG(states_.size() >= 2, "population needs at least 2 agents");
  POPPROTO_CHECK(protocol_.num_rules() > 0);
  active_.resize(states_.size());
  std::iota(active_.begin(), active_.end(), 0u);
  pos_in_active_ = active_;
  inv_active_ = 1.0 / static_cast<double>(active_.size());
  resync_sidx();
}

void Engine::set_transition_cache(bool enabled) {
  if (enabled && !use_cache_) resync_sidx();
  use_cache_ = enabled;
}

void Engine::set_injection_hook(InjectionHook hook) {
  injection_ = std::move(hook);
  last_injection_round_ = std::floor(time_);
}

void Engine::set_scheduler_bias(std::optional<SchedulerBias> bias) {
  bias_ = std::move(bias);
}

void Engine::crash_agent(std::size_t i) {
  POPPROTO_CHECK(i < states_.size());
  if (!is_active(i)) return;
  POPPROTO_CHECK_MSG(active_.size() > 2,
                     "at least two agents must stay scheduled");
  const std::uint32_t p = pos_in_active_[i];
  const std::uint32_t last = active_.back();
  active_[p] = last;
  pos_in_active_[last] = p;
  active_.pop_back();
  pos_in_active_[i] = kNotActive;
  inv_active_ = 1.0 / static_cast<double>(active_.size());
  active_identity_ = false;
  if (counts_live()) --species_n_[sidx_[i]];
  ++ctr_.crash_events;
  if (trace_) trace_->push(EventKind::kChurnCrash, time_, 1.0);
}

void Engine::rejoin_agent(std::size_t i) {
  POPPROTO_CHECK(i < states_.size());
  if (is_active(i)) return;
  pos_in_active_[i] = static_cast<std::uint32_t>(active_.size());
  active_.push_back(static_cast<std::uint32_t>(i));
  inv_active_ = 1.0 / static_cast<double>(active_.size());
  if (counts_live()) ++species_n_[sidx_[i]];
  ++ctr_.rejoin_events;
  if (trace_) trace_->push(EventKind::kChurnRejoin, time_, 1.0);
}

void Engine::rejoin_agent(std::size_t i, State fresh) {
  rejoin_agent(i);
  set_state(i, fresh);
}

std::uint64_t Engine::crash_random(std::uint64_t k, Rng& rng) {
  std::vector<std::uint32_t> pool = active_;
  if (pool.size() <= 2) return 0;
  k = std::min<std::uint64_t>(k, pool.size() - 2);
  for (std::uint64_t j = 0; j < k; ++j) {
    std::swap(pool[j], pool[j + rng.below(pool.size() - j)]);
    crash_agent(pool[j]);
  }
  return k;
}

std::uint64_t Engine::rejoin_random(std::uint64_t k, Rng& rng) {
  std::vector<std::uint32_t> pool;
  for (std::size_t i = 0; i < states_.size(); ++i)
    if (!is_active(i)) pool.push_back(static_cast<std::uint32_t>(i));
  k = std::min<std::uint64_t>(k, pool.size());
  for (std::uint64_t j = 0; j < k; ++j) {
    std::swap(pool[j], pool[j + rng.below(pool.size() - j)]);
    rejoin_agent(pool[j]);  // stale state
  }
  return k;
}

std::uint64_t Engine::rejoin_all() {
  std::uint64_t k = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (is_active(i)) continue;
    rejoin_agent(i);
    ++k;
  }
  return k;
}

std::uint64_t Engine::mutate_random_agents(
    std::uint64_t k, Rng& rng,
    const std::function<State(State old_state, std::uint64_t j)>& f) {
  std::vector<std::uint32_t> pool = active_;
  k = std::min<std::uint64_t>(k, pool.size());
  std::uint64_t rewritten = 0;
  for (std::uint64_t j = 0; j < k; ++j) {
    std::swap(pool[j], pool[j + rng.below(pool.size() - j)]);
    const std::uint32_t victim = pool[j];
    const State old_state = states_[victim];
    const State ns = f(old_state, j);
    if (ns == old_state) continue;
    set_state(victim, ns);
    ++rewritten;
  }
  ctr_.corrupted_agents += rewritten;
  if (trace_ && k > 0)
    trace_->push(EventKind::kFaultInjected, time_,
                 static_cast<double>(rewritten));
  return k;
}

void Engine::intern_all(const std::vector<State>& states,
                        const std::vector<std::uint32_t>& pos,
                        std::vector<std::uint32_t>& sidx,
                        std::vector<std::uint64_t>& counts) {
  // A run of equal states (a uniform start, a converged population) reuses
  // the previous index instead of probing the hash again, and adds its
  // active agents to the count once, at the run's end.
  sidx.resize(states.size());
  counts.assign(cache_.max_states(), 0);
  std::uint32_t idx = TransitionCache::kNoState;
  std::uint64_t run = 0;
  const auto end_run = [&] {
    if (idx != TransitionCache::kNoState) counts[idx] += run;
  };
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (i == 0 || states[i] != states[i - 1]) {
      end_run();
      idx = cache_.state_index(states[i]);
      run = 0;
    }
    sidx[i] = idx;
    run += pos[i] != kNotActive;
  }
  end_run();
}

void Engine::resync_sidx() {
  intern_all(states_, pos_in_active_, sidx_, species_n_);
}

void Engine::set_state(std::size_t i, State s) {
  POPPROTO_CHECK(i < states_.size());
  states_[i] = s;
  if (!use_cache_) return;  // turning the cache back on resyncs
  const std::uint32_t idx = cache_.state_index(s);
  if (!cache_.cap_reached() && is_active(i)) {
    --species_n_[sidx_[i]];
    ++species_n_[idx];
  }
  sidx_[i] = idx;
}

void Engine::resolve_cached(std::uint32_t a, std::uint32_t b, double u) {
  // Index-based fast path: sidx_ shadows each agent's interned state index,
  // so the steady-state interaction is two index loads, one pair-bound load,
  // and (only when the draw changes a state) a breakpoint scan — no hashing,
  // no guard work.
  std::uint32_t ia = sidx_[a];
  if (ia == TransitionCache::kNoState) [[unlikely]]
    ia = sidx_[a] = cache_.state_index(states_[a]);
  std::uint32_t ib = sidx_[b];
  if (ib == TransitionCache::kNoState) [[unlikely]]
    ib = sidx_[b] = cache_.state_index(states_[b]);
  if (ia != TransitionCache::kNoState && ib != TransitionCache::kNoState)
      [[likely]] {
    const IndexedPair r = cache_.sample_indexed(ia, ib, u);
    if (r.a != TransitionCache::kNoState &&
        r.b != TransitionCache::kNoState) [[likely]] {
#ifdef POPPROTO_PROFILE
      ++ctr_.cache_hits;  // detailed tier: per-draw accounting
#endif
      if (r.a == ia && r.b == ib) [[likely]]
        return;
      if (r.a != ia) {
        states_[a] = cache_.state_at(r.a);
        sidx_[a] = r.a;
        --species_n_[ia];
        ++species_n_[r.a];
      }
      if (r.b != ib) {
        states_[b] = cache_.state_at(r.b);
        sidx_[b] = r.b;
        --species_n_[ib];
        ++species_n_[r.b];
      }
      ++ctr_.effective_steps;
      return;
    }
  }
  // Cap overflow on an input or result state: resolve by value. sidx_
  // entries for changed agents are reset so the miss path relearns them;
  // past the cap the species counts are no longer read.
  ++ctr_.cache_fallbacks;
  const State sa = states_[a];
  const State sb = states_[b];
  const PairOutcome o = cache_.sample(sa, sb, u);
  if (o.a != sa || o.b != sb) ++ctr_.effective_steps;
  if (o.a != sa) {
    states_[a] = o.a;
    sidx_[a] = TransitionCache::kNoState;
  }
  if (o.b != sb) {
    states_[b] = o.b;
    sidx_[b] = TransitionCache::kNoState;
  }
}

void Engine::interact(std::uint32_t a, std::uint32_t b) {
  if (injection_.drop_interaction && injection_.drop_interaction(rng_)) {
    ++ctr_.dropped_interactions;
    return;
  }
  // One fused draw covers thread choice, rule choice, and the outcome coin
  // (core/transition_cache.hpp); both kernel paths resolve it identically.
  const double u = rng_.uniform();
  if (use_cache_) {
    resolve_cached(a, b, u);
    return;
  }
  const State sa = states_[a];
  const State sb = states_[b];
  const PairOutcome o = cache_.sample_uncached(sa, sb, u);
  if (o.a != sa || o.b != sb) ++ctr_.effective_steps;
  if (o.a != sa) states_[a] = o.a;
  if (o.b != sb) states_[b] = o.b;
}

void Engine::bias_sequential_pair(std::uint32_t& a, std::uint32_t b) {
  if (!bias_ || bias_->epsilon <= 0.0) return;
  if (!rng_.chance(bias_->epsilon)) return;
  for (int t = 0; t < bias_->tries; ++t) {
    const auto cand = active_[rng_.below(active_.size())];
    if (cand == b) continue;
    a = cand;
    if (bias_->prefer.matches(states_[a])) break;
  }
}

void Engine::sequential_step() {
  const auto [pa, pb] = rng_.distinct_pair(active_.size());
  // Until the first crash, active_ is the identity permutation; skip the
  // indirection (one dependent load per agent on the hot path).
  std::uint32_t a = active_identity_ ? static_cast<std::uint32_t>(pa)
                                     : active_[pa];
  const std::uint32_t b = active_identity_ ? static_cast<std::uint32_t>(pb)
                                           : active_[pb];
  bias_sequential_pair(a, b);
  ++interactions_;
  time_ += inv_active_;
  interact(a, b);
}

void Engine::matching_step() {
  sample_random_matching(active_.size(), rng_, matching_buf_);
  for (const auto& [pa, pb] : matching_buf_) {
    std::uint32_t a = active_[pa];
    std::uint32_t b = active_[pb];
    if (bias_ && bias_->epsilon > 0.0 && rng_.chance(bias_->epsilon) &&
        !bias_->prefer.matches(states_[a]) &&
        bias_->prefer.matches(states_[b]))
      std::swap(a, b);
    interact(a, b);
  }
  interactions_ += matching_buf_.size();
  time_ += 1.0;
}

bool Engine::step() {
  if (scheduler_ == SchedulerKind::kSequential) {
    sequential_step();
  } else {
    matching_step();
  }
  // Every whole-round boundary crossed fires once, even when one activation
  // (a matching round, or a hook installed mid-run) spans several.
  fire_crossed_rounds(injection_, last_injection_round_, time_);
  return true;
}

void Engine::advance(std::uint64_t max_steps, double target_time) {
  // Plain means sequential scheduler, cached kernel, no bias, no hooks and
  // no churn so far. No hook can run inside the block loop, so the guard
  // holds for all of it. A block adds its steps' time first (the step
  // loop's own additions and stop test, so time_ stays bit-exact), then
  // draws their pairs and uniforms in the step loop's word order, then
  // resolves the lanes in order; the prefetches overlap the scattered
  // sidx_ loads with the draws.
  const bool plain = scheduler_ == SchedulerKind::kSequential && use_cache_ &&
                     !bias_ && !injection_.drop_interaction &&
                     !injection_.on_round && active_identity_;
  if (!plain) {
    for (std::uint64_t i = 0; i < max_steps && time_ < target_time; ++i)
      step();
    return;
  }
  const std::uint64_t n = active_.size();
  constexpr std::size_t kBlock = 16;
  std::uint32_t ba[kBlock], bb[kBlock];
  double bu[kBlock];
  std::uint64_t done = 0;
  while (done < max_steps && time_ < target_time) {
    const auto cap = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlock, max_steps - done));
    std::size_t m = 0;
    for (; m < cap && time_ < target_time; ++m) time_ += inv_active_;
    for (std::size_t j = 0; j < m; ++j) {
      const auto [a, b] = rng_.distinct_pair(n);
      ba[j] = static_cast<std::uint32_t>(a);
      bb[j] = static_cast<std::uint32_t>(b);
      bu[j] = rng_.uniform();
      __builtin_prefetch(&sidx_[a]);
      __builtin_prefetch(&sidx_[b]);
    }
    for (std::size_t j = 0; j < m; ++j) resolve_cached(ba[j], bb[j], bu[j]);
    interactions_ += m;
    done += m;
  }
}

void Engine::run_steps(std::uint64_t k) {
  advance(k, std::numeric_limits<double>::infinity());
}

void Engine::run_rounds(double rounds_to_run) {
  advance(std::numeric_limits<std::uint64_t>::max(), time_ + rounds_to_run);
}

EngineCounters Engine::counters() const {
  EngineCounters c = ctr_;
  c.interactions = interactions_;
  c.cache_builds = cache_builds_base_ + (cache_.builds() - cache_builds_floor_);
  return c;
}

void Engine::snapshot(std::ostream& out) const {
  SnapshotWriter w(out, backend_name(), protocol_fingerprint(protocol_),
                   states_.size());

  std::string core;
  BinWriter c(core);
  c.u8(static_cast<std::uint8_t>(scheduler_));
  c.u8(use_cache_ ? 1 : 0);
  c.f64(time_);
  c.u64(interactions_);
  w.section(SnapshotSection::kCore, core);

  // [n][states][m][active_], the layout of u64_vec + u32_vec, gathered
  // straight from the vectors instead of copied into a payload string.
  const std::uint64_t n_states = states_.size();
  const std::uint64_t n_active = active_.size();
  w.section(SnapshotSection::kPopulation,
            {bytes_of(n_states), bytes_of(states_), bytes_of(n_active),
             bytes_of(active_)});

  std::string rng;
  BinWriter r(rng);
  serialize_rng_streams(r, {rng_.state()});
  w.section(SnapshotSection::kRngStreams, rng);

  std::string ctrs;
  BinWriter k(ctrs);
  serialize_counters(k, counters());
  w.section(SnapshotSection::kCounters, ctrs);

  w.finish();
}

void Engine::restore(std::istream& in) {
  SnapshotReader reader(in, backend_name(), protocol_fingerprint(protocol_));

  // Parse every section, in writer order, into staging locals.
  BinReader& c = reader.section(SnapshotSection::kCore);
  const std::uint8_t scheduler = c.u8();
  const bool use_cache = c.u8() != 0;
  const double time = c.f64();
  const std::uint64_t interactions = c.u64();

  BinReader& p = reader.section(SnapshotSection::kPopulation);
  std::vector<State> states = p.u64_vec();
  std::vector<std::uint32_t> active = p.u32_vec();

  BinReader& r = reader.section(SnapshotSection::kRngStreams);
  const RngState stream = deserialize_rng_streams(r, 1).front();

  BinReader& k = reader.section(SnapshotSection::kCounters);
  const EngineCounters ctr = deserialize_counters(k);
  reader.finish();

  // Semantic validation — *this stays untouched until everything passed.
  if (scheduler > static_cast<std::uint8_t>(SchedulerKind::kRandomMatching))
    throw SnapshotError(SnapshotErrc::kCorrupt, "unknown scheduler kind");
  const std::size_t n = states.size();
  if (n != reader.population_n() || n < 2)
    throw SnapshotError(SnapshotErrc::kCorrupt, "population size mismatch");
  if (active.size() < 2 || active.size() > n)
    throw SnapshotError(SnapshotErrc::kCorrupt, "active set out of range");
  std::vector<char> seen(n, 0);
  bool identity = active.size() == n;
  for (std::size_t p = 0; p < active.size(); ++p) {
    const std::uint32_t id = active[p];
    if (id >= n || seen[id])
      throw SnapshotError(SnapshotErrc::kCorrupt, "invalid active agent id");
    seen[id] = 1;
    identity = identity && id == p;
  }
  if (!(time >= 0.0))  // also rejects NaN
    throw SnapshotError(SnapshotErrc::kCorrupt, "negative time base");

  // Stage the remaining allocations, then commit with throw-free moves.
  std::vector<std::uint32_t> pos(n, kNotActive);
  for (std::size_t p = 0; p < active.size(); ++p)
    pos[active[p]] = static_cast<std::uint32_t>(p);
  std::vector<std::uint32_t> fresh_sidx;
  std::vector<std::uint64_t> fresh_counts;
  intern_all(states, pos, fresh_sidx, fresh_counts);

  states_ = std::move(states);
  active_ = std::move(active);
  pos_in_active_ = std::move(pos);
  sidx_ = std::move(fresh_sidx);
  species_n_ = std::move(fresh_counts);
  inv_active_ = 1.0 / static_cast<double>(active_.size());
  active_identity_ = identity;
  rng_.set_state(stream);
  scheduler_ = static_cast<SchedulerKind>(scheduler);
  use_cache_ = use_cache;
  time_ = time;
  interactions_ = interactions;
  ctr_ = ctr;
  cache_builds_base_ = ctr.cache_builds;
  cache_builds_floor_ = cache_.builds();
  // The hook cadence resumes on the uninterrupted run's grid: the next firing
  // is the first whole round after the restored time.
  last_injection_round_ = std::floor(time_);
  matching_buf_.clear();
}

std::uint64_t Engine::count_matching(const Guard& g) const {
  std::uint64_t count = 0;
  if (counts_live()) {
    const std::size_t k = cache_.num_states();
    for (std::uint32_t s = 0; s < k; ++s)
      if (species_n_[s] != 0 && g.matches(cache_.state_at(s)))
        count += species_n_[s];
    return count;
  }
  for (const std::uint32_t i : active_)
    if (g.matches(states_[i])) ++count;
  return count;
}

std::vector<std::pair<State, std::uint64_t>> Engine::species() const {
  std::vector<std::pair<State, std::uint64_t>> out;
  if (counts_live()) {
    const std::size_t k = cache_.num_states();
    for (std::uint32_t s = 0; s < k; ++s)
      if (species_n_[s] != 0)
        out.emplace_back(cache_.state_at(s), species_n_[s]);
  } else {
    std::unordered_map<State, std::uint64_t> counts;
    for (const std::uint32_t i : active_) ++counts[states_[i]];
    out.assign(counts.begin(), counts.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace popproto
