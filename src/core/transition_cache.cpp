#include "core/transition_cache.hpp"

#include <limits>

#include "support/check.hpp"

namespace popproto {

namespace {

// Fibonacci hashing spreads the (sparse, structured) state bit patterns
// across the probe table. The product's high half is folded in because its
// low bits see only s's low bits, which many states share (a plurality
// program's full 1024-state cache spent most of its time in the probes of
// its misses).
inline std::size_t hash_state(State s) {
  const std::uint64_t h = s * 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

inline bool changes(const PairOutcome& o, State sa, State sb) {
  return o.a != sa || o.b != sb;
}

}  // namespace

TransitionCache::TransitionCache(const Protocol& protocol,
                                 std::size_t max_states)
    : max_states_(max_states) {
  const auto& threads = protocol.threads();
  const double thread_p =
      threads.empty() ? 0.0 : 1.0 / static_cast<double>(threads.size());
  for (const auto& t : threads) {
    if (t.is_kernel() || t.rules.empty()) {
      // A kernel thread is one slot; an empty thread's whole selection mass
      // is a no-op (padding slot).
      slots_.push_back(Slot{nullptr, t.is_kernel() ? &t.kernel : nullptr,
                            thread_p, 0, 0});
      continue;
    }
    const double w = thread_p / static_cast<double>(t.rules.size());
    for (const auto& r : t.rules) {
      Slot s;
      s.rule = &r;
      s.kernel = nullptr;
      s.width = w;
      s.obegin = static_cast<std::uint32_t>(ocum_.size());
      double cum = 0.0;
      for (const auto& o : r.outcomes()) {
        cum += o.probability;
        double bound = w * cum;
        if (bound > w) bound = w;
        ocum_.push_back(bound);
        omass_.push_back(w * o.probability);
      }
      s.oend = static_cast<std::uint32_t>(ocum_.size());
      slots_.push_back(s);
    }
  }

  // Probe table sized for the cap up front (load factor <= 1/2).
  std::size_t cap = 16;
  while (cap < 2 * max_states_) cap <<= 1;
  map_keys_.assign(cap, 0);
  map_vals_.assign(cap, kNoIndex);
  map_mask_ = cap - 1;
}

template <class Visit>
bool TransitionCache::for_each_outcome(const Slot& s, double c, State sa,
                                       State sb, Visit&& visit) const {
  if (s.kernel != nullptr) {
    // The list is consumed before the next kernel call on this thread.
    thread_local std::vector<KernelOutcome> outs;
    outs.clear();
    s.kernel->outcomes(sa, sb, outs);
    // The rule slots' ocum_/omass_ arithmetic, done per pair.
    double cum = 0.0;
    for (const KernelOutcome& o : outs) {
      cum += o.probability;
      double bound = s.width * cum;
      if (bound > s.width) bound = s.width;
      if (visit(c + bound, s.width * o.probability,
                PairOutcome{o.initiator, o.responder}))
        return true;
    }
    return false;
  }
  if (s.rule == nullptr || !s.rule->matches(sa, sb)) return false;
  const auto& outs = s.rule->outcomes();
  for (std::uint32_t k = s.obegin; k != s.oend; ++k) {
    const Outcome& o = outs[k - s.obegin];
    if (visit(c + ocum_[k], omass_[k],
              PairOutcome{o.initiator.apply(sa), o.responder.apply(sb)}))
      return true;
  }
  return false;
}

PairOutcome TransitionCache::sample_uncached(State sa, State sb,
                                             double u) const {
  double c = 0.0;
  for (const Slot& s : slots_) {
    const double end = c + s.width;
    if (u >= end) {
      c = end;
      continue;
    }
    // The draw landed in this slot; only now evaluate its outcomes. A
    // padding slot, a guard miss or the residual mass is a no-op.
    PairOutcome hit{sa, sb};
    for_each_outcome(s, c, sa, sb,
                     [&](double bound, double, const PairOutcome& r) {
                       if (u >= bound) return false;
                       hit = r;
                       return true;
                     });
    return hit;
  }
  return PairOutcome{sa, sb};  // float slack past the last slot
}

double TransitionCache::change_weight_uncached(State sa, State sb) const {
  thread_local std::vector<double> cum;
  thread_local std::vector<PairOutcome> res;
  cum.clear();
  res.clear();
  return change_dist_uncached(sa, sb, cum, res);
}

PairOutcome TransitionCache::sample_change_uncached(State sa, State sb,
                                                    double u01) const {
  // The conditional distribution's breakpoints, scanned as sample_change
  // scans the memoized ones; a merged run of equal results ends at the
  // running sum its last outcome would have had, so both pick the same.
  thread_local std::vector<double> cum;
  thread_local std::vector<PairOutcome> res;
  cum.clear();
  res.clear();
  const double u = u01 * change_dist_uncached(sa, sb, cum, res);
  if (res.empty()) return PairOutcome{sa, sb};
  for (std::size_t k = 0; k + 1 < res.size(); ++k)
    if (u < cum[k]) return res[k];
  return res.back();  // last changing outcome doubles as the slack fallback
}

bool TransitionCache::change_dist(State sa, State sb, ChangeDistView* out) {
  const Dist* d = pair_dist(sa, sb);
  if (d == nullptr) return false;
  out->change_weight = d->change_weight;
  out->cum = ccum_.data() + d->cbegin;
  out->res = cres_.data() + d->cbegin;
  out->count = d->cend - d->cbegin;
  return true;
}

double TransitionCache::change_dist_uncached(
    State sa, State sb, std::vector<double>& cum,
    std::vector<PairOutcome>& res) const {
  // Running change mass per changing outcome, adjacent equal-result
  // segments merged (build_dist stores exactly this for memoized pairs).
  const std::size_t base = cum.size();
  double cw = 0.0;
  for (const Slot& s : slots_)
    for_each_outcome(s, 0.0, sa, sb,
                     [&](double, double mass, const PairOutcome& r) {
                       if (!changes(r, sa, sb)) return false;
                       cw += mass;
                       if (cum.size() > base && res.back().a == r.a &&
                           res.back().b == r.b) {
                         cum.back() = cw;
                       } else {
                         cum.push_back(cw);
                         res.push_back(r);
                       }
                       return false;
                     });
  return cw;
}

std::uint32_t TransitionCache::intern(State s) {
  std::size_t i = hash_state(s) & map_mask_;
  while (map_vals_[i] != kNoIndex) {
    if (map_keys_[i] == s) return map_vals_[i];
    i = (i + 1) & map_mask_;
  }
  if (states_.size() >= max_states_) {
    cap_reached_ = true;
    return kNoIndex;
  }
  const auto idx = static_cast<std::uint32_t>(states_.size());
  states_.push_back(s);
  map_keys_[i] = s;
  map_vals_[i] = idx;
  if (states_.size() > stride_) grow_stride(states_.size());
  return idx;
}

void TransitionCache::grow_stride(std::size_t need) {
  std::size_t ns = stride_ == 0 ? 64 : stride_;
  while (ns < need) ns <<= 1;
  if (ns > max_states_) ns = max_states_;
  if (ns == stride_) return;
  std::vector<std::int32_t> grown(ns * ns, kUnbuilt);
  std::vector<double> grown_bounds(ns * ns,
                                   std::numeric_limits<double>::infinity());
  std::vector<std::uint64_t> grown_ref(ns * ns, kUnbuiltRef);
  for (std::size_t ia = 0; ia < stride_; ++ia)
    for (std::size_t ib = 0; ib < stride_; ++ib) {
      grown[ia * ns + ib] = pair_dist_idx_[ia * stride_ + ib];
      grown_bounds[ia * ns + ib] = pair_bounds_[ia * stride_ + ib];
      grown_ref[ia * ns + ib] = pair_uref_[ia * stride_ + ib];
    }
  pair_dist_idx_ = std::move(grown);
  pair_bounds_ = std::move(grown_bounds);
  pair_uref_ = std::move(grown_ref);
  stride_ = ns;
}

const TransitionCache::Dist* TransitionCache::pair_dist(State sa, State sb) {
  const std::uint32_t ia = intern(sa);
  if (ia == kNoIndex) return nullptr;
  const std::uint32_t ib = intern(sb);
  if (ib == kNoIndex) return nullptr;
  return pair_dist_indexed(ia, ib);
}

const TransitionCache::Dist* TransitionCache::pair_dist_indexed(
    std::uint32_t ia, std::uint32_t ib) {
  std::int32_t at = pair_dist_idx_[ia * stride_ + ib];
  if (at == kUnbuilt) [[unlikely]] {
    at = build_dist(states_[ia], states_[ib]);
    // build_dist interns result states, which can re-stride the pair tables;
    // recompute the offset rather than writing through a stale reference.
    const Dist& d = dists_[static_cast<std::size_t>(at)];
    pair_dist_idx_[ia * stride_ + ib] = at;
    pair_bounds_[ia * stride_ + ib] =
        d.uend > d.ubegin ? ucum_[d.uend - 1] : 0.0;
    pair_uref_[ia * stride_ + ib] =
        (static_cast<std::uint64_t>(d.ubegin) << 32) | (d.uend - d.ubegin);
  }
  return &dists_[static_cast<std::size_t>(at)];
}

std::uint64_t TransitionCache::build_pair_ref(std::uint32_t ia,
                                              std::uint32_t ib) {
  pair_dist_indexed(ia, ib);
  return pair_uref_[ia * stride_ + ib];
}

std::int32_t TransitionCache::build_dist(State sa, State sb) {
  ++builds_;
  // Replay of the sample_uncached / change-weight walks, recording each
  // outcome's running-sum breakpoint. The recorded bounds are the exact
  // doubles the walks compare against, so "first breakpoint > u" selects the
  // same result as the walk for every u.
  Dist d;
  d.ubegin = static_cast<std::uint32_t>(ucum_.size());
  d.cbegin = static_cast<std::uint32_t>(ccum_.size());
  const auto push_u = [&](double bound, PairOutcome r) {
    if (ucum_.size() > d.ubegin) {
      if (ures_.back().a == r.a && ures_.back().b == r.b) {
        ucum_.back() = bound;  // extend the previous equal-result segment
        return;
      }
      if (bound <= ucum_.back()) return;  // zero-width segment: unreachable
    }
    ucum_.push_back(bound);
    ures_.push_back(r);
  };
  double c = 0.0;
  for (const Slot& s : slots_) {
    const double end = c + s.width;
    for_each_outcome(s, c, sa, sb, [&](double bound, double, PairOutcome r) {
      push_u(bound, r);
      return false;
    });
    push_u(end, PairOutcome{sa, sb});
    c = end;
  }
  // Draws past the last kept breakpoint are no-ops; drop the trailing run.
  while (ucum_.size() > d.ubegin && ures_.back().a == sa &&
         ures_.back().b == sb) {
    ucum_.pop_back();
    ures_.pop_back();
  }
  d.uend = static_cast<std::uint32_t>(ucum_.size());
  // The conditional-on-change breakpoints are the uncached change
  // distribution's, appended in place.
  d.change_weight = change_dist_uncached(sa, sb, ccum_, cres_);
  d.cend = static_cast<std::uint32_t>(ccum_.size());
  // Mirror the kept breakpoints as interned-index entries for the
  // sample_indexed scan (uentries_ stays index-aligned with ucum_: every
  // build appends exactly uend - ubegin entries to both). Interning result
  // states may grow states_/stride_; the caller recomputes any pair-table
  // offset after this returns.
  for (std::uint32_t i = d.ubegin; i != d.uend; ++i)
    uentries_.push_back(
        UEntry{ucum_[i], intern(ures_[i].a), intern(ures_[i].b)});
  dists_.push_back(d);
  return static_cast<std::int32_t>(dists_.size() - 1);
}

PairOutcome TransitionCache::sample(State sa, State sb, double u) {
  const Dist* d = pair_dist(sa, sb);
  if (d == nullptr) return sample_uncached(sa, sb, u);
  const double* cum = ucum_.data() + d->ubegin;
  const PairOutcome* res = ures_.data() + d->ubegin;
  const std::uint32_t m = d->uend - d->ubegin;
  for (std::uint32_t k = 0; k < m; ++k)
    if (u < cum[k]) return res[k];
  return PairOutcome{sa, sb};
}

double TransitionCache::change_weight(State sa, State sb) {
  const Dist* d = pair_dist(sa, sb);
  if (d == nullptr) return change_weight_uncached(sa, sb);
  return d->change_weight;
}

PairOutcome TransitionCache::sample_change(State sa, State sb, double u01) {
  const Dist* d = pair_dist(sa, sb);
  if (d == nullptr) return sample_change_uncached(sa, sb, u01);
  POPPROTO_DCHECK(d->cend > d->cbegin);
  const double u = u01 * d->change_weight;
  const double* cum = ccum_.data() + d->cbegin;
  const PairOutcome* res = cres_.data() + d->cbegin;
  const std::uint32_t m = d->cend - d->cbegin;
  for (std::uint32_t k = 0; k + 1 < m; ++k)
    if (u < cum[k]) return res[k];
  return res[m - 1];  // last changing outcome doubles as the slack fallback
}

}  // namespace popproto
