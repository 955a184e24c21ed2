// Memoized per-pair transition kernel (DESIGN.md §6, ISSUE 2 tentpole).
//
// The paper's constructions converge fast *because* their reachable state
// sets are tiny, so a simulator pays the same guard/rule work over and over
// for the same handful of ordered state pairs. This cache canonicalizes the
// whole scheduler step — thread choice u.a.r., rule choice u.a.r. within the
// thread, then the rule's weighted-outcome draw — into ONE fused distribution
// over [0, 1): every (thread, rule) gets a fixed-width slot (empty threads
// keep their width as a no-op slot, preserving the §2.2 rule-count padding
// convention), and each outcome a sub-interval of its slot. An interaction is
// then a single `Rng::uniform()` draw located in that partition.
//
// Two evaluation paths share the SAME partition arithmetic bit for bit:
//
//  * `sample_uncached` walks the slots left to right, accumulating the
//    precomputed slot widths, evaluates the guards of the one slot the draw
//    landed in, and resolves the outcome from the precomputed per-outcome
//    running sums. No memoization beyond the per-protocol slot table.
//  * `sample` lazily interns the (initiator, responder) state pair on first
//    sight and replays the identical walk ONCE, recording the (cumulative
//    bound, result pair) breakpoints into a flat table (merging adjacent
//    segments with equal results and dropping the trailing no-op run). Later
//    draws reduce to a scan of that table — no guard evaluation, no rule
//    indirection.
//
// Because the breakpoints are the same running sums the uncached walk
// computes, both paths map every u in [0, 1) to the same result: cached and
// uncached engines follow bit-identical trajectories from the same seed.
//
// A pair-kernel thread (core/protocol.hpp) is one slot of the thread's full
// width; its outcomes, listed by the kernel for the pair at hand, take
// sub-intervals by the same running-sum arithmetic as a rule's. Every walk
// reads a slot's outcomes through one enumerator (for_each_outcome), so the
// memo is built for kernel pairs as for rule pairs, and the hot paths never
// see the difference.
//
// The conditional-on-change variants (`change_weight*`, `sample_change*`)
// serve CountEngine's skip-ahead: change_weight is the total fused
// probability mass of state-changing outcomes for the pair (the per-pair
// factor of an event weight), and sample_change draws one changing outcome
// proportionally to that mass — again with identical arithmetic cached and
// uncached.
//
// Capacity: pairs are memoized only while the number of distinct interned
// states stays within `max_states`; states beyond the cap simply fall back
// to the uncached walk (same results, just slower), so a protocol whose
// reachable space blows up degrades gracefully instead of eating memory.
//
// Lifetime: the cache keeps pointers into the Protocol's rule storage; the
// Protocol must outlive the cache and must not be mutated (add_thread /
// add_kernel_thread) after the cache is constructed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "core/rule.hpp"
#include "core/state.hpp"

namespace popproto {

/// Result of one fused interaction draw on an ordered state pair.
struct PairOutcome {
  State a;
  State b;
};

/// Result of an index-based fused draw: interned indices of the two result
/// states (see TransitionCache::sample_indexed).
struct IndexedPair {
  std::uint32_t a;
  std::uint32_t b;
};

class TransitionCache {
 public:
  /// Default cap on distinct memoized states. 1024 states bound the dense
  /// pair-index table at 4 MiB; the paper-scale protocols here stay well
  /// under it (phase clock ≈ 672 reachable states).
  static constexpr std::size_t kDefaultMaxStates = 1024;

  /// Sentinel for "no interned index" (state is past the cap).
  static constexpr std::uint32_t kNoState = ~0u;

  explicit TransitionCache(const Protocol& protocol,
                           std::size_t max_states = kDefaultMaxStates);

  /// Fused interaction: map the uniform draw `u` in [0, 1) to the outcome of
  /// one scheduler step on ordered pair (sa, sb). Memoizes the pair's
  /// distribution on first sight.
  PairOutcome sample(State sa, State sb, double u);
  /// Same map, recomputed from guards/outcomes every call (no memo lookup).
  PairOutcome sample_uncached(State sa, State sb, double u) const;

  /// Fused probability that one scheduler step on (sa, sb) changes at least
  /// one of the two states. This already folds in thread/rule selection, so
  /// it is the whole per-pair factor of an event weight.
  double change_weight(State sa, State sb);
  double change_weight_uncached(State sa, State sb) const;

  /// Draw an outcome conditioned on "some state changes" from `u01` in
  /// [0, 1). Precondition: change_weight(sa, sb) > 0.
  PairOutcome sample_change(State sa, State sb, double u01);
  PairOutcome sample_change_uncached(State sa, State sb, double u01) const;

  /// View of a pair's conditional-on-change outcome distribution as the
  /// memoized breakpoint arrays: `count` categories with cumulative masses
  /// `cum[0..count)` (absolute fused mass; cum[count-1] == change_weight)
  /// and result pairs `res[0..count)`. `count == 0` iff the pair never
  /// changes state. Serves the batch sampler (DESIGN.md §9), which turns K
  /// same-pair interactions into one multinomial over these categories.
  struct ChangeDistView {
    double change_weight = 0.0;
    const double* cum = nullptr;
    const PairOutcome* res = nullptr;
    std::uint32_t count = 0;
  };
  /// Memoized view (builds the pair on first sight). Pointers are valid
  /// only until the next cache build — consume before touching another
  /// pair. Returns false when the pair cannot be memoized (state cap);
  /// callers then fall back to change_dist_uncached.
  bool change_dist(State sa, State sb, ChangeDistView* out);
  /// Same distribution enumerated into caller storage (appended), no memo.
  /// Returns the pair's change weight.
  double change_dist_uncached(State sa, State sb, std::vector<double>& cum,
                              std::vector<PairOutcome>& res) const;

  // -- Index-based fast path ------------------------------------------------
  // A caller that tracks interned indices alongside its agents (Engine keeps
  // one per agent) skips the State -> index hash probe entirely: the
  // steady-state interaction is a pair-table load plus a breakpoint scan.

  /// Interned index of `s` (interning it if new); kNoState past the cap.
  std::uint32_t state_index(State s) { return intern(s); }
  /// State behind a valid interned index.
  State state_at(std::uint32_t idx) const { return states_[idx]; }
  /// `sample` on a pair already interned as (ia, ib). Maps the same `u` to
  /// the same outcome as sample/sample_uncached on the underlying states.
  /// A component of the result is kNoState when that result state could not
  /// be interned (cap reached); the caller must then fall back to `sample`.
  /// Defined inline: this is the steady-state interaction kernel. The dense
  /// bounds table carries each pair's last breakpoint, so the dominant case
  /// — the draw lands in the trailing no-op mass — resolves with a single
  /// 8-byte load from a table small enough to stay cache-hot (an unbuilt
  /// pair has bound = +inf, which routes every draw to the build branch; a
  /// built pure-no-op pair has bound = 0). Only state-changing draws touch
  /// the ref table and the breakpoint array.
  IndexedPair sample_indexed(std::uint32_t ia, std::uint32_t ib, double u) {
    std::size_t off = ia * stride_ + ib;
    if (u >= pair_bounds_[off]) [[likely]]
      return IndexedPair{ia, ib};
    std::uint64_t ref = pair_uref_[off];
    if (ref == kUnbuiltRef) [[unlikely]] {
      ref = build_pair_ref(ia, ib);
      off = ia * stride_ + ib;  // build may re-stride the tables
      if (u >= pair_bounds_[off]) return IndexedPair{ia, ib};
    }
    const UEntry* e = uentries_.data() + (ref >> 32);
    const auto m = static_cast<std::uint32_t>(ref);
    for (std::uint32_t k = 0; k < m; ++k)
      if (u < e[k].cum) return IndexedPair{e[k].a, e[k].b};
    return IndexedPair{ia, ib};
  }

  /// Vectorized batch companion to sample_indexed (dispatched through
  /// support/simd.hpp): bit j of the result is set when u[j] < the pair's
  /// last breakpoint — the draw may change state, or the pair is unbuilt
  /// (bound = +inf) — and lane j must be resolved through sample_indexed.
  /// Clear bits are proven no-ops. All indices must be valid interned
  /// indices; k <= 64. Const (no build, no re-stride), and the lane
  /// classification survives builds triggered by slow lanes afterwards: a
  /// built pair's bound value is preserved across re-striding, and unbuilt
  /// pairs were classified slow to begin with.
  std::uint64_t prescan_slow(const std::uint32_t* ia, const std::uint32_t* ib,
                             const double* u, std::size_t k) const;

  /// Distinct states interned so far (grows lazily, capped at max_states()).
  std::size_t num_states() const { return states_.size(); }
  /// Ordered pairs with a memoized distribution so far.
  std::size_t num_pairs() const { return dists_.size(); }
  std::size_t max_states() const { return max_states_; }
  /// True once some state failed to intern because the cap was reached
  /// (those states fall back to the uncached walk; results are unchanged).
  bool cap_reached() const { return cap_reached_; }
  /// Pair distributions built so far (first-sight misses; telemetry cheap
  /// tier — each build is already a slow-path event).
  std::uint64_t builds() const { return builds_; }

 private:
  // One scheduler slot: a (thread, rule), a kernel thread (`kernel` set), or
  // an empty thread's padding slot (both null: pure no-op mass). `width` is
  // the slot's selection probability 1 / (num_threads * thread_rules); a
  // rule's outcomes occupy ocum_/omass_[obegin, oend).
  struct Slot {
    const Rule* rule;
    const PairKernel* kernel;
    double width;
    std::uint32_t obegin;
    std::uint32_t oend;
  };

  // Memoized distribution of one ordered state pair: unconditional
  // breakpoints in ucum_/ures_[ubegin, uend) (u >= last bound => no-op) and
  // conditional-on-change breakpoints in ccum_/cres_[cbegin, cend).
  struct Dist {
    double change_weight;
    std::uint32_t ubegin;
    std::uint32_t uend;
    std::uint32_t cbegin;
    std::uint32_t cend;
  };

  // One breakpoint of a memoized unconditional distribution, laid out so the
  // sample_indexed scan touches a single contiguous 16-byte stream.
  struct UEntry {
    double cum;
    std::uint32_t a;  // interned result indices (kNoState past the cap)
    std::uint32_t b;
  };

  static constexpr std::uint32_t kNoIndex = kNoState;
  static constexpr std::int32_t kUnbuilt = -1;
  static constexpr std::uint64_t kUnbuiltRef = ~0ull;

  /// Visit the outcomes of slot `s` (starting at `c` in [0, 1)) on the pair
  /// (sa, sb) in order, as visit(bound, mass, result): `bound` is the
  /// outcome's absolute running-sum breakpoint, `mass` its fused
  /// probability. A padding slot or a rule whose guards miss visits nothing.
  /// `visit` returns true to stop the walk; the result is then true.
  template <class Visit>
  bool for_each_outcome(const Slot& s, double c, State sa, State sb,
                        Visit&& visit) const;
  /// Index of `s` in states_, interning it if new; kNoIndex when the state
  /// cap prevents interning.
  std::uint32_t intern(State s);
  /// Memoized distribution for the pair, building it on first sight;
  /// nullptr when either state is past the cap.
  const Dist* pair_dist(State sa, State sb);
  /// Same, for a pair already interned (both indices valid).
  const Dist* pair_dist_indexed(std::uint32_t ia, std::uint32_t ib);
  /// Slow path of sample_indexed: build the pair's distribution and return
  /// its freshly written pair_uref_ entry.
  std::uint64_t build_pair_ref(std::uint32_t ia, std::uint32_t ib);
  std::int32_t build_dist(State sa, State sb);
  void grow_stride(std::size_t need);

  // -- Per-protocol fused partition (built once in the constructor) ---------
  std::vector<Slot> slots_;
  // Flat per-outcome tables, indexed by Slot::obegin + k for outcome k:
  // ocum_[i] is the running sum width * (p_0 + ... + p_k) clamped to the slot
  // width (float-slack guard; Rule permits sums up to 1 + 1e-12), omass_[i]
  // is width * p_k. Both paths use these exact values, never recomputing the
  // products, so their comparisons agree bit for bit.
  std::vector<double> ocum_;
  std::vector<double> omass_;

  // -- Lazy memo ------------------------------------------------------------
  std::size_t max_states_;
  bool cap_reached_ = false;
  std::uint64_t builds_ = 0;
  std::vector<State> states_;
  // Open-addressing State -> index map (power-of-two capacity, linear probe).
  std::vector<State> map_keys_;
  std::vector<std::uint32_t> map_vals_;
  std::size_t map_mask_ = 0;
  // Dense (ia * stride_ + ib) -> index into dists_, kUnbuilt when absent.
  // stride_ doubles as states accumulate; dist indices survive re-striding.
  std::size_t stride_ = 0;
  std::vector<std::int32_t> pair_dist_idx_;
  // Parallel dense tables for the indexed hot path (split so the load that
  // resolves ~99% of draws — the bound check — stays in the smallest
  // possible footprint; see sample_indexed). pair_uref_ packs
  // (begin << 32 | count) into uentries_, kUnbuiltRef when absent.
  std::vector<double> pair_bounds_;
  std::vector<std::uint64_t> pair_uref_;
  std::vector<UEntry> uentries_;
  std::vector<Dist> dists_;
  std::vector<double> ucum_;
  std::vector<PairOutcome> ures_;
  std::vector<double> ccum_;
  std::vector<PairOutcome> cres_;
};

}  // namespace popproto
