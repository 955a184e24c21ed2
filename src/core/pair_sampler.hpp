// Exact discrete samplers for batched collision sampling (DESIGN.md §9).
//
// The batch mode of CountEngine replaces per-interaction RNG draws with a
// handful of distributional draws per ~√n interactions: the block's run
// length, one multivariate hypergeometric for the species of all its
// participants, multivariate hypergeometrics over that pool for the
// initiator/responder pair table (deal_pair_table), and binomial/multinomial
// draws for aggregate rule outcomes. All samplers here are exact (inversion
// in the small-mean regime, BTRS / HRUA-style rejection above it) and draw
// only from the caller's Rng, so batched runs stay seed-reproducible like
// everything else in the library.
//
// These generalize the sequential without-replacement loop that
// CountEngine::mutate_random_agents has always used for fault corruption:
// one hypergeometric per species instead of one urn scan per victim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace popproto {

/// log(k!) — an exact table below 2^14, Stirling's series above it.
/// Accurate to ~1e-10, thread-safe (no signgam global, unlike lgamma on
/// glibc).
double log_factorial(std::uint64_t k);

/// Binomial(n, p): number of successes in n trials. Exact: inversion when
/// n * min(p, 1-p) is small, Hörmann's BTRS transformed rejection (with the
/// exact log-pmf acceptance test) otherwise.
std::uint64_t sample_binomial(Rng& rng, std::uint64_t n, double p);

/// Hypergeometric: successes when drawing `sample` items without replacement
/// from `good` + `bad` items. Exact: inversion in the small regime, HRUA
/// ratio-of-uniforms rejection (Stadlober) above it.
std::uint64_t sample_hypergeometric(Rng& rng, std::uint64_t good,
                                    std::uint64_t bad, std::uint64_t sample);

/// Multivariate hypergeometric: draw `draws` items without replacement from
/// species with counts `counts[0..k)` summing to `total`; writes per-species
/// draw counts into `out[0..k)` (resized). Marginal factorization: one
/// hypergeometric per species, early-exit when the budget is exhausted.
void sample_multivariate_hypergeometric(Rng& rng,
                                        const std::vector<std::uint64_t>& counts,
                                        std::uint64_t total,
                                        std::uint64_t draws,
                                        std::vector<std::uint64_t>& out);

/// Ordered species pairs of one collision-free block of `pairs`
/// interactions: 2 * pairs distinct agents drawn without replacement from
/// species counts `counts[0..S)` summing to `total`, paired in draw order as
/// (initiator, responder). Writes the S x S row-major table of pair counts,
/// table[i * S + j] = meetings of an initiator of species i with a responder
/// of species j, into `table` (resized), and removes the participants from
/// `counts`. Exact by exchangeability: one multivariate hypergeometric for
/// the participants' species (the only draw at population scale), one for
/// which of them initiate, and one per initiator row for its responders
/// from those not yet paired. Requires 2 * pairs <= total.
void deal_pair_table(Rng& rng, std::vector<std::uint64_t>& counts,
                     std::uint64_t total, std::uint64_t pairs,
                     std::vector<std::uint64_t>& table);

/// Multinomial(n; p): distribute n trials over k categories with
/// probabilities p[0..k) summing to `p_total` (pass the true sum so the
/// conditional binomials stay exact under float accumulation); writes counts
/// into `out[0..k)` (resized). Conditional-binomial factorization.
void sample_multinomial(Rng& rng, std::uint64_t n, const double* p,
                        std::size_t k, double p_total,
                        std::vector<std::uint64_t>& out);

/// Length of the collision-free prefix of a uniform-pair interaction
/// sequence, truncated at `lmax`: the number of consecutive interactions
/// whose participants are all distinct from each other and from `touched`
/// prior participants, in a population of n = m + touched agents with m
/// untouched. Returns min(L*, lmax) where
///   P(L* >= l) = m! / (m-2l)! / (n(n-1))^l ,
/// and sets `*collided` to whether L* < lmax (the run ended in a collision
/// rather than at the truncation bound). Exact inversion of the log
/// survival function: the search starts at the root of its second-order
/// expansion and closes a bracket in about two probes, each a table load or
/// one log1p.
std::uint64_t sample_collision_run(Rng& rng, std::uint64_t n, std::uint64_t m,
                                   std::uint64_t lmax, bool* collided);

}  // namespace popproto
