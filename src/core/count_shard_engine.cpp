#include "core/count_shard_engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "core/pair_sampler.hpp"
#include "core/shard_plan.hpp"
#include "persist/snapshot.hpp"

namespace popproto {

namespace {

std::uint64_t total_count(
    const std::vector<std::pair<State, std::uint64_t>>& initial) {
  std::uint64_t n = 0;
  for (const auto& [s, c] : initial) n += c;
  return n;
}

using SpeciesTable = std::vector<std::pair<State, std::uint64_t>>;

// Fold `part` into the first-appearance table `out`: a state's count joins
// the row where the state first appeared, and zero counts are skipped.
// `rows` maps the states of `out` to their rows.
void merge_species(const SpeciesTable& part, SpeciesTable& out,
                   std::unordered_map<State, std::size_t>& rows) {
  for (const auto& [s, c] : part) {
    if (c == 0) continue;
    const auto [it, inserted] = rows.emplace(s, out.size());
    if (inserted)
      out.emplace_back(s, c);
    else
      out[it->second].second += c;
  }
}

unsigned resolve_threads(unsigned requested, std::size_t shards) {
  if (requested != 0) return requested;
  return static_cast<unsigned>(std::min<std::size_t>(
      shards, probe_hardware_threads()));
}

}  // namespace

std::uint64_t CountShardEngine::shard_seed(std::uint64_t master_seed,
                                           std::size_t s) {
  return split_shard_seeds(master_seed, s + 1).shards[s];
}

CountShardEngine::CountShardEngine(
    const Protocol& protocol,
    std::vector<std::pair<State, std::uint64_t>> initial, std::uint64_t seed)
    : CountShardEngine(protocol, std::move(initial), seed, Params{}) {}

CountShardEngine::CountShardEngine(
    const Protocol& protocol,
    std::vector<std::pair<State, std::uint64_t>> initial, std::uint64_t seed,
    Params params)
    : protocol_(protocol),
      params_(params),
      pool_(resolve_threads(
          params.threads,
          clamp_shard_count(params.shards, total_count(initial),
                            params.min_shard))),
      cache_(protocol) {
  POPPROTO_CHECK(protocol_.num_rules() > 0);
  POPPROTO_CHECK_MSG(params_.migrate_every > 0,
                     "migrate_every must be positive");
  const std::uint64_t n = total_count(initial);
  POPPROTO_CHECK_MSG(n >= 2, "population needs at least 2 agents");
  const std::size_t S =
      clamp_shard_count(params_.shards, n, params_.min_shard);

  const ShardSeeds seeds = split_shard_seeds(seed, S);
  migrate_rng_ = Rng(seeds.migration);

  shards_.reserve(S);
  if (S == 1) {
    // Untouched pass-through of the caller's counts: the single-shard
    // trajectory must equal CountEngine kBatch under shard_seed(seed, 0)
    // exactly, including the species-table order.
    shards_.push_back(std::make_unique<CountEngine>(
        protocol_, std::move(initial), seeds.shards[0],
        CountEngineMode::kBatch));
  } else {
    // Initial deal = the same hypergeometric partition migration uses,
    // drawn on the migration stream before round 0. Merge duplicate
    // species first (first-appearance order).
    SpeciesTable merged;
    std::unordered_map<State, std::size_t> rows;
    merge_species(initial, merged, rows);
    load_pool(merged);
    for (std::size_t s = 0; s < S; ++s) {
      deal_shard(s, S, n);
      shards_.push_back(std::make_unique<CountEngine>(
          protocol_, mig_init_, seeds.shards[s], CountEngineMode::kBatch));
    }
  }
  next_migrate_time_ = static_cast<double>(params_.migrate_every);
}

void CountShardEngine::set_injection_hook(InjectionHook hook) {
  injection_ = std::move(hook);
  last_injection_round_ = std::floor(time_);
  push_hooks_to_shards();
}

void CountShardEngine::set_scheduler_bias(std::optional<SchedulerBias> bias) {
  bias_ = std::move(bias);
  push_hooks_to_shards();
}

void CountShardEngine::set_event_trace(EventTrace* trace) { trace_ = trace; }

void CountShardEngine::push_hooks_to_shards() {
  // on_round stays wrapper-fired (one global schedule over global time);
  // drop_interaction and bias run inside shards on their private streams —
  // the hook contract already allows any engine-supplied Rng to be a
  // per-shard stream. Forwarding empty hooks leaves the subs' RNG
  // consumption bit-identical to never-hooked engines.
  for (const auto& sub : shards_) {
    InjectionHook down;
    down.drop_interaction = injection_.drop_interaction;
    sub->set_injection_hook(std::move(down));
    sub->set_scheduler_bias(bias_);
  }
}

void CountShardEngine::advance_shards_to(double target) {
  const auto advance = [&](std::size_t s) {
    CountEngine& sub = *shards_[s];
    if (sub.rounds() < target) sub.run_rounds(target - sub.rounds());
  };
  // A silent engine's shards only move their clocks forward, which is not
  // worth waking the helpers for; the calls and their results are the same.
  if (silent_) {
    for (std::size_t s = 0; s < shards_.size(); ++s) advance(s);
    return;
  }
  pool_.parallel_for(shards_.size(), advance);
}

bool CountShardEngine::all_shards_silent() const {
  for (const auto& sub : shards_)
    if (!sub->silent()) return false;
  return true;
}

std::uint64_t CountShardEngine::load_pool(
    const std::vector<std::pair<State, std::uint64_t>>& table) {
  mig_states_.clear();
  mig_counts_.clear();
  std::uint64_t total = 0;
  for (const auto& [s, c] : table) {
    mig_states_.push_back(s);
    mig_counts_.push_back(c);
    total += c;
  }
  return total;
}

bool CountShardEngine::globally_silent() {
  // A locally silent partition can still be globally live: species that
  // never met inside one shard may react once migration mixes them. Exact
  // test on the pooled counts — any ordered species pair with positive pair
  // count and positive fused change weight disproves silence.
  const std::uint64_t total = load_pool(species());
  if (total < 2) return true;
  for (std::size_t i = 0; i < mig_states_.size(); ++i) {
    if (mig_counts_[i] == 0) continue;
    for (std::size_t j = 0; j < mig_states_.size(); ++j) {
      const double pairs =
          static_cast<double>(mig_counts_[i]) *
          (static_cast<double>(mig_counts_[j]) - (i == j ? 1.0 : 0.0));
      if (pairs <= 0.0) continue;
      if (cache_.change_weight(mig_states_[i], mig_states_[j]) > 0.0)
        return false;
    }
  }
  return true;
}

void CountShardEngine::migrate() {
  // Pool everything scheduled and deal it back by exact without-replacement
  // draws: the count-space image of BatchEngine's global id reshuffle. Each
  // sub keeps its n >= 2 floor through churn, so total >= 2 * shards and
  // every re-dealt shard stays constructible. Crashed agents keep their
  // frozen state inside the shard they crashed in.
  const std::uint64_t total = load_pool(species());
  const std::size_t S = shards_.size();
  for (std::size_t s = 0; s < S; ++s) {
    deal_shard(s, S, total);
    shards_[s]->reset_population(mig_init_);
  }
}

void CountShardEngine::deal_shard(std::size_t s, std::size_t shards,
                                  std::uint64_t total) {
  const std::uint64_t base = total / shards;
  const std::uint64_t extra = total % shards;
  mig_init_.clear();
  if (s + 1 == shards) {
    // Forced remainder: consumes no draws (mirrors the MVH early-exit).
    for (std::size_t i = 0; i < mig_states_.size(); ++i)
      if (mig_counts_[i] > 0)
        mig_init_.emplace_back(mig_states_[i], mig_counts_[i]);
    return;
  }
  // Shards 0..s-1 took base agents each, plus one for each of the first
  // `extra` shards.
  const std::uint64_t remaining =
      total - s * base - std::min<std::uint64_t>(s, extra);
  const std::uint64_t take = base + (s < extra ? 1 : 0);
  sample_multivariate_hypergeometric(migrate_rng_, mig_counts_, remaining,
                                     take, mig_deal_);
  for (std::size_t i = 0; i < mig_states_.size(); ++i) {
    if (mig_deal_[i] == 0) continue;
    mig_init_.emplace_back(mig_states_[i], mig_deal_[i]);
    mig_counts_[i] -= mig_deal_[i];
  }
}

bool CountShardEngine::step() {
  run_rounds(1.0);
  return !silent_;
}

void CountShardEngine::run_rounds(double rounds_to_run) {
  if (!(rounds_to_run > 0.0)) return;
  const std::size_t S = shards_.size();
  if (S == 1 && !injection_.on_round) {
    // Pass-through preserves CountEngine's batch-budget truncation exactly:
    // batch_step caps each batch at the run target, so segmenting a run
    // changes which batches truncate and therefore the RNG consumption.
    // Handing the whole run down in one call keeps the single-shard
    // trajectory bit-identical to a bare CountEngine kBatch — the shards=1
    // equivalence contract (tests/count_shard_engine_test.cpp).
    CountEngine& sub = *shards_[0];
    const double target = time_ + rounds_to_run;
    if (sub.rounds() < target) sub.run_rounds(target - sub.rounds());
    time_ = sub.rounds();
    silent_ = sub.silent();
    return;
  }
  const double target = time_ + rounds_to_run;
  while (time_ < target) {
    // Advance in segments ending at the next migration boundary and (when a
    // fault schedule is installed) the next whole-round hook boundary.
    // Shards overshoot a segment end by less than one interaction each
    // (their local batch truncation), which is absorbed by the per-shard
    // `rounds() < target` guard on the next segment.
    double seg = target;
    if (S > 1) seg = std::min(seg, next_migrate_time_);
    if (injection_.on_round) seg = std::min(seg, last_injection_round_ + 1.0);
    advance_shards_to(seg);
    time_ = seg;
    if (!silent_ && all_shards_silent() && globally_silent()) silent_ = true;
    if (S > 1 && seg >= next_migrate_time_) {
      if (!silent_) migrate();
      next_migrate_time_ += static_cast<double>(params_.migrate_every);
    }
    fire_crossed_rounds(injection_, last_injection_round_, time_);
  }
}

std::uint64_t CountShardEngine::interactions() const {
  std::uint64_t total = 0;
  for (const auto& sub : shards_) total += sub->interactions();
  return total;
}

std::uint64_t CountShardEngine::active_n() const {
  std::uint64_t total = 0;
  for (const auto& sub : shards_) total += sub->n();
  return total;
}

std::uint64_t CountShardEngine::count_matching(const Guard& g) const {
  std::uint64_t total = 0;
  for (const auto& sub : shards_) total += sub->count_matching(g);
  return total;
}

std::vector<std::pair<State, std::uint64_t>> CountShardEngine::species()
    const {
  SpeciesTable out;
  std::unordered_map<State, std::size_t> rows;
  for (const auto& sub : shards_) merge_species(sub->species(), out, rows);
  return out;
}

EngineCounters CountShardEngine::counters() const {
  EngineCounters c;
  for (const auto& sub : shards_) c += sub->counters();
  return c;
}

std::vector<std::uint64_t> CountShardEngine::deal_victims(
    std::uint64_t k, const std::vector<std::uint64_t>& weights,
    Rng& rng) const {
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  k = std::min(k, total);
  std::vector<std::uint64_t> out;
  sample_multivariate_hypergeometric(rng, weights, total, k, out);
  return out;
}

std::uint64_t CountShardEngine::crash_random(std::uint64_t k, Rng& rng) {
  // Victim allocation over crashable slots (each shard keeps >= 2 scheduled
  // agents — the migration invariant), then each shard's exact uniform
  // without-replacement crash on the same caller stream.
  std::vector<std::uint64_t> w(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    w[s] = shards_[s]->n() > 2 ? shards_[s]->n() - 2 : 0;
  const auto deal = deal_victims(k, w, rng);
  std::uint64_t moved = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (deal[s] > 0) moved += shards_[s]->crash_random(deal[s], rng);
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnCrash, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountShardEngine::rejoin_random(std::uint64_t k, Rng& rng) {
  std::vector<std::uint64_t> w(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    w[s] = shards_[s]->crashed_count();
  const auto deal = deal_victims(k, w, rng);
  std::uint64_t moved = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (deal[s] > 0) moved += shards_[s]->rejoin_random(deal[s], rng);
  if (moved > 0) silent_ = false;  // stale state may re-enable rules
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnRejoin, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountShardEngine::rejoin_all() {
  std::uint64_t moved = 0;
  for (const auto& sub : shards_) moved += sub->rejoin_all();
  if (moved > 0) silent_ = false;
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnRejoin, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountShardEngine::crashed_count() const {
  std::uint64_t total = 0;
  for (const auto& sub : shards_) total += sub->crashed_count();
  return total;
}

std::uint64_t CountShardEngine::mutate_random_agents(
    std::uint64_t k, Rng& rng,
    const std::function<State(State old_state, std::uint64_t j)>& f) {
  std::vector<std::uint64_t> w(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) w[s] = shards_[s]->n();
  const auto deal = deal_victims(k, w, rng);
  std::uint64_t drawn = 0, rewritten = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (deal[s] == 0) continue;
    const std::uint64_t offset = drawn;
    drawn += shards_[s]->mutate_random_agents(
        deal[s], rng,
        [&f, &rewritten, offset](State old_state, std::uint64_t j) {
          const State ns = f(old_state, offset + j);
          if (ns != old_state) ++rewritten;
          return ns;
        });
  }
  if (rewritten > 0) silent_ = false;
  if (trace_ && drawn > 0)
    trace_->push(EventKind::kFaultInjected, time_,
                 static_cast<double>(rewritten));
  return drawn;
}

void CountShardEngine::snapshot(std::ostream& out) const {
  std::uint64_t population = 0;
  for (const auto& sub : shards_)
    population += sub->n() + sub->crashed_count();
  SnapshotWriter w(out, backend_name(), protocol_fingerprint(protocol_),
                   population);

  std::string core;
  BinWriter c(core);
  c.u64(shards_.size());
  c.u32(params_.migrate_every);
  c.u8(silent_ ? 1 : 0);
  c.f64(time_);
  c.f64(next_migrate_time_);
  w.section(SnapshotSection::kCore, core);

  // Each shard's complete CountEngine snapshot rides as a length-prefixed
  // embedded container — self-validating (own magic, per-section CRCs,
  // protocol fingerprint), so a flipped bit inside any shard fails that
  // shard's restore before this engine commits anything. Its cache-warmth
  // counters are written as zero: a resumed run relearns its caches, and
  // this wrapper has no top-level kCounters section for replay_check to
  // skip, so only zeros keep the bytes replay-deterministic.
  std::string popn;
  BinWriter p(popn);
  p.u64(shards_.size());
  for (const auto& sub : shards_) {
    std::ostringstream blob;
    sub->write_snapshot(blob, sub->counters().without_cache_warmth());
    p.str(blob.str());
  }
  w.section(SnapshotSection::kPopulation, popn);

  std::string rng;
  BinWriter r(rng);
  // The migration stream; shard streams live in their containers.
  serialize_rng_streams(r, {migrate_rng_.state()});
  w.section(SnapshotSection::kRngStreams, rng);

  w.finish();
}

void CountShardEngine::restore(std::istream& in) {
  SnapshotReader reader(in, backend_name(), protocol_fingerprint(protocol_));
  const std::size_t S = shards_.size();

  // Parse every section, in writer order, into staging locals.
  BinReader& c = reader.section(SnapshotSection::kCore);
  const std::uint64_t shard_count = c.u64();
  const std::uint32_t migrate_every = c.u32();
  const bool silent = c.u8() != 0;
  const double time = c.f64();
  const double next_migrate = c.f64();
  if (shard_count != S)
    throw SnapshotError(
        SnapshotErrc::kConfigMismatch,
        "snapshot has " + std::to_string(shard_count) + " shards, engine has " +
            std::to_string(S) +
            " (shard count is structural; worker threads are not)");

  BinReader& p = reader.section(SnapshotSection::kPopulation);
  if (p.u64() != S)
    throw SnapshotError(SnapshotErrc::kCorrupt, "per-shard blob count mismatch");
  std::vector<std::unique_ptr<CountEngine>> subs;
  for (std::size_t s = 0; s < S; ++s) {
    // Stage into throwaway engines: each blob is a full CountEngine
    // container and validates itself (producer, fingerprint, CRCs, exact
    // payloads) before its staging engine adopts it. It must fill its blob.
    auto sub = std::make_unique<CountEngine>(
        protocol_, std::vector<std::pair<State, std::uint64_t>>{{State{0}, 2}},
        /*seed=*/1, CountEngineMode::kBatch);
    std::istringstream blob(p.str());
    sub->restore(blob);
    if (blob.peek() != std::istringstream::traits_type::eof())
      throw SnapshotError(SnapshotErrc::kCorrupt,
                          "bytes after a shard container");
    subs.push_back(std::move(sub));
  }

  BinReader& r = reader.section(SnapshotSection::kRngStreams);
  const RngState migrate_stream = deserialize_rng_streams(r, 1).front();
  reader.finish();

  // Semantic validation — *this stays untouched until everything passed.
  std::uint64_t population = 0;
  for (const auto& sub : subs) population += sub->n() + sub->crashed_count();
  if (population != reader.population_n())
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "shard populations do not sum to n");
  if (migrate_every == 0)
    throw SnapshotError(SnapshotErrc::kCorrupt, "zero migrate_every");
  if (!(time >= 0.0) || !(next_migrate >= 0.0))  // also rejects NaN
    throw SnapshotError(SnapshotErrc::kCorrupt, "negative time base");

  // Commit with throw-free moves. The wrapper's own hook state survives a
  // restore (like the other engines'); the freshly staged subs need it
  // re-forwarded.
  shards_ = std::move(subs);
  migrate_rng_.set_state(migrate_stream);
  params_.migrate_every = migrate_every;
  time_ = time;
  next_migrate_time_ = next_migrate;
  silent_ = silent;
  last_injection_round_ = std::floor(time_);
  mig_states_.clear();
  mig_counts_.clear();
  mig_deal_.clear();
  mig_init_.clear();
  push_hooks_to_shards();
}

}  // namespace popproto
