// Kernel microbench (ISSUE 2 acceptance): cached vs uncached transition
// kernel throughput, measured on the protocols whose state spaces span the
// cache's working range, plus CountEngine direct/skip throughput. Writes
// its records to BENCH_engine.json (override with POPPROTO_BENCH_OUT).
//
// The headline record is phase_clock_n65536_cached: its `speedup` counter is
// the cached/uncached interactions-per-second ratio at n = 2^16, the >= 3x
// acceptance criterion. Both paths follow bit-identical trajectories from
// the same seed (tests/transition_cache_test.cpp), so this compares two
// implementations of the same stochastic process.
//
// Flags: --smoke shrinks every measurement ~8x (CI smoke step); --csv and
// POPPROTO_SCALE are accepted-and-ignored for convention compatibility.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "clocks/oscillator.hpp"
#include "clocks/phase_clock.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/engine.hpp"
#include "observe/telemetry.hpp"
#include "protocols/baselines.hpp"
#include "support/bench_io.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/thread_pool.hpp"

namespace popproto {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct EngineRate {
  double wall = 0.0;
  double ips = 0.0;  // interactions / second
};

/// Time `steps` engine steps after `warmup` unmeasured ones (the warmup
/// also populates the memo when the cache is on, so the steady-state rate
/// is what gets measured — cache build cost is a one-off amortized away at
/// any realistic trial length).
EngineRate time_engine(Engine& eng, std::uint64_t warmup, std::uint64_t steps) {
  eng.run_steps(warmup);
  const double t0 = now_seconds();
  eng.run_steps(steps);
  const double wall = now_seconds() - t0;
  return EngineRate{wall, static_cast<double>(steps) / wall};
}

/// Measure two engines in interleaved chunks and keep each one's best-chunk
/// rate. Alternating keeps the two measurements temporally adjacent and
/// best-of-k discards transient machine slowdowns, so the reported ratio
/// reflects the kernels rather than scheduler noise on shared hardware.
std::pair<EngineRate, EngineRate> time_interleaved(Engine& ea, Engine& eb,
                                                   std::uint64_t warmup,
                                                   std::uint64_t steps) {
  constexpr std::uint64_t kReps = 5;
  ea.run_steps(warmup);
  eb.run_steps(warmup);
  const std::uint64_t chunk = steps / kReps;
  EngineRate ra, rb;
  for (std::uint64_t r = 0; r < kReps; ++r) {
    const EngineRate ca = time_engine(ea, 0, chunk);
    const EngineRate cb = time_engine(eb, 0, chunk);
    ra.wall += ca.wall;
    rb.wall += cb.wall;
    if (ca.ips > ra.ips) ra.ips = ca.ips;
    if (cb.ips > rb.ips) rb.ips = cb.ips;
  }
  return {ra, rb};
}

BenchRecord engine_record(std::string name, const EngineRate& r,
                          double n) {
  BenchRecord rec;
  rec.name = std::move(name);
  rec.wall_seconds = r.wall;
  rec.interactions_per_sec = r.ips;
  rec.effective_interactions_per_sec = r.ips;
  rec.extra.emplace_back("n", n);
  return rec;
}

void bench_agent_engine(const Protocol& proto, std::vector<State> init,
                        const std::string& label, std::uint64_t warmup,
                        std::uint64_t steps, std::vector<BenchRecord>& out,
                        Telemetry& telemetry) {
  const auto n = static_cast<double>(init.size());
  Engine cached(proto, init, /*seed=*/7);
  Engine uncached(proto, std::move(init), /*seed=*/7);
  uncached.set_transition_cache(false);
  const auto [rc, ru] = time_interleaved(cached, uncached, warmup, steps);
  // Counter snapshots cover warmup + measured steps; both engines walked the
  // same trajectory from the same seed, so effective_steps must agree.
  telemetry.add_counters(cached.counters(), label + ".cached.");
  telemetry.add_counters(uncached.counters(), label + ".uncached.");

  BenchRecord rec = engine_record(label + "_cached", rc, n);
  rec.extra.emplace_back("speedup", rc.ips / ru.ips);
  rec.extra.emplace_back(
      "cache_states",
      static_cast<double>(cached.transition_cache().num_states()));
  rec.extra.emplace_back(
      "cache_pairs",
      static_cast<double>(cached.transition_cache().num_pairs()));
  out.push_back(std::move(rec));
  out.push_back(engine_record(label + "_uncached", ru, n));
  std::printf("%-32s %12.3g int/s   (uncached %10.3g, speedup %.2fx)\n",
              label.c_str(), rc.ips, ru.ips, rc.ips / ru.ips);
}

// Returns the cached configuration's effective-interactions/sec — the
// baseline the batch-sampling record reports its speedup against.
double bench_count_direct(std::uint64_t steps, std::vector<BenchRecord>& out,
                          Telemetry& telemetry) {
  const double n = 1 << 20;
  double cached_eff_ips = 0.0;
  for (const bool use_cache : {true, false}) {
    auto vars = make_var_space();
    const Protocol p = make_approximate_majority_protocol(vars);
    const State a = var_bit(*vars->find("BA"));
    const State b = var_bit(*vars->find("BB"));
    CountEngine eng(p, {{a, 1 << 19}, {b, 1 << 19}}, /*seed=*/7,
                    CountEngineMode::kDirect);
    eng.set_transition_cache(use_cache);
    const double t0 = now_seconds();
    for (std::uint64_t i = 0; i < steps; ++i) eng.step();
    const double wall = now_seconds() - t0;
    BenchRecord rec;
    rec.name = use_cache ? "count_direct_majority_cached"
                         : "count_direct_majority_uncached";
    rec.wall_seconds = wall;
    rec.interactions_per_sec = static_cast<double>(steps) / wall;
    rec.effective_interactions_per_sec =
        static_cast<double>(eng.effective_interactions()) / wall;
    rec.extra.emplace_back("n", n);
    telemetry.add_counters(eng.counters(), rec.name + ".");
    if (use_cache) cached_eff_ips = rec.effective_interactions_per_sec;
    out.push_back(rec);
    std::printf("%-32s %12.3g int/s\n", rec.name.c_str(),
                rec.interactions_per_sec);
  }
  return cached_eff_ips;
}

void bench_count_batch(std::uint64_t steps, double direct_eff_ips,
                       std::vector<BenchRecord>& out, Telemetry& telemetry) {
  // ISSUE 5 acceptance: the same majority workload as bench_count_direct —
  // identical protocol, population and step budget — under batched collision
  // sampling. The headline counter is speedup_vs_direct_effective: the
  // effective-interactions/sec ratio over count_direct_majority_cached
  // (>= 10x acceptance at n = 2^20).
  const std::uint64_t n = 1 << 20;
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const State a = var_bit(*vars->find("BA"));
  const State b = var_bit(*vars->find("BB"));
  CountEngine eng(p, {{a, n / 2}, {b, n / 2}}, /*seed=*/7,
                  CountEngineMode::kBatch);
  const double t0 = now_seconds();
  while (eng.interactions() < steps && eng.step()) {
  }
  const double wall = now_seconds() - t0;
  BenchRecord rec;
  rec.name = "count_batch_majority";
  rec.wall_seconds = wall;
  rec.interactions_per_sec = static_cast<double>(eng.interactions()) / wall;
  rec.effective_interactions_per_sec =
      static_cast<double>(eng.effective_interactions()) / wall;
  rec.extra.emplace_back("n", static_cast<double>(n));
  const EngineCounters c = eng.counters();
  rec.extra.emplace_back("batch_blocks", static_cast<double>(c.batch_blocks));
  rec.extra.emplace_back("batch_collisions",
                         static_cast<double>(c.batch_collisions));
  rec.extra.emplace_back("speedup_vs_direct_effective",
                         direct_eff_ips > 0.0
                             ? rec.effective_interactions_per_sec /
                                   direct_eff_ips
                             : 0.0);
  telemetry.add_counters(c, "count_batch_majority.");
  out.push_back(rec);
  std::printf("%-32s %12.3g int/s (%.3g effective/s, %.1fx vs direct)\n",
              rec.name.c_str(), rec.interactions_per_sec,
              rec.effective_interactions_per_sec,
              direct_eff_ips > 0.0
                  ? rec.effective_interactions_per_sec / direct_eff_ips
                  : 0.0);
}

void bench_count_skip(std::uint64_t reps, std::vector<BenchRecord>& out,
                      Telemetry& telemetry) {
  // DV12 exact majority from a near-tie at n = 2^16: late-stage sparse
  // dynamics, the skip-ahead showcase. One rep = run to silence.
  double wall = 0.0;
  std::uint64_t interactions = 0;
  std::uint64_t effective = 0;
  for (std::uint64_t r = 0; r < reps; ++r) {
    auto vars = make_var_space();
    const Protocol p = make_dv12_majority_protocol(vars);
    const State ma = var_bit(*vars->find("MA")) | var_bit(*vars->find("STRONG"));
    const State mb = var_bit(*vars->find("MB")) | var_bit(*vars->find("STRONG"));
    const std::uint64_t n = 1 << 16;
    CountEngine eng(p, {{ma, n / 2 + 64}, {mb, n / 2 - 64}}, /*seed=*/7 + r,
                    CountEngineMode::kSkip);
    const double t0 = now_seconds();
    while (eng.step()) {
    }
    wall += now_seconds() - t0;
    interactions += eng.interactions();
    effective += eng.effective_interactions();
    // Last rep's snapshot stands in for all reps (identical setup, new seed).
    if (r + 1 == reps)
      telemetry.add_counters(eng.counters(), "count_skip_dv12.");
  }
  BenchRecord rec;
  rec.name = "count_skip_dv12_to_silence";
  rec.wall_seconds = wall;
  rec.interactions_per_sec = static_cast<double>(interactions) / wall;
  rec.effective_interactions_per_sec = static_cast<double>(effective) / wall;
  rec.extra.emplace_back("n", 1 << 16);
  rec.extra.emplace_back("reps", static_cast<double>(reps));
  out.push_back(rec);
  std::printf("%-32s %12.3g int/s (%.3g effective/s)\n", rec.name.c_str(),
              rec.interactions_per_sec, rec.effective_interactions_per_sec);
}

void bench_batch_backend(bool smoke, std::vector<BenchRecord>& out,
                         Telemetry& telemetry) {
  // ISSUE 4 acceptance series, rescaled by ISSUE 10: phase clock under the
  // sharded batch backend at 1/2/4/8 threads vs the sequential agent-engine
  // baseline at the same n (full mode runs the headline n = 2^24).
  // Names and telemetry prefixes are n-independent (n rides in `extra`) so
  // the CI schema diff is stable between smoke and full runs. The `speedup
  // _vs_agent` counter is meaningful only when `hardware_threads` >= the
  // thread count — on a smaller host the extra shards still run, serialized
  // by the OS, and the honest (lower) number is recorded.
  const std::size_t n = smoke ? (std::size_t{1} << 17) : (std::size_t{1} << 24);
  const double rounds = smoke ? 24.0 : 48.0;

  auto vars = make_var_space();
  const Protocol proto = make_phase_clock_protocol(vars);
  const auto init = phase_clock_initial_states(n, n >> 10, *vars);

  // Sequential agent-engine baseline at the same n, timed in chunks that
  // alternate with each record's own chunks: one before each, as many
  // interactions long (a batch round is n / 2 pairs). The host's rates can
  // switch level for minutes at a time, so a baseline timed once up front
  // compared every record against whichever level held then.
  const double chunk_rounds = rounds / 3.0;
  const auto agent_chunk =
      static_cast<std::uint64_t>(chunk_rounds * static_cast<double>(n / 2));
  Engine agent(proto, init, /*seed=*/7);
  agent.run_steps(agent_chunk / 4);
  const std::size_t baseline_at = out.size();
  out.emplace_back();  // filled in once every chunk has run
  double agent_wall = 0.0;
  std::uint64_t agent_steps = 0;

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    BatchEngine::Params params;
    params.threads = threads;
    BatchEngine eng(proto, init, /*seed=*/7, params);
    eng.run_rounds(rounds / 4.0);  // warmup: populate per-shard caches
    // Best-of-3 chunks on both sides, like time_interleaved: discard
    // transient slowdowns.
    double wall = 0.0, ips = 0.0, agent_ips = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const EngineRate r = time_engine(agent, 0, agent_chunk);
      agent_wall += r.wall;
      agent_steps += agent_chunk;
      agent_ips = std::max(agent_ips, r.ips);
      const std::uint64_t i0 = eng.interactions();
      const double t0 = now_seconds();
      eng.run_rounds(chunk_rounds);
      const double dt = now_seconds() - t0;
      wall += dt;
      ips = std::max(
          ips, static_cast<double>(eng.interactions() - i0) / dt);
    }
    const std::string name = "phase_clock_batch_t" + std::to_string(threads);
    BenchRecord rec;
    rec.name = name;
    rec.wall_seconds = wall;
    rec.interactions_per_sec = ips;
    rec.effective_interactions_per_sec = ips;
    rec.extra.emplace_back("n", static_cast<double>(n));
    rec.extra.emplace_back("threads", static_cast<double>(threads));
    rec.extra.emplace_back("shards", static_cast<double>(eng.shards()));
    // Probed at record time, per record: the affinity mask can shrink while
    // a suite runs (CI runners, cgroup changes), and a stale probe is
    // exactly the degraded-benchmark trap the flag exists to catch.
    const double hw = static_cast<double>(probe_hardware_threads());
    rec.extra.emplace_back("hardware_threads", hw);
    // When the host has fewer hardware threads than the shard count, the
    // "parallel" run is OS-serialized and speedup_vs_agent measures the
    // host, not the backend; the flag lets consumers (CI's schema guard)
    // skip scaling assertions instead of failing on small runners.
    rec.extra.emplace_back("degraded_parallelism",
                           hw < static_cast<double>(threads) ? 1.0 : 0.0);
    rec.extra.emplace_back("migrate_every",
                           static_cast<double>(params.migrate_every));
    rec.extra.emplace_back("speedup_vs_agent", ips / agent_ips);
    out.push_back(std::move(rec));
    telemetry.add_counters(eng.counters(),
                           "batch_t" + std::to_string(threads) + ".");
    std::printf("%-32s %12.3g int/s   (%.2fx vs agent baseline)\n",
                name.c_str(), ips, ips / agent_ips);
  }

  // The baseline record: the mean rate over every agent chunk.
  BenchRecord rec = engine_record(
      "phase_clock_agent_baseline",
      EngineRate{agent_wall, static_cast<double>(agent_steps) / agent_wall},
      static_cast<double>(n));
  rec.extra.emplace_back("hardware_threads",
                         static_cast<double>(probe_hardware_threads()));
  std::printf("%-32s %12.3g int/s\n", "phase_clock_agent_baseline",
              rec.interactions_per_sec);
  out[baseline_at] = std::move(rec);
  telemetry.add_counters(agent.counters(), "batch_baseline.");
}

void bench_count_shard(bool smoke, std::vector<BenchRecord>& out,
                       Telemetry& telemetry) {
  // Count-sharded batch backend scaling series (DESIGN.md §11): approximate
  // majority run to consensus silence under shards in {1, 2, 4, 8} vs the
  // sequential agent engine at the same n. The shard count is the scaled
  // axis (it is structural); worker threads clamp to min(shards, probed
  // hardware), so the `threads` / `hardware_threads` extras record what
  // actually ran and degraded_parallelism stays an execution fact, not a
  // configuration one. Record names are n-independent like the batch series.
  const std::uint64_t n =
      smoke ? (std::uint64_t{1} << 20) : (std::uint64_t{1} << 24);
  auto vars = make_var_space();
  const Protocol proto = make_approximate_majority_protocol(vars);
  const State a = var_bit(*vars->find("BA"));
  const State b = var_bit(*vars->find("BB"));
  const std::uint64_t na = n * 11 / 20;  // 55/45 split

  // Agent-engine baseline on the same workload: per-interaction cost is
  // n-independent, so a fixed step budget gives the honest int/s floor. As
  // in the batch series, its chunks alternate with each record's own: one
  // before every segment of kSegmentRounds rounds, and a record's
  // speedup_vs_agent divides by the mean rate over its own chunks.
  constexpr int kSegmentRounds = 8;
  const std::uint64_t agent_chunk =
      (smoke ? (std::uint64_t{1} << 20) : (std::uint64_t{1} << 22)) / 8;
  std::vector<State> init(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < init.size(); ++i) init[i] = i < na ? a : b;
  Engine agent(proto, std::move(init), /*seed=*/7);
  agent.run_steps(2 * agent_chunk);
  const std::size_t baseline_at = out.size();
  out.emplace_back();  // filled in once every chunk has run
  double agent_wall = 0.0;
  std::uint64_t agent_steps = 0;

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    CountShardEngine::Params params;
    params.shards = shards;
    CountShardEngine eng(proto, {{a, na}, {b, n - na}}, /*seed=*/7, params);
    double wall = 0.0, own_agent_wall = 0.0;
    std::uint64_t own_agent_steps = 0;
    for (bool live = true; live;) {
      const EngineRate r = time_engine(agent, 0, agent_chunk);
      own_agent_wall += r.wall;
      own_agent_steps += agent_chunk;
      const double t0 = now_seconds();
      for (int round = 0; round < kSegmentRounds && live; ++round)
        live = eng.step() && eng.rounds() < 4096.0;
      wall += now_seconds() - t0;
    }
    agent_wall += own_agent_wall;
    agent_steps += own_agent_steps;
    const double agent_ips =
        static_cast<double>(own_agent_steps) / own_agent_wall;
    const double ips = static_cast<double>(eng.interactions()) / wall;
    const std::string name = "count_shard_majority_t" + std::to_string(shards);
    BenchRecord rec;
    rec.name = name;
    rec.wall_seconds = wall;
    rec.interactions_per_sec = ips;
    rec.effective_interactions_per_sec =
        static_cast<double>(eng.counters().effective_steps) / wall;
    rec.extra.emplace_back("n", static_cast<double>(n));
    rec.extra.emplace_back("shards", static_cast<double>(eng.shards()));
    rec.extra.emplace_back("threads", static_cast<double>(eng.threads()));
    const double hw = static_cast<double>(probe_hardware_threads());
    rec.extra.emplace_back("hardware_threads", hw);
    rec.extra.emplace_back("degraded_parallelism",
                           hw < static_cast<double>(eng.threads()) ? 1.0
                                                                   : 0.0);
    rec.extra.emplace_back("migrate_every",
                           static_cast<double>(eng.migrate_every()));
    rec.extra.emplace_back("consensus_rounds", eng.rounds());
    rec.extra.emplace_back("speedup_vs_agent", ips / agent_ips);
    out.push_back(std::move(rec));
    telemetry.add_counters(eng.counters(),
                           "count_shard_t" + std::to_string(shards) + ".");
    std::printf("%-32s %12.3g int/s   (%.2fx vs agent baseline)\n",
                name.c_str(), ips, ips / agent_ips);
  }
  {
    // The baseline record: the mean rate over every agent chunk.
    BenchRecord rec = engine_record(
        "count_shard_agent_baseline",
        EngineRate{agent_wall, static_cast<double>(agent_steps) / agent_wall},
        static_cast<double>(n));
    rec.extra.emplace_back("hardware_threads",
                           static_cast<double>(probe_hardware_threads()));
    std::printf("%-32s %12.3g int/s\n", "count_shard_agent_baseline",
                rec.interactions_per_sec);
    out[baseline_at] = std::move(rec);
    telemetry.add_counters(agent.counters(), "count_shard_baseline.");
  }

  if (!smoke) {
    // The extreme-n record: one billion-agent (n = 2^30) majority run to
    // consensus. Full-mode only (a smoke run would dominate CI wall time)
    // and deliberately without telemetry counters, so the smoke/full
    // telemetry key sets stay identical for the CI drift check.
    const std::uint64_t big = std::uint64_t{1} << 30;
    const std::uint64_t big_a = big * 11 / 20;
    CountShardEngine::Params params;
    params.shards = 8;
    CountShardEngine eng(proto, {{a, big_a}, {b, big - big_a}}, /*seed=*/7,
                         params);
    const double t0 = now_seconds();
    while (eng.step() && eng.rounds() < 4096.0) {
    }
    const double wall = now_seconds() - t0;
    BenchRecord rec;
    rec.name = "count_shard_majority_n30";
    rec.wall_seconds = wall;
    rec.interactions_per_sec = static_cast<double>(eng.interactions()) / wall;
    rec.effective_interactions_per_sec =
        static_cast<double>(eng.counters().effective_steps) / wall;
    rec.extra.emplace_back("n", static_cast<double>(big));
    rec.extra.emplace_back("shards", static_cast<double>(eng.shards()));
    rec.extra.emplace_back("threads", static_cast<double>(eng.threads()));
    const double hw = static_cast<double>(probe_hardware_threads());
    rec.extra.emplace_back("hardware_threads", hw);
    rec.extra.emplace_back("degraded_parallelism",
                           hw < static_cast<double>(eng.threads()) ? 1.0
                                                                   : 0.0);
    rec.extra.emplace_back("migrate_every",
                           static_cast<double>(eng.migrate_every()));
    rec.extra.emplace_back("consensus_rounds", eng.rounds());
    out.push_back(std::move(rec));
    std::printf("%-32s %12.3g int/s   (n = 2^30, %.1f rounds, %.1fs)\n",
                "count_shard_majority_n30", rec.interactions_per_sec,
                eng.rounds(), wall);
  }
}

void bench_simd_ab(bool smoke, std::vector<BenchRecord>& out,
                   Telemetry& telemetry) {
  // Scalar-vs-SIMD A/B on the vectorized kernel behind the batch engines'
  // matching loops, the TransitionCache prescan (simd::mask_below_bounds).
  // Both tiers are timed in-process by pinning POPPROTO_FORCE_SCALAR around
  // simd::refresh_tier_from_env(); the tiers are bit-identical by contract
  // (tests/simd_test.cpp), so the checksums must agree between tiers and
  // the ratio is a pure implementation speedup. `simd_speedup` is the
  // headline extra (>= 1.3x acceptance when the host runs the AVX2 tier; on
  // a scalar-only host both runs hit the same code and the honest ~1.0x is
  // recorded, tier 0 marking why).
  constexpr std::size_t kLanes = 64;  // prescan block width (one mask word)
  const std::size_t blocks = std::size_t{1} << 10;
  const std::uint64_t passes = smoke ? 8 : 64;
  const double lanes_total =
      static_cast<double>(passes) * static_cast<double>(blocks * kLanes);

  Rng rng(7);
  // Bounds table shaped like a real cache: mostly small max-probabilities
  // with a slice of +inf "unbuilt" sentinels that force the slow path.
  std::vector<double> bounds(std::size_t{1} << 12);
  for (auto& bnd : bounds)
    bnd = rng.uniform() < 0.125 ? std::numeric_limits<double>::infinity()
                                : rng.uniform() * 0.05;
  std::vector<std::uint64_t> off(blocks * kLanes);
  std::vector<double> u(blocks * kLanes);
  for (std::size_t i = 0; i < off.size(); ++i) {
    off[i] = rng.below(bounds.size());
    u[i] = rng.uniform();
  }

  auto time_prescan = [&] {
    const double t0 = now_seconds();
    std::uint64_t acc = 0;
    for (std::uint64_t p = 0; p < passes; ++p)
      for (std::size_t blk = 0; blk < blocks; ++blk)
        acc ^= simd::mask_below_bounds(bounds.data(), off.data() + blk * kLanes,
                                       u.data() + blk * kLanes, kLanes);
    return std::pair<double, std::uint64_t>{now_seconds() - t0, acc};
  };

  // Pin / release the scalar tier around each timed run. If the whole
  // process already runs under POPPROTO_FORCE_SCALAR (the CI scalar job),
  // "native" restores that and both sides measure the same code — the
  // recorded ~1.0x with simd_tier 0 is the truthful result there.
  const char* prev = std::getenv("POPPROTO_FORCE_SCALAR");
  const bool had_prev = prev != nullptr;
  const std::string saved = had_prev ? prev : "";
  auto pin_scalar = [&](bool on) {
    if (on)
      ::setenv("POPPROTO_FORCE_SCALAR", "1", 1);
    else if (had_prev)
      ::setenv("POPPROTO_FORCE_SCALAR", saved.c_str(), 1);
    else
      ::unsetenv("POPPROTO_FORCE_SCALAR");
    simd::refresh_tier_from_env();
  };

  const char* name = "simd_ab_prescan";
  double native_best = std::numeric_limits<double>::infinity();
  double scalar_best = std::numeric_limits<double>::infinity();
  std::uint64_t native_sum = 0, scalar_sum = 0;
  double tier = 0.0;
  // Interleave tiers, best-of-3 each, like time_interleaved: adjacency
  // plus best-of discards transient machine noise from the ratio.
  for (int rep = 0; rep < 3; ++rep) {
    pin_scalar(false);
    tier = static_cast<double>(static_cast<int>(simd::active_tier()));
    const auto [tn, cn] = time_prescan();
    native_best = std::min(native_best, tn);
    native_sum = cn;
    pin_scalar(true);
    const auto [ts, cs] = time_prescan();
    scalar_best = std::min(scalar_best, ts);
    scalar_sum = cs;
  }
  pin_scalar(false);
  if (native_sum != scalar_sum)
    std::printf("WARNING: %s checksum mismatch between tiers "
                "(%016llx vs %016llx)\n",
                name, static_cast<unsigned long long>(native_sum),
                static_cast<unsigned long long>(scalar_sum));
  const double speedup = scalar_best / native_best;
  BenchRecord rec;
  rec.name = name;
  rec.wall_seconds = native_best + scalar_best;
  rec.interactions_per_sec = lanes_total / native_best;  // lanes/s, native
  rec.effective_interactions_per_sec = rec.interactions_per_sec;
  rec.extra.emplace_back("n", lanes_total);
  rec.extra.emplace_back("simd_tier", tier);
  rec.extra.emplace_back("scalar_lanes_per_sec", lanes_total / scalar_best);
  rec.extra.emplace_back("simd_speedup", speedup);
  out.push_back(std::move(rec));
  telemetry.add_counter(std::string(name) + ".speedup", speedup);
  telemetry.add_counter("simd_ab.tier", tier);
  std::printf("%-32s %12.3g lanes/s (tier %s, %.2fx vs scalar)\n", name,
              lanes_total / native_best, simd::tier_name(simd::active_tier()),
              speedup);
}

int run(bool smoke) {
  const std::uint64_t scale = smoke ? 8 : 1;
  std::vector<BenchRecord> records;
  Telemetry telemetry("bench_kernel");
  telemetry.add_counter("smoke", smoke ? 1.0 : 0.0);

  {
    // The acceptance configuration: bitmask phase clock (two threads, ~60
    // rules, ~672 reachable states) at n = 2^16.
    auto vars = make_var_space();
    const Protocol proto = make_phase_clock_protocol(vars);
    bench_agent_engine(proto,
                       phase_clock_initial_states(1 << 16, 1 << 6, *vars),
                       "phase_clock_n65536", (1 << 18) / scale,
                       (std::uint64_t{1} << 23) / scale, records, telemetry);
  }
  {
    auto vars = make_var_space();
    const Protocol proto = make_oscillator_protocol(vars);
    std::vector<State> init(1 << 16);
    const auto x = *vars->find(kOscX);
    for (std::size_t i = 0; i < init.size(); ++i)
      init[i] = i < (1 << 6)
                    ? var_bit(x)
                    : oscillator_state(static_cast<int>(i % 3), 0, *vars);
    bench_agent_engine(proto, std::move(init), "oscillator_n65536",
                       (1 << 16) / scale, (std::uint64_t{1} << 23) / scale,
                       records, telemetry);
  }
  const double direct_eff_ips =
      bench_count_direct((std::uint64_t{1} << 23) / scale, records, telemetry);
  bench_count_batch((std::uint64_t{1} << 23) / scale, direct_eff_ips, records,
                    telemetry);
  bench_count_skip(smoke ? 2 : 8, records, telemetry);
  bench_batch_backend(smoke, records, telemetry);
  bench_count_shard(smoke, records, telemetry);
  bench_simd_ab(smoke, records, telemetry);

  const std::string path = bench_json_path("BENCH_engine.json");
  if (!write_bench_json(path, "bench_kernel", records)) return 1;
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());

  telemetry.capture_profile();
  const std::string tpath = telemetry_json_path("TELEMETRY_kernel.json");
  if (!telemetry.write_json(tpath)) return 1;
  std::printf("wrote %s (%zu counters)\n", tpath.c_str(),
              telemetry.counters().size());
  return 0;
}

}  // namespace
}  // namespace popproto

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  return popproto::run(smoke);
}
