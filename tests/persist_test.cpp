// Snapshot/restore + deterministic replay (src/persist/, DESIGN.md §10).
//
// Coverage map:
//  * bit-identical replay per backend via replay_check(): Engine
//    (sequential + random matching), CountEngine in all four modes, and
//    BatchEngine at t = 1, 2, 4 shards;
//  * RNG stream restore regression: BatchEngine's split per-shard streams
//    and migration stream compare equal generator-state-for-generator-state;
//  * mid-run snapshots: a snapshot taken at an arbitrary point, restored
//    into a diverged instance and continued, matches the uninterrupted run
//    (all four backends, counters-section exempt like replay_check);
//  * malformed snapshots from all five producers (the four backends and
//    FaultInjector): truncations, a fuzz loop of single-byte flips, sections
//    repeated, swapped, dropped or added with valid CRCs, wrong
//    magic/version/backend/fingerprint, shard-count mismatch — every one
//    throws a typed SnapshotError and leaves the target bit-for-bit
//    untouched;
//  * FaultPlan and EngineCounters serialization round-trips;
//  * fault-schedule resume: replay_check_with_faults() proves a restored
//    injector replays the *remaining* schedule (not a fresh one);
//  * AutoCheckpoint: tick cadence, atomic write + load, missing-file and
//    injector-flag handling.
#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "clocks/oscillator.hpp"
#include "clocks/phase_clock.hpp"
#include "clocks/x_control.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/engine.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "observe/profile.hpp"
#include "persist/checkpoint.hpp"
#include "persist/replay_check.hpp"
#include "persist/snapshot.hpp"
#include "protocols/baselines.hpp"
#include "server/protocol_registry.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace popproto {
namespace {

// -- Factories ---------------------------------------------------------------

struct ClockFixture {
  std::shared_ptr<VarSpace> vars = make_var_space();
  Protocol proto = make_phase_clock_protocol(vars);
  std::vector<State> init;
  explicit ClockFixture(std::size_t n)
      : init(phase_clock_initial_states(n, n >> 6 ? n >> 6 : 1, *vars)) {}

  BackendFactory agent(std::uint64_t seed,
                       SchedulerKind sched = SchedulerKind::kSequential) const {
    return [this, seed, sched] {
      return std::make_unique<Engine>(proto, init, seed, sched);
    };
  }
  BackendFactory batch(std::uint64_t seed, unsigned threads) const {
    return [this, seed, threads] {
      BatchEngine::Params params;
      params.threads = threads;
      params.min_shard = 256;  // keep t=4 genuinely 4-sharded at small n
      return std::make_unique<BatchEngine>(proto, init, seed, params);
    };
  }
};

struct MajorityFixture {
  std::shared_ptr<VarSpace> vars = make_var_space();
  Protocol proto = make_approximate_majority_protocol(vars);
  State a = var_bit(*vars->find("BA"));
  State b = var_bit(*vars->find("BB"));
  std::uint64_t n;
  explicit MajorityFixture(std::uint64_t population) : n(population) {}

  BackendFactory count(std::uint64_t seed, CountEngineMode mode) const {
    return [this, seed, mode] {
      return std::make_unique<CountEngine>(
          proto,
          std::vector<std::pair<State, std::uint64_t>>{{a, n / 2},
                                                       {b, n - n / 2}},
          seed, mode);
    };
  }
  BackendFactory count_shard(std::uint64_t seed, std::size_t shards) const {
    return [this, seed, shards] {
      CountShardEngine::Params params;
      params.shards = shards;
      params.min_shard = 2;  // keep the requested shard count at small n
      return std::make_unique<CountShardEngine>(
          proto,
          std::vector<std::pair<State, std::uint64_t>>{{a, n / 2},
                                                       {b, n - n / 2}},
          seed, params);
    };
  }
};

// The three pair-kernel protocols (the validated P_o and C_o, and the
// junta election) on every backend, from their experiment starts.
struct KernelFixture {
  std::shared_ptr<VarSpace> vars;
  Protocol proto;
  std::vector<std::pair<State, std::uint64_t>> init;

  static KernelFixture oscillator(std::uint64_t n) {
    auto vars = make_var_space();
    KernelFixture fx{vars, make_oscillator_kernel_protocol(vars), {}};
    fx.init = oscillator_uniform_counts(n, 8, *vars);
    return fx;
  }
  static KernelFixture clock(std::uint64_t n, const ClockLevelParams& prm) {
    auto vars = make_var_space();
    KernelFixture fx{vars, make_clock_kernel_protocol(vars, prm), {}};
    for (const State s :
         clock_kernel_initial_states(n, 8, ClockCodec(*vars, prm))) {
      if (fx.init.empty() || fx.init.back().first != s)
        fx.init.emplace_back(s, 0);
      ++fx.init.back().second;
    }
    return fx;
  }

  static KernelFixture junta(std::uint64_t n) {
    auto vars = make_var_space();
    KernelFixture fx{vars, make_junta_protocol(vars), {}};
    fx.init = x_counts(n, n, *vars);
    return fx;
  }

  std::vector<State> agents() const {
    std::vector<State> out;
    for (const auto& [s, c] : init) out.insert(out.end(), c, s);
    return out;
  }
  BackendFactory backend(const std::string& name, std::uint64_t seed) const {
    return [this, name, seed]() -> std::unique_ptr<SimBackend> {
      if (name == "agent")
        return std::make_unique<Engine>(proto, agents(), seed);
      if (name == "count")
        return std::make_unique<CountEngine>(proto, init, seed);
      if (name == "batch") {
        BatchEngine::Params params;
        params.threads = 2;
        params.min_shard = 256;
        return std::make_unique<BatchEngine>(proto, agents(), seed, params);
      }
      CountShardEngine::Params params;
      params.shards = 2;
      return std::make_unique<CountShardEngine>(proto, init, seed, params);
    };
  }
};

FaultPlan churn_plan() {
  FaultPlan plan;
  plan.crash_at(6.0, CrashSpec{.fraction = 0.05, .count = 0});
  plan.dropout_window(4.0, 18.0, 0.1);
  plan.crash_bernoulli(0.5, 8.0, 20.0, CrashSpec{.fraction = 0.0, .count = 3});
  plan.rejoin_at(15.0, RejoinSpec{.fraction = 0.0, .count = 0, .all = true});
  plan.corrupt_at(14.0, CorruptSpec{.fraction = 0.02,
                                    .count = 0,
                                    .mode = CorruptMode::kFixed,
                                    .fixed_state = 0,
                                    .palette = {},
                                    .mask = 0x1});
  return plan;
}

std::string snapshot_bytes(const SimBackend& backend) {
  std::ostringstream out;
  backend.snapshot(out);
  return out.str();
}

void restore_bytes(SimBackend& backend, const std::string& bytes) {
  std::istringstream in(bytes);
  backend.restore(in);
}

// -- Section rewriter --------------------------------------------------------
// A container as its (tag, payload) sections, kMeta first and the kEnd
// terminator left out, so a test can edit the sequence or a payload and
// join the result with every CRC computed afresh.

using Sections = std::vector<std::pair<std::uint32_t, std::string>>;

Sections split_sections(const std::string& bytes) {
  BinReader r(bytes);
  r.u32();  // magic
  r.u32();  // version
  Sections out;
  for (;;) {
    const std::uint32_t tag = r.u32();
    const std::uint64_t len = r.u64();
    r.u32();  // crc
    std::string payload;
    for (std::uint64_t i = 0; i < len; ++i)
      payload.push_back(static_cast<char>(r.u8()));
    if (tag == static_cast<std::uint32_t>(SnapshotSection::kEnd)) return out;
    out.emplace_back(tag, std::move(payload));
  }
}

std::string join_sections(const Sections& sections) {
  std::string out;
  BinWriter w(out);
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  const auto put = [&](std::uint32_t tag, const std::string& payload) {
    w.u32(tag);
    w.u64(payload.size());
    w.u32(crc32(payload));
    out += payload;
  };
  for (const auto& [tag, payload] : sections) put(tag, payload);
  put(static_cast<std::uint32_t>(SnapshotSection::kEnd), "");
  return out;
}

std::string rewrite_sections(const std::string& bytes,
                             const std::function<void(Sections&)>& edit) {
  Sections sections = split_sections(bytes);
  edit(sections);
  return join_sections(sections);
}

// -- Replay determinism per backend ------------------------------------------

TEST(ReplayCheck, AgentEngineSequential) {
  ClockFixture fx(2048);
  const ReplayCheckResult r = replay_check(fx.agent(7), 12.0);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_GT(r.snapshot_bytes, 0u);
  EXPECT_GE(r.snapshot_rounds, 12.0);
}

TEST(ReplayCheck, AgentEngineRandomMatching) {
  ClockFixture fx(2048);
  const ReplayCheckResult r =
      replay_check(fx.agent(11, SchedulerKind::kRandomMatching), 12.0);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(ReplayCheck, CountEngineAllModes) {
  MajorityFixture fx(4096);
  for (const CountEngineMode mode :
       {CountEngineMode::kDirect, CountEngineMode::kSkip,
        CountEngineMode::kBatch}) {
    const ReplayCheckResult r = replay_check(fx.count(7, mode), 16.0);
    EXPECT_TRUE(r.ok) << "mode " << static_cast<int>(mode) << ": " << r.detail;
  }
}

TEST(ReplayCheck, BatchEngineShardLadder) {
  ClockFixture fx(4096);
  for (const unsigned threads : {1u, 2u, 4u}) {
    const ReplayCheckResult r = replay_check(fx.batch(7, threads), 8.0);
    EXPECT_TRUE(r.ok) << "t=" << threads << ": " << r.detail;
  }
}

TEST(ReplayCheck, PairKernelProtocolsOnEveryBackend) {
  const KernelFixture fixtures[] = {KernelFixture::oscillator(2048),
                                    KernelFixture::clock(2048, {}),
                                    KernelFixture::junta(2048)};
  for (const KernelFixture& fx : fixtures)
    for (const char* backend : {"agent", "count", "batch", "count_shard"}) {
      const ReplayCheckResult r = replay_check(fx.backend(backend, 7), 12.0);
      EXPECT_TRUE(r.ok) << fx.proto.name() << " on " << backend << ": "
                        << r.detail;
    }
}

// Restore overwrites whatever state the target had accumulated — it is a
// substitution, not a merge.
TEST(Restore, OverwritesARunningEngine) {
  ClockFixture fx(1024);
  auto ref = fx.agent(7)();
  ref->run_rounds(6.0);
  const std::string snap = snapshot_bytes(*ref);

  auto target = fx.agent(99)();  // different seed, different trajectory
  target->run_rounds(20.0);
  restore_bytes(*target, snap);
  EXPECT_EQ(target->species(), ref->species());
  EXPECT_EQ(target->interactions(), ref->interactions());
  EXPECT_EQ(snapshot_bytes(*target), snap);
}

// -- RNG stream restore regression (satellite 2) -----------------------------

TEST(RngStreams, BatchEngineSplitStreamsRestoreExactly) {
  ClockFixture fx(4096);
  for (const unsigned threads : {1u, 2u, 4u}) {
    BatchEngine::Params params;
    params.threads = threads;
    params.min_shard = 256;
    BatchEngine ref(fx.proto, fx.init, /*seed=*/7, params);
    ref.run_rounds(6.0);
    const std::string snap = snapshot_bytes(ref);

    BatchEngine res(fx.proto, fx.init, /*seed=*/7, params);
    ASSERT_EQ(res.shards(), ref.shards()) << "t=" << threads;
    // Advance the target so its streams visibly differ before the restore.
    res.run_rounds(2.0);
    restore_bytes(res, snap);

    EXPECT_EQ(res.migration_rng(), ref.migration_rng())
        << "t=" << threads << " migration stream: "
        << rng_state_hex(res.migration_rng()) << " vs "
        << rng_state_hex(ref.migration_rng());
    for (std::size_t s = 0; s < ref.shards(); ++s) {
      EXPECT_EQ(res.shard_rng(s), ref.shard_rng(s))
          << "t=" << threads << " shard " << s << ": "
          << rng_state_hex(res.shard_rng(s)) << " vs "
          << rng_state_hex(ref.shard_rng(s));
    }
  }
}

// -- Mid-run snapshots ---------------------------------------------------------
// Run to an arbitrary point, snapshot, restore into a diverged instance,
// advance both equally, and require byte-equal snapshots on every section
// except kCounters — cache-warmth counters legitimately differ after a
// restore (caches are derived state, relearned lazily), the same convention
// replay_check uses.

std::string snapshot_sans_counters(const SimBackend& backend) {
  return rewrite_sections(snapshot_bytes(backend), [](Sections& sections) {
    std::erase_if(sections, [](const auto& section) {
      return section.first ==
             static_cast<std::uint32_t>(SnapshotSection::kCounters);
    });
  });
}

TEST(MidBufferSnapshot, AgentEngineRestoresBitIdentically) {
  ClockFixture fx(2048);
  // Snapshot once after a step count and once after a round length.
  for (const bool by_rounds : {false, true}) {
    Engine ref(fx.proto, fx.init, /*seed=*/7);
    if (by_rounds)
      ref.run_rounds(2.3);
    else
      ref.run_steps(5001);
    const std::string snap = snapshot_bytes(ref);
    const std::string sans = snapshot_sans_counters(ref);

    Engine res(fx.proto, fx.init, /*seed=*/99);  // diverged target
    res.run_steps(1234);
    restore_bytes(res, snap);
    EXPECT_EQ(snapshot_sans_counters(res), sans) << "by_rounds=" << by_rounds;

    ref.run_steps(4321);
    res.run_steps(4321);
    ref.run_rounds(1.7);
    res.run_rounds(1.7);
    EXPECT_EQ(snapshot_sans_counters(res), snapshot_sans_counters(ref))
        << "by_rounds=" << by_rounds;
    EXPECT_EQ(res.species(), ref.species());
  }
}

TEST(SnapshotBytes, AgentRunRoundsPinnedAcrossVersions) {
  // CRCs of the agent snapshot after a fixed run_rounds call. The values
  // were printed by builds whose run_rounds was a plain step() loop, so a
  // change to the loop that moves any trajectory, counter or snapshot byte
  // fails here. The counters section carries cache_hits, which only the
  // detailed tier (POPPROTO_PROFILE) counts, so the whole-snapshot pin
  // applies to the default tier and the pin without that section to both.
  // At n = 2^20 the population section (12.6 MB) is gathered from the
  // engine's vectors and checksummed by the CRC fold where the host has
  // one; that pin was printed by the build that still joined the payload
  // into one string and checksummed it with slicing-by-8 alone.
  struct Pin {
    const char* name;
    std::uint64_t n;
    std::uint32_t whole;
    std::uint32_t sans_counters;
  };
  for (const Pin& pin :
       {Pin{"approx_majority", 4099, 0x7c83ce41u, 0xe691ab45u},
        Pin{"phase_clock", 4099, 0x339e6cf9u, 0xf81fa35bu},
        Pin{"approx_majority", std::uint64_t{1} << 20, 0xdb1a5ba4u,
            0x508e7b34u}}) {
    const auto inst = make_protocol_instance(pin.name, pin.n);
    ASSERT_NE(inst, nullptr) << pin.name;
    const auto eng = make_backend_instance("agent", *inst, /*seed=*/1);
    eng->run_rounds(3.0);
    EXPECT_EQ(crc32(snapshot_sans_counters(*eng)), pin.sans_counters)
        << pin.name << " n=" << pin.n;
    if (!Profiler::compiled_in()) {
      EXPECT_EQ(crc32(snapshot_bytes(*eng)), pin.whole)
          << pin.name << " n=" << pin.n;
    }
  }
}

TEST(SnapshotBytes, CountRunRoundsPinnedAcrossVersions) {
  // The count-backend counterpart of the agent pin above. At n = 2^20 the
  // count_shard run covers two migrations, whose deals draw hypergeometrics
  // with variance past the HRUA threshold, so a change to the exact
  // samplers that moves a single accept/reject decision fails here. Pinned
  // the same way: whole snapshot on the default tier, the snapshot without
  // its counters section on both. count_shard has no top-level counters
  // section (its shards' counters ride inside the population section), so
  // its two CRCs agree.
  struct Pin {
    const char* backend;
    std::uint32_t whole;
    std::uint32_t sans_counters;
  };
  const auto inst = make_protocol_instance("approx_majority", 1u << 20);
  ASSERT_NE(inst, nullptr);
  for (const Pin& pin : {Pin{"count", 0x7786fddeu, 0xf043ec9du},
                         Pin{"count_shard", 0xd2548841u, 0xd2548841u}}) {
    const auto eng = make_backend_instance(pin.backend, *inst, /*seed=*/1,
                                           /*parallelism=*/4);
    eng->run_rounds(8.0);
    EXPECT_EQ(crc32(snapshot_sans_counters(*eng)), pin.sans_counters)
        << pin.backend;
    if (!Profiler::compiled_in()) {
      EXPECT_EQ(crc32(snapshot_bytes(*eng)), pin.whole) << pin.backend;
    }
  }
}

TEST(SnapshotBytes, BatchRunRoundsPinnedAcrossVersions) {
  // The batch-backend counterpart of the pins above, on 1, 2 and 4 shards.
  // Each shard's stream feeds the matching shuffle 32 bits at a time and
  // the pairing loop one uniform per pair, so a change that consumes a
  // single word differently moves the shard states and fails here. Pinned
  // the same way: whole snapshot on the default tier, the snapshot without
  // its counters section on both.
  struct Pin {
    const char* name;
    unsigned threads;
    std::uint32_t whole;
    std::uint32_t sans_counters;
  };
  for (const Pin& pin :
       {Pin{"approx_majority", 1, 0x95ca9563u, 0x6a3e8fafu},
        Pin{"approx_majority", 2, 0x1c17469fu, 0x7e546594u},
        Pin{"approx_majority", 4, 0x6a911d0au, 0x1a155307u},
        Pin{"phase_clock", 1, 0x94d4b9d7u, 0xc52a2b56u},
        Pin{"phase_clock", 2, 0x653fb7abu, 0x460c00f8u},
        Pin{"phase_clock", 4, 0xf37c84c8u, 0x0ce6b113u}}) {
    const auto inst = make_protocol_instance(pin.name, 1u << 16);
    ASSERT_NE(inst, nullptr) << pin.name;
    const auto eng =
        make_backend_instance("batch", *inst, /*seed=*/1, pin.threads);
    eng->run_rounds(8.0);
    EXPECT_EQ(crc32(snapshot_sans_counters(*eng)), pin.sans_counters)
        << pin.name << " t=" << pin.threads;
    if (!Profiler::compiled_in()) {
      EXPECT_EQ(crc32(snapshot_bytes(*eng)), pin.whole)
          << pin.name << " t=" << pin.threads;
    }
  }
}

TEST(SnapshotBytes, PairKernelRunRoundsPinned) {
  // The kernel oscillator and clock after a fixed run on each backend,
  // pinned the same way as the registry protocols above: a change that
  // moves a kernel outcome list, its breakpoints or a trajectory fails
  // here. The count and count_shard clock pins were printed by the build
  // whose kBatch runs this clock (about 50 species at n = 4099) on direct
  // steps, which cost less than its blocks there.
  struct Pin {
    const char* backend;
    std::uint32_t osc_whole;
    std::uint32_t osc_sans;
    std::uint32_t clock_whole;
    std::uint32_t clock_sans;
  };
  const KernelFixture osc = KernelFixture::oscillator(4099);
  const KernelFixture clock = KernelFixture::clock(4099, {});
  for (const Pin& pin :
       {Pin{"agent", 0x446956a6u, 0xbfe4068fu, 0xfd9be759u, 0x454342b9u},
        Pin{"count", 0x280a41b3u, 0xf4824d67u, 0xab02ac01u, 0x05d23461u},
        Pin{"batch", 0xa0f1cf9du, 0xe70a3bdbu, 0xca2cf7e6u, 0x4a0508bfu},
        Pin{"count_shard", 0x343f07a0u, 0x343f07a0u, 0x33fb21f5u,
            0x33fb21f5u}}) {
    const auto o = osc.backend(pin.backend, /*seed=*/1)();
    o->run_rounds(6.0);
    const auto c = clock.backend(pin.backend, /*seed=*/1)();
    c->run_rounds(6.0);
    EXPECT_EQ(crc32(snapshot_sans_counters(*o)), pin.osc_sans) << pin.backend;
    EXPECT_EQ(crc32(snapshot_sans_counters(*c)), pin.clock_sans)
        << pin.backend;
    if (!Profiler::compiled_in()) {
      EXPECT_EQ(crc32(snapshot_bytes(*o)), pin.osc_whole) << pin.backend;
      EXPECT_EQ(crc32(snapshot_bytes(*c)), pin.clock_whole) << pin.backend;
    }
  }
}

TEST(MidBufferSnapshot, BatchEngineRestoresBitIdentically) {
  ClockFixture fx(4096);
  for (const unsigned threads : {1u, 2u, 4u}) {
    BatchEngine::Params params;
    params.threads = threads;
    params.min_shard = 256;
    BatchEngine ref(fx.proto, fx.init, /*seed=*/7, params);
    ref.run_rounds(5.0);
    const std::string snap = snapshot_bytes(ref);
    const std::string sans = snapshot_sans_counters(ref);

    BatchEngine res(fx.proto, fx.init, /*seed=*/7, params);
    res.run_rounds(2.0);
    restore_bytes(res, snap);
    EXPECT_EQ(snapshot_sans_counters(res), sans) << "t=" << threads;

    ref.run_rounds(6.0);
    res.run_rounds(6.0);
    EXPECT_EQ(snapshot_sans_counters(res), snapshot_sans_counters(ref))
        << "t=" << threads;
    EXPECT_EQ(res.species(), ref.species()) << "t=" << threads;
  }
}

// The same continue-and-compare protocol on the count backends completes the
// four-backend matrix the replay contract covers.
TEST(MidBufferSnapshot, CountEngineRestoresBitIdentically) {
  MajorityFixture fx(4096);
  CountEngine ref(fx.proto, {{fx.a, 2048}, {fx.b, 2048}}, /*seed=*/7,
                  CountEngineMode::kBatch);
  ref.run_rounds(9.0);
  const std::string snap = snapshot_bytes(ref);
  const std::string sans = snapshot_sans_counters(ref);

  CountEngine res(fx.proto, {{fx.a, 2048}, {fx.b, 2048}}, /*seed=*/31,
                  CountEngineMode::kBatch);
  res.run_rounds(3.0);
  restore_bytes(res, snap);
  EXPECT_EQ(snapshot_sans_counters(res), sans);

  ref.run_rounds(7.0);
  res.run_rounds(7.0);
  EXPECT_EQ(snapshot_sans_counters(res), snapshot_sans_counters(ref));
}

TEST(MidBufferSnapshot, CountShardEngineRestoresBitIdentically) {
  MajorityFixture fx(1 << 16);
  CountShardEngine::Params params;
  params.shards = 4;
  params.min_shard = 256;
  CountShardEngine ref(fx.proto, {{fx.a, 1u << 15}, {fx.b, 1u << 15}},
                       /*seed=*/7, params);
  ref.run_rounds(9.0);
  const std::string snap = snapshot_bytes(ref);
  const std::string sans = snapshot_sans_counters(ref);

  CountShardEngine res(fx.proto, {{fx.a, 1u << 15}, {fx.b, 1u << 15}},
                       /*seed=*/7, params);
  res.run_rounds(3.0);
  restore_bytes(res, snap);
  EXPECT_EQ(snapshot_sans_counters(res), sans);

  ref.run_rounds(7.0);
  res.run_rounds(7.0);
  EXPECT_EQ(snapshot_sans_counters(res), snapshot_sans_counters(ref));
}

// -- Malformed snapshots (satellite 3) ---------------------------------------

/// What a container is restored into: how to restore it, and its state as
/// bytes, which a rejected container must leave as they were.
struct RestoreTarget {
  std::function<void(const std::string&)> restore;
  std::function<std::string()> state;
};

RestoreTarget target_of(SimBackend& backend) {
  return {[&backend](const std::string& bytes) {
            restore_bytes(backend, bytes);
          },
          [&backend] { return snapshot_bytes(backend); }};
}

/// Expect `bytes` to be rejected with a SnapshotError (optionally a specific
/// code) and the target left bit-for-bit unchanged.
void expect_rejected(const RestoreTarget& target, const std::string& bytes,
                     const SnapshotErrc* expected_code,
                     const std::string& what) {
  const std::string before = target.state();
  try {
    target.restore(bytes);
    FAIL() << what << ": corrupted snapshot was accepted";
  } catch (const SnapshotError& e) {
    if (expected_code) {
      EXPECT_EQ(static_cast<int>(e.code()), static_cast<int>(*expected_code))
          << what << ": wrong error code (" << snapshot_errc_name(e.code())
          << ": " << e.what() << ")";
    }
  } catch (...) {
    FAIL() << what << ": threw something other than SnapshotError";
  }
  EXPECT_EQ(target.state(), before) << what << ": target was mutated";
}

void expect_rejected(SimBackend& target, const std::string& bytes,
                     const SnapshotErrc* expected_code,
                     const std::string& what) {
  expect_rejected(target_of(target), bytes, expected_code, what);
}

/// A valid container and a target of the kind that wrote it.
struct Producer {
  std::string label;
  std::string container;
  RestoreTarget target;
};

/// The five producers of containers: the agent, count, batch (2 shards) and
/// count_shard (2 shards) engines after 4 rounds, and a FaultInjector after
/// 10 rounds of churn_plan(), each with a fresh target of its kind.
class Producers {
 public:
  Producers() {
    add("agent", clock_.agent(7));
    add("count", maj_.count(7, CountEngineMode::kBatch));
    add("batch", clock_.batch(7, 2));
    add("count_shard", maj_.count_shard(7, 2));

    auto eng = clock_.agent(7)();
    FaultInjector injector(churn_plan(), 42);
    injector.attach(*eng);
    eng->run_rounds(10.0);
    std::ostringstream out;
    injector.snapshot(out);
    all.push_back({"fault_injector", out.str(),
                   {[this](const std::string& bytes) {
                      std::istringstream in(bytes);
                      injector_.restore(in, *injector_engine_);
                    },
                    [this] {
                      std::ostringstream state;
                      injector_.snapshot(state);
                      return state.str() + snapshot_bytes(*injector_engine_);
                    }}});
  }

  std::vector<Producer> all;

 private:
  void add(const std::string& label, const BackendFactory& make) {
    auto src = make();
    src->run_rounds(4.0);
    targets_.push_back(make());
    all.push_back({label, snapshot_bytes(*src), target_of(*targets_.back())});
  }

  ClockFixture clock_{512};
  MajorityFixture maj_{512};
  std::vector<std::unique_ptr<SimBackend>> targets_;
  FaultInjector injector_{churn_plan(), 43};
  std::unique_ptr<SimBackend> injector_engine_ = clock_.agent(7)();
};

TEST(MalformedSnapshot, TruncationsAlwaysThrow) {
  Producers producers;
  const SnapshotErrc trunc = SnapshotErrc::kTruncated;
  for (const Producer& p : producers.all) {
    const std::string& snap = p.container;
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{7},
          snap.size() / 3, snap.size() / 2, snap.size() - 1}) {
      // Truncating mid-payload can also surface as a checksum / corrupt
      // failure depending on where the cut lands; "typed error, target
      // untouched" is the contract.
      expect_rejected(p.target, snap.substr(0, len),
                      len < 8 ? &trunc : nullptr,
                      p.label + " truncated to " + std::to_string(len) +
                          " bytes");
    }
  }
}

TEST(MalformedSnapshot, HeaderFieldRejections) {
  ClockFixture fx(512);
  auto src = fx.agent(7)();
  src->run_rounds(4.0);
  const std::string snap = snapshot_bytes(*src);
  auto target = fx.agent(7)();

  std::string bad_magic = snap;
  bad_magic[0] ^= 0x5a;
  const SnapshotErrc magic = SnapshotErrc::kBadMagic;
  expect_rejected(*target, bad_magic, &magic, "flipped magic");

  std::string bad_version = snap;
  bad_version[4] = 0x7f;
  const SnapshotErrc version = SnapshotErrc::kBadVersion;
  expect_rejected(*target, bad_version, &version, "future format version");
}

TEST(MalformedSnapshot, FlippedCrcByteThrowsBadChecksum) {
  ClockFixture fx(512);
  auto src = fx.agent(7)();
  src->run_rounds(4.0);
  const std::string snap = snapshot_bytes(*src);
  auto target = fx.agent(7)();

  // The first section starts right after the 8-byte header: u32 tag,
  // u64 len, u32 crc — flip a byte of the CRC field itself.
  std::string bad = snap;
  bad[8 + 4 + 8] ^= 0x01;
  const SnapshotErrc checksum = SnapshotErrc::kBadChecksum;
  expect_rejected(*target, bad, &checksum, "flipped CRC byte");
}

TEST(MalformedSnapshot, WrongBackendAndWrongProtocol) {
  MajorityFixture maj(512);
  auto count_src = maj.count(7, CountEngineMode::kDirect)();
  count_src->run_rounds(4.0);

  ClockFixture clock(512);
  auto agent_target = clock.agent(7)();
  const SnapshotErrc backend = SnapshotErrc::kBadBackend;
  expect_rejected(*agent_target, snapshot_bytes(*count_src), &backend,
                  "count snapshot into agent engine");

  // Same substrate, different protocol: fingerprint mismatch.
  auto clock_src = clock.agent(7)();
  clock_src->run_rounds(4.0);
  Engine osc_target(maj.proto, std::vector<State>(512, maj.a), /*seed=*/7);
  const SnapshotErrc fp = SnapshotErrc::kBadFingerprint;
  expect_rejected(osc_target, snapshot_bytes(*clock_src), &fp,
                  "phase-clock snapshot into majority engine");
}

TEST(MalformedSnapshot, KernelParametersAreFingerprinted) {
  // Kernel threads carry no rules to hash, so their signature stands in:
  // a clock snapshot under believer_k = 6 must not restore into an engine
  // whose kernel certifies after 4 meetings (same variables, same states).
  ClockLevelParams k6;
  ClockLevelParams k4;
  k4.believer_k = 4;
  const KernelFixture src_fx = KernelFixture::clock(512, k6);
  const KernelFixture dst_fx = KernelFixture::clock(512, k4);
  EXPECT_NE(protocol_fingerprint(src_fx.proto),
            protocol_fingerprint(dst_fx.proto));
  for (const char* backend : {"agent", "count"}) {
    auto src = src_fx.backend(backend, 7)();
    src->run_rounds(4.0);
    auto target = dst_fx.backend(backend, 7)();
    const SnapshotErrc fp = SnapshotErrc::kBadFingerprint;
    expect_rejected(*target, snapshot_bytes(*src), &fp,
                    std::string("believer_k 6 snapshot into k = 4 on ") +
                        backend);
  }
  // A junta snapshot restores only into a junta engine: on another kernel
  // protocol the fingerprint differs.
  const KernelFixture junta = KernelFixture::junta(512);
  const KernelFixture osc = KernelFixture::oscillator(512);
  for (const char* backend : {"agent", "count"}) {
    auto src = junta.backend(backend, 7)();
    src->run_rounds(4.0);
    auto target = osc.backend(backend, 7)();
    const SnapshotErrc fp = SnapshotErrc::kBadFingerprint;
    expect_rejected(*target, snapshot_bytes(*src), &fp,
                    std::string("junta snapshot into the oscillator on ") +
                        backend);
  }
  // The oscillator's weak-predation probability is part of it too.
  OscillatorParams p3;
  p3.weak_predation_p = 0.3;
  EXPECT_NE(protocol_fingerprint(make_oscillator_kernel_protocol(
                make_var_space())),
            protocol_fingerprint(make_oscillator_kernel_protocol(
                make_var_space(), p3)));
}

/// A kBatch count-engine snapshot (n = 512, 4 rounds) with `edit` applied
/// to its core section payload and that section's CRC recomputed, so only
/// the semantic checks can reject it.
std::string count_snapshot_with_core_edit(
    MajorityFixture& maj, const std::function<void(std::string&)>& edit) {
  auto src = maj.count(7, CountEngineMode::kBatch)();
  src->run_rounds(4.0);
  bool rewritten = false;
  const std::string out =
      rewrite_sections(snapshot_bytes(*src), [&](Sections& sections) {
        for (auto& [tag, payload] : sections)
          if (tag == static_cast<std::uint32_t>(SnapshotSection::kCore)) {
            edit(payload);
            rewritten = true;
          }
      });
  EXPECT_TRUE(rewritten);
  return out;
}

TEST(MalformedSnapshot, RetiredCountModeByteIsRejected) {
  // Mode byte 2 named a count-engine mode that no longer exists. A snapshot
  // carrying it, with a valid CRC, is rejected rather than guessed at.
  MajorityFixture maj(512);
  const std::string bad =
      count_snapshot_with_core_edit(maj, [](std::string& core) {
        ASSERT_EQ(core[0], static_cast<char>(CountEngineMode::kBatch));
        core[0] = 2;  // the core section opens with the mode byte
      });
  auto target = maj.count(9, CountEngineMode::kBatch)();
  target->run_rounds(2.0);
  const SnapshotErrc corrupt = SnapshotErrc::kCorrupt;
  expect_rejected(*target, bad, &corrupt, "retired mode byte 2");
}

TEST(MalformedSnapshot, NonzeroCountBatchCapIsRejected) {
  // The u64 after the four flag bytes held a batch-cap knob that no longer
  // exists; snapshots write it as 0, and any other value is rejected.
  MajorityFixture maj(512);
  const std::string bad =
      count_snapshot_with_core_edit(maj, [](std::string& core) {
        ASSERT_GE(core.size(), 12u);
        for (int b = 4; b < 12; ++b) ASSERT_EQ(core[b], 0) << b;
        core[4] = 64;  // a cap of 64 interactions
      });
  auto target = maj.count(9, CountEngineMode::kBatch)();
  target->run_rounds(2.0);
  const SnapshotErrc corrupt = SnapshotErrc::kCorrupt;
  expect_rejected(*target, bad, &corrupt, "nonzero batch cap slot");
}

TEST(MalformedSnapshot, BatchShardCountMismatch) {
  ClockFixture fx(4096);
  auto src = fx.batch(7, 2)();
  src->run_rounds(4.0);
  auto target = fx.batch(7, 4)();
  const SnapshotErrc mismatch = SnapshotErrc::kConfigMismatch;
  expect_rejected(*target, snapshot_bytes(*src), &mismatch,
                  "t=2 snapshot into t=4 engine");
}

TEST(MalformedSnapshot, ByteFlipFuzz) {
  // Flip one byte at a time at pseudo-random offsets across a valid
  // container of each producer. Every flip must be rejected with a typed
  // error (payload flips by CRC, framing flips by the structural checks)
  // and must leave the target untouched. Seeded mt19937 keeps failures
  // reproducible.
  Producers producers;
  for (const Producer& p : producers.all) {
    const std::string& snap = p.container;
    std::mt19937 prng(1234);
    std::uniform_int_distribution<std::size_t> pick_offset(0, snap.size() - 1);
    std::uniform_int_distribution<int> pick_bit(0, 7);
    for (int trial = 0; trial < 120; ++trial) {
      const std::size_t off = pick_offset(prng);
      std::string bad = snap;
      bad[off] ^= static_cast<char>(1 << pick_bit(prng));
      expect_rejected(p.target, bad, nullptr,
                      p.label + " flip at offset " + std::to_string(off));
    }
  }
}

TEST(MalformedSnapshot, SectionSequenceIsExact) {
  // Every container here carries valid CRCs and only sections its producer
  // writes; just their sequence is wrong. A restore reads the sections in
  // the order they were written, so each one is refused: kTruncated where
  // the terminator comes before a section that is due, kCorrupt where any
  // other section does.
  Producers producers;
  for (const Producer& p : producers.all) {
    const Sections good = split_sections(p.container);
    ASSERT_GE(good.size(), 3u) << p.label;  // kMeta and its payload sections
    ASSERT_EQ(join_sections(good), p.container) << p.label;
    const auto expect = [&](const Sections& bad, SnapshotErrc code,
                            const std::string& what) {
      expect_rejected(p.target, join_sections(bad), &code,
                      p.label + ": " + what);
    };
    for (std::size_t i = 0; i < good.size(); ++i) {
      const std::string at = "section " + std::to_string(i);
      Sections twice = good;
      twice.insert(twice.begin() + static_cast<std::ptrdiff_t>(i), good[i]);
      expect(twice, SnapshotErrc::kCorrupt, at + " twice");

      Sections dropped = good;
      dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
      expect(dropped,
             i + 1 == good.size() ? SnapshotErrc::kTruncated
                                  : SnapshotErrc::kCorrupt,
             at + " dropped");

      if (i + 1 < good.size()) {
        Sections swapped = good;
        std::swap(swapped[i], swapped[i + 1]);
        expect(swapped, SnapshotErrc::kCorrupt, at + " swapped with the next");
      }
    }
    Sections extra = good;
    extra.push_back(good[1]);
    expect(extra, SnapshotErrc::kCorrupt, "first payload section again last");
    Sections foreign = good;
    foreign.emplace_back(
        static_cast<std::uint32_t>(SnapshotSection::kFaultState) + 1, "");
    expect(foreign, SnapshotErrc::kCorrupt, "unknown tag before kEnd");
  }
}

TEST(MalformedSnapshot, SectionPayloadsAreReadExactly) {
  // Each container here carries one section with 8 zero bytes past the
  // fields its restore reads, under a valid CRC. A restore reads every
  // payload to its end, kMeta's included, so each one is refused.
  Producers producers;
  const SnapshotErrc corrupt = SnapshotErrc::kCorrupt;
  for (const Producer& p : producers.all) {
    const Sections good = split_sections(p.container);
    for (std::size_t i = 0; i < good.size(); ++i) {
      Sections padded = good;
      padded[i].second.append(8, '\0');
      expect_rejected(p.target, join_sections(padded), &corrupt,
                      p.label + ": section " + std::to_string(i) + " padded");
    }
  }

  // count_shard's population section holds each shard's CountEngine
  // container as a string field: pad each of their sections, and then
  // each container past its terminator.
  const Producer& shard = producers.all[3];
  ASSERT_EQ(shard.label, "count_shard");
  const auto with_blob_edit = [&](std::size_t b,
                                  const std::function<void(std::string&)>&
                                      edit) {
    return rewrite_sections(shard.container, [&](Sections& sections) {
      for (auto& [tag, payload] : sections) {
        if (tag != static_cast<std::uint32_t>(SnapshotSection::kPopulation))
          continue;
        BinReader r(payload);
        std::vector<std::string> blobs(static_cast<std::size_t>(r.u64()));
        for (std::string& blob : blobs) blob = r.str();
        ASSERT_TRUE(r.at_end());
        edit(blobs.at(b));
        payload.clear();
        BinWriter w(payload);
        w.u64(blobs.size());
        for (const std::string& blob : blobs) w.str(blob);
      }
    });
  };
  for (std::size_t b = 0; b < 2; ++b) {
    const std::string at = "count_shard: shard " + std::to_string(b);
    std::size_t sections = 0;
    with_blob_edit(b, [&](std::string& blob) {
      sections = split_sections(blob).size();
    });
    ASSERT_GE(sections, 3u) << at;
    for (std::size_t i = 0; i < sections; ++i)
      expect_rejected(shard.target,
                      with_blob_edit(b,
                                     [&](std::string& blob) {
                                       blob = rewrite_sections(
                                           blob, [&](Sections& inner) {
                                             inner[i].second.append(8, '\0');
                                           });
                                     }),
                      &corrupt, at + " section " + std::to_string(i) + " padded");
    expect_rejected(
        shard.target,
        with_blob_edit(b, [](std::string& blob) { blob.append(8, '\0'); }),
        &corrupt, at + " container padded past its terminator");
  }
}

// -- Serialization round-trips -----------------------------------------------

TEST(Serialization, CountersRoundTrip) {
  EngineCounters c;
  c.interactions = 1;
  c.effective_steps = 2;
  c.dropped_interactions = 3;
  c.cache_builds = 4;
  c.cache_fallbacks = 5;
  c.skip_jumps = 6;
  c.skipped_interactions = 7;
  c.crash_events = 8;
  c.rejoin_events = 9;
  c.corrupted_agents = 10;
  c.batch_blocks = 11;
  c.batch_collisions = 12;
  c.cache_hits = 13;

  std::string bytes;
  BinWriter w(bytes);
  serialize_counters(w, c);
  BinReader r(bytes);
  const EngineCounters d = deserialize_counters(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(d.interactions, c.interactions);
  EXPECT_EQ(d.effective_steps, c.effective_steps);
  EXPECT_EQ(d.dropped_interactions, c.dropped_interactions);
  EXPECT_EQ(d.cache_builds, c.cache_builds);
  EXPECT_EQ(d.cache_fallbacks, c.cache_fallbacks);
  EXPECT_EQ(d.skip_jumps, c.skip_jumps);
  EXPECT_EQ(d.skipped_interactions, c.skipped_interactions);
  EXPECT_EQ(d.crash_events, c.crash_events);
  EXPECT_EQ(d.rejoin_events, c.rejoin_events);
  EXPECT_EQ(d.corrupted_agents, c.corrupted_agents);
  EXPECT_EQ(d.batch_blocks, c.batch_blocks);
  EXPECT_EQ(d.batch_collisions, c.batch_collisions);
  EXPECT_EQ(d.cache_hits, c.cache_hits);
}

// Reference for crc32's slicing-by-8 loop: the textbook reflected CRC-32,
// one byte per step and one bit at a time within it.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Serialization, Crc32MatchesBytewiseReference) {
  EXPECT_EQ(crc32(std::string()), 0u);
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);  // IEEE check

  std::mt19937_64 gen(17);
  std::vector<unsigned char> buf((1u << 20) + 8);
  for (auto& byte : buf) byte = static_cast<unsigned char>(gen());
  // Every tail length of the 8-byte loop, at every alignment.
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 64; ++len)
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bitwise(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
  EXPECT_EQ(crc32(buf.data(), 1u << 20), crc32_bitwise(buf.data(), 1u << 20));
}

TEST(Serialization, GatherSectionWritesTheStringFormsBytes) {
  // The gather form checksums and writes its parts in place; the container
  // it produces must equal the one-string form's byte for byte, whatever
  // the split (empty parts and an empty vector's null data() included).
  std::mt19937_64 gen(19);
  std::vector<std::uint64_t> wide(100'003);
  for (auto& w : wide) w = gen();
  std::vector<std::uint32_t> narrow(77);
  for (auto& w : narrow) w = static_cast<std::uint32_t>(gen());
  const std::vector<std::uint32_t> none;
  const std::uint64_t n_wide = wide.size();
  const std::uint64_t n_narrow = narrow.size();
  const std::uint64_t n_none = 0;

  std::string joined;
  BinWriter j(joined);
  j.u64_vec(wide);
  j.u32_vec(narrow);
  j.u32_vec(none);

  std::ostringstream one, gathered;
  SnapshotWriter a(one, "agent", 42, 7);
  a.section(SnapshotSection::kPopulation, joined);
  a.section(SnapshotSection::kCore, "");
  a.finish();
  SnapshotWriter b(gathered, "agent", 42, 7);
  b.section(SnapshotSection::kPopulation,
            {bytes_of(n_wide), bytes_of(wide), std::string_view(),
             bytes_of(n_narrow), bytes_of(narrow), bytes_of(n_none),
             bytes_of(none)});
  b.section(SnapshotSection::kCore, {});
  b.finish();
  EXPECT_EQ(gathered.str(), one.str());
  EXPECT_EQ(b.bytes_written(), a.bytes_written());
  EXPECT_EQ(b.bytes_written(), one.str().size());
}

TEST(Serialization, WordVectorsRoundTripWithExactLayout) {
  // Layout: u64 element count, then the elements little-endian, packed.
  const auto expected_bytes = [](const auto& v) {
    std::string out;
    const auto put = [&out](std::uint64_t x, int width) {
      for (int b = 0; b < width; ++b)
        out.push_back(static_cast<char>((x >> (8 * b)) & 0xFFu));
    };
    put(v.size(), 8);
    for (const auto x : v) put(x, static_cast<int>(sizeof x));
    return out;
  };
  std::mt19937_64 gen(18);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{65'536}}) {
    std::vector<std::uint64_t> wide(n);
    std::vector<std::uint32_t> narrow(n);
    for (std::size_t i = 0; i < n; ++i) {
      wide[i] = gen();
      narrow[i] = static_cast<std::uint32_t>(gen());
    }
    std::string bytes;
    BinWriter w(bytes);
    w.u64_vec(wide);
    w.u32_vec(narrow);
    EXPECT_EQ(bytes, expected_bytes(wide) + expected_bytes(narrow))
        << "n=" << n;

    BinReader r(bytes);
    EXPECT_EQ(r.u64_vec(), wide) << "n=" << n;
    EXPECT_EQ(r.u32_vec(), narrow) << "n=" << n;
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Serialization, FaultPlanRoundTrip) {
  // One event of every kind, exercising every spec payload: palettes,
  // masks, Bernoulli windows, rejoin-all, and a bias window with a compiled
  // guard.
  FaultPlan plan;
  plan.corrupt_at(3.0, CorruptSpec{.fraction = 0.0,
                                   .count = 17,
                                   .mode = CorruptMode::kSpread,
                                   .fixed_state = 0,
                                   .palette = {1, 2, 3},
                                   .mask = 0xff});
  plan.crash_bernoulli(0.25, 2.0, 9.0, CrashSpec{.fraction = 0.01, .count = 0});
  plan.rejoin_at(12.0, RejoinSpec{.fraction = 0.0, .count = 0, .all = true});
  plan.dropout_window(1.0, 5.0, 0.125);
  SchedulerBias bias;
  bias.epsilon = 0.5;
  bias.prefer = Guard::from_minterms(false, {{0x3, 0x1}});
  bias.tries = 6;
  plan.bias_window(4.0, 8.0, bias);

  std::string bytes;
  BinWriter w(bytes);
  serialize_fault_plan(w, plan);
  BinReader r(bytes);
  const FaultPlan back = deserialize_fault_plan(r);
  EXPECT_TRUE(r.at_end());
  ASSERT_EQ(back.size(), plan.size());

  // Re-serialize: byte equality is the cleanest whole-struct comparison.
  std::string bytes2;
  BinWriter w2(bytes2);
  serialize_fault_plan(w2, back);
  EXPECT_EQ(bytes2, bytes);
}

TEST(Serialization, FaultPlanRejectsPalettelessRandomCorrupt) {
  FaultPlan plan;
  plan.corrupt_at(1.0, CorruptSpec{.fraction = 0.1,
                                   .count = 0,
                                   .mode = CorruptMode::kRandom,
                                   .fixed_state = 0,
                                   .palette = {4},
                                   .mask = ~State{0}});
  std::string bytes;
  BinWriter w(bytes);
  serialize_fault_plan(w, plan);
  // Surgically empty the palette: find the u64 palette length (1) — it is
  // the only place this plan stores a vector — easier to just rebuild the
  // plan with an empty palette via from_events and serialize that.
  FaultEvent ev = plan.events()[0];
  ev.corrupt.palette.clear();
  std::string bad;
  BinWriter wb(bad);
  serialize_fault_plan(wb, FaultPlan::from_events({ev}));
  BinReader r(bad);
  EXPECT_THROW(deserialize_fault_plan(r), SnapshotError);
}

// -- Fault-schedule resume (satellite 1) -------------------------------------

TEST(FaultResume, AgentEngineReplaysRemainingSchedule) {
  ClockFixture fx(2048);
  const ReplayCheckResult r =
      replay_check_with_faults(fx.agent(7), 10.0, churn_plan(), 42);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FaultResume, CountEngineReplaysRemainingSchedule) {
  MajorityFixture fx(4096);
  const ReplayCheckResult r = replay_check_with_faults(
      fx.count(7, CountEngineMode::kDirect), 10.0, churn_plan(), 42);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FaultResume, BatchEngineReplaysRemainingSchedule) {
  ClockFixture fx(4096);
  const ReplayCheckResult r =
      replay_check_with_faults(fx.batch(7, 2), 10.0, churn_plan(), 42);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FaultResume, CountShardEngineReplaysRemainingSchedule) {
  MajorityFixture fx(4096);
  const ReplayCheckResult r =
      replay_check_with_faults(fx.count_shard(7, 2), 10.0, churn_plan(), 42);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FaultResume, InjectorSnapshotRejectsCorruption) {
  ClockFixture fx(1024);
  auto eng = fx.agent(7)();
  FaultInjector injector(churn_plan(), 42);
  injector.attach(*eng);
  eng->run_rounds(10.0);

  std::ostringstream out;
  injector.snapshot(out);
  const std::string snap = out.str();

  auto target_eng = fx.agent(7)();
  FaultInjector target(churn_plan(), 43);
  std::mt19937 prng(99);
  std::uniform_int_distribution<std::size_t> pick(0, snap.size() - 1);
  for (int trial = 0; trial < 40; ++trial) {
    std::string bad = snap;
    bad[pick(prng)] ^= 0x10;
    std::istringstream in(bad);
    EXPECT_THROW(target.restore(in, *target_eng), SnapshotError);
  }
}

// -- AutoCheckpoint (tentpole harness plumbing) ------------------------------

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(AutoCheckpoint, TickCadenceAndLoad) {
  const std::string path = temp_path("popproto_ckpt_cadence.bin");
  std::remove(path.c_str());

  ClockFixture fx(1024);
  auto eng = fx.agent(7)();
  AutoCheckpoint ckpt(*eng, {/*every_rounds=*/4.0, path});
  EXPECT_FALSE(ckpt.tick());  // nothing accumulated yet

  std::uint64_t ticks = 0;
  for (int i = 0; i < 12; ++i) {
    eng->run_rounds(1.0);
    if (ckpt.tick()) ++ticks;
  }
  EXPECT_EQ(ticks, 3u);  // every 4 rounds over 12
  EXPECT_EQ(ckpt.checkpoints_written(), 3u);

  auto restored = fx.agent(7)();
  ASSERT_TRUE(AutoCheckpoint::load(path, *restored));
  // The last checkpoint fired at the last tick: identical state.
  EXPECT_EQ(restored->species(), eng->species());
  EXPECT_EQ(restored->interactions(), eng->interactions());
  std::remove(path.c_str());
}

TEST(AutoCheckpoint, MissingFileReturnsFalse) {
  ClockFixture fx(512);
  auto eng = fx.agent(7)();
  EXPECT_FALSE(
      AutoCheckpoint::load(temp_path("popproto_ckpt_missing.bin"), *eng));
}

TEST(AutoCheckpoint, InjectorFlagRoundTripAndMismatch) {
  const std::string path = temp_path("popproto_ckpt_faults.bin");
  std::remove(path.c_str());

  ClockFixture fx(1024);
  auto eng = fx.agent(7)();
  FaultInjector injector(churn_plan(), 42);
  injector.attach(*eng);
  eng->run_rounds(10.0);
  AutoCheckpoint ckpt(*eng, {4.0, path}, &injector);
  ckpt.write_now();

  // Loading without an injector must refuse (the checkpoint carries fault
  // state) and leave the engine untouched.
  auto plain = fx.agent(7)();
  const std::string before = snapshot_bytes(*plain);
  try {
    AutoCheckpoint::load(path, *plain);
    FAIL() << "injector-bearing checkpoint accepted without an injector";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(SnapshotErrc::kConfigMismatch));
  }
  EXPECT_EQ(snapshot_bytes(*plain), before);

  // With an injector supplied, the pair resumes onto the reference
  // trajectory.
  auto resumed_eng = fx.agent(7)();
  FaultInjector resumed_injector(churn_plan(), 43);
  ASSERT_TRUE(AutoCheckpoint::load(path, *resumed_eng, &resumed_injector));
  eng->run_rounds(8.0);
  resumed_eng->run_rounds(8.0);
  EXPECT_EQ(resumed_eng->species(), eng->species());
  EXPECT_EQ(resumed_eng->interactions(), eng->interactions());
  ASSERT_EQ(resumed_injector.log().size(), injector.log().size());
  for (std::size_t i = 0; i < injector.log().size(); ++i) {
    EXPECT_EQ(static_cast<int>(resumed_injector.log()[i].kind),
              static_cast<int>(injector.log()[i].kind));
    EXPECT_EQ(resumed_injector.log()[i].affected, injector.log()[i].affected);
  }
  std::remove(path.c_str());
}

// Restored counters() stays exact even though transition caches are
// deliberately not serialized: the saved totals seed a base and new builds
// accumulate on top (never double-counted, never lost).
TEST(Restore, CacheBuildCountersStayMonotonic) {
  ClockFixture fx(1024);
  auto ref = fx.agent(7)();
  ref->run_rounds(8.0);
  const EngineCounters at_snap = ref->counters();
  const std::string snap = snapshot_bytes(*ref);

  auto res = fx.agent(7)();
  restore_bytes(*res, snap);
  EXPECT_EQ(res->counters().cache_builds, at_snap.cache_builds);
  res->run_rounds(8.0);
  // The resumed run relearns pair bindings, so builds grow past the saved
  // total; the trajectory-relevant counters still match the reference.
  EXPECT_GE(res->counters().cache_builds, at_snap.cache_builds);
}

}  // namespace
}  // namespace popproto
