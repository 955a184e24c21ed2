#include "sweep/runner.hpp"

#include <chrono>
#include <cstdio>
#include <memory>

#include "core/expr.hpp"
#include "core/sim_backend.hpp"
#include "faults/injector.hpp"
#include "persist/checkpoint.hpp"
#include "server/protocol_registry.hpp"
#include "support/serialize.hpp"

namespace popproto {
namespace {

/// crc32 over the backend's (state, count) species table, serialized LE.
/// Each substrate's species() ordering is deterministic for a fixed
/// trajectory, so equal crcs here witness equal final configurations.
std::uint64_t species_crc(const SimBackend& eng) {
  std::string bytes;
  for (const auto& [state, count] : eng.species()) {
    for (int b = 0; b < 8; ++b)
      bytes += static_cast<char>((state >> (8 * b)) & 0xff);
    for (int b = 0; b < 8; ++b)
      bytes += static_cast<char>((count >> (8 * b)) & 0xff);
  }
  return crc32(bytes);
}

struct JobContext {
  std::unique_ptr<ProtocolInstance> instance;
  std::unique_ptr<SimBackend> engine;
  std::unique_ptr<FaultInjector> injector;
};

JobContext build_job(const JobSpec& job, const SweepSpec& spec) {
  JobContext ctx;
  ctx.instance = make_protocol_instance(job.protocol, job.n);
  if (!ctx.instance)
    throw RunnerError{"unknown protocol '" + job.protocol + "'"};
  ctx.engine =
      make_backend_instance(job.backend, *ctx.instance, job.seed, job.threads);
  if (!ctx.engine) throw RunnerError{"unknown backend '" + job.backend + "'"};
  if (!spec.faults.empty()) {
    ctx.injector =
        std::make_unique<FaultInjector>(spec.faults, injector_seed(job.seed));
    ctx.injector->attach(*ctx.engine);
  }
  return ctx;
}

}  // namespace

JobResult run_one_job(const JobSpec& job, const SweepSpec& spec,
                      const std::string& checkpoint_path) {
  const auto wall_start = std::chrono::steady_clock::now();
  JobResult result;

  JobContext ctx = build_job(job, spec);
  try {
    result.resumed = AutoCheckpoint::load(checkpoint_path, *ctx.engine,
                                          ctx.injector.get());
  } catch (const SnapshotError& e) {
    // Invalid checkpoint (fingerprint/backend/checksum/truncation): discard
    // it and restart this job from scratch. restore() is all-or-nothing,
    // but the injector's bind state is cheap to rebuild, so start over from
    // a clean context rather than reasoning about partial attachment.
    std::fprintf(stderr,
                 "popsweep: job %s: discarding invalid checkpoint %s (%s); "
                 "re-running from scratch\n",
                 job.id.c_str(), checkpoint_path.c_str(), e.what());
    std::remove(checkpoint_path.c_str());
    std::remove((checkpoint_path + ".tmp").c_str());
    ctx = build_job(job, spec);
    result.checkpoint_rejected = true;
  }

  // The until predicate compiles against this protocol's variable space;
  // its syntax was checked with the spec, so what fails here is a variable
  // this protocol does not have, surfaced per job.
  Guard guard;
  if (spec.until) {
    try {
      guard = Guard(parse_bool_expr(spec.until->expr, *ctx.instance->vars));
    } catch (const ExprParseError& e) {
      throw RunnerError{"until predicate: " + e.message};
    }
  }
  const auto predicate_holds = [&]() {
    return spec.until && spec.until->holds(ctx.engine->count_matching(guard),
                                           ctx.engine->active_n());
  };

  // Constructed after a successful load so the cadence counts from the
  // restored clock, not from zero (a stale base would write an immediate,
  // pointless checkpoint; the trajectory is unaffected either way —
  // snapshot() draws nothing).
  AutoCheckpoint ckpt(*ctx.engine,
                      {spec.checkpoint_every, checkpoint_path},
                      ctx.injector.get());

  // Unit-round drive loop (the bench_resume idiom): checkpoints and
  // predicate checks land on unit boundaries, so resumed and uninterrupted
  // runs execute the identical call sequence. The predicate is evaluated
  // once up front (the run_until contract, core/sim_backend.hpp).
  if (predicate_holds()) {
    result.converged = true;
    result.converged_at = ctx.engine->rounds();
  } else {
    while (ctx.engine->rounds() < spec.max_rounds) {
      ctx.engine->run_rounds(1.0);
      ckpt.tick();
      if (predicate_holds()) {
        result.converged = true;
        result.converged_at = ctx.engine->rounds();
        break;
      }
    }
  }

  result.rounds = ctx.engine->rounds();
  result.interactions = ctx.engine->interactions();
  result.active_n = ctx.engine->active_n();
  result.species_crc = species_crc(*ctx.engine);
  result.effective_steps = ctx.engine->counters().effective_steps;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace popproto
