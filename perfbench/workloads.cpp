#include "workloads.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "clocks/phase_clock.hpp"
#include "core/batch_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/expr.hpp"
#include "persist/checkpoint.hpp"
#include "server/command.hpp"
#include "server/protocol_registry.hpp"
#include "server/server.hpp"
#include "support/rng.hpp"
#include "sweep/manifest.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace perfbench {
namespace {

using popproto::Guard;
using popproto::SimBackend;

/// Independent per-repetition seed: the same (seed, salt) always gives the
/// same stream, so a run's inputs are a pure function of --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + salt;
  return popproto::splitmix64(s);
}

/// True while a time-bounded loop should start another repetition: one
/// that, at the mean repetition time so far, ends nearer to `seconds` than
/// stopping now would. A run thus lasts `seconds` give or take half a
/// repetition.
bool more_reps(int done, int min_reps, Clock::time_point start,
               double seconds) {
  if (done < min_reps) return true;
  const double elapsed = seconds_since(start);
  return elapsed + 0.5 * elapsed / done < seconds;
}

/// Median of a small sample (copy; sorts).
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Carry the output checks of a repetition whose measurements are not kept.
void merge_checks(const RawResult& from, RawResult& out) {
  out.attempted += from.attempted;
  for (std::uint64_t i = 0; i < from.failed; ++i)
    out.fail(i < from.failures.size() ? from.failures[i] : "failed check");
}

void record_counters(const popproto::EngineCounters& c, RawResult& out) {
  const double inter = static_cast<double>(c.interactions);
  out.add("core.interactions", inter);
  out.add("core.effective_steps", static_cast<double>(c.effective_steps));
  out.add("core.batch_blocks", static_cast<double>(c.batch_blocks));
  out.add("core.batch_collisions", static_cast<double>(c.batch_collisions));
  out.add("core.skip_jumps", static_cast<double>(c.skip_jumps));
  out.add("core.skipped_interactions",
          static_cast<double>(c.skipped_interactions));
  out.add("core.cache_builds", static_cast<double>(c.cache_builds));
}

/// One round's time for the per-layer split (migration rounds also apart).
void record_layer_round(double round_s, bool migration, RawResult& out) {
  out.sample("core.round_ms", round_s * 1e3);
  if (migration) out.sample("core.migration_round_ms", round_s * 1e3);
}

bool migration_due(double rounds_after, std::uint32_t migrate_every) {
  const auto r = static_cast<std::uint64_t>(rounds_after);
  return migrate_every > 0 && r % migrate_every == 0;
}

// -- clock_batch -------------------------------------------------------------

constexpr std::size_t kClockN = std::size_t{1} << 24;
constexpr unsigned kClockThreads = 4;
constexpr int kClockHorizon = 8;  // rounds per repetition
constexpr std::uint32_t kClockMigrateEvery = 4;  // BatchEngine default
// The clock's answer within the horizon. Its first digit tick lies hundreds
// of rounds out at this n (the rule-diluted bitmask form), far beyond any
// affordable horizon, so the per-round check tracks the front that leads
// to a tick: agents holding a certificate streak. The answer is the
// parallel time, interpolated between checks, at which that front first
// covers n/128 agents (about 4.4 rounds).
constexpr std::uint64_t kClockFront = kClockN / 128;

struct ClockProblem {
  popproto::VarSpacePtr vars = popproto::make_var_space();
  popproto::Protocol protocol = popproto::make_phase_clock_protocol(vars);
  Guard streak_holder{popproto::parse_bool_expr("PC_K0 | PC_K1", *vars)};
};

struct ClockRep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double advance_s = 0.0;  // in step()
  double observe_s = 0.0;  // in count_matching()
  std::uint64_t interactions = 0;
  double front_rounds = 0.0;  // 0 while the front has not been reached
};

/// Build a fresh n = 2^24 clock on `threads` shards and run the fixed
/// horizon, sampling each round's latency. Checks every observation, that
/// the front was reached, and the final species table. `layer_detail` adds
/// the per-layer round split and the engine counters.
ClockRep clock_rep(const ClockProblem& p, std::uint64_t seed, unsigned threads,
                   RawResult& out, bool layer_detail) {
  ClockRep rep;
  const auto t0 = Clock::now();
  popproto::BatchEngine::Params params;
  params.threads = threads;
  params.migrate_every = kClockMigrateEvery;
  const auto eng = std::make_unique<popproto::BatchEngine>(
      p.protocol,
      popproto::phase_clock_initial_states(kClockN, kClockN >> 10, *p.vars),
      seed, params);
  rep.setup_s = seconds_since(t0);

  // One step, then one count_matching check, per round: the pattern every
  // driver uses (run_until's default interval, the popsweep runner).
  const auto w0 = Clock::now();
  std::uint64_t prev_holders = 0;
  for (int r = 0; r < kClockHorizon; ++r) {
    const auto a = Clock::now();
    eng->step();
    const auto b = Clock::now();
    const std::uint64_t holders = eng->count_matching(p.streak_holder);
    const auto c = Clock::now();
    rep.advance_s += seconds_between(a, b);
    rep.observe_s += seconds_between(b, c);
    ++out.attempted;
    if (holders > kClockN) out.fail("clock: streak-holder count exceeds n");
    if (rep.front_rounds == 0.0 && holders >= kClockFront)
      rep.front_rounds =
          eng->rounds() - 1.0 +
          static_cast<double>(kClockFront - prev_holders) /
              static_cast<double>(holders - prev_holders);
    prev_holders = holders;
    out.sample("latency_us", seconds_between(a, c) * 1e6);
    if (layer_detail)
      record_layer_round(seconds_between(a, c),
                         migration_due(eng->rounds(), kClockMigrateEvery),
                         out);
  }
  rep.wall_s = seconds_since(w0);
  rep.interactions = eng->interactions();

  std::uint64_t total = 0;
  for (const auto& [state, count] : eng->species()) total += count;
  ++out.attempted;
  if (total != kClockN || eng->active_n() != kClockN)
    out.fail("clock: species counts do not sum to n");
  ++out.attempted;
  if (rep.front_rounds == 0.0)
    out.fail("clock: streak front not reached within the horizon");
  if (layer_detail) record_counters(eng->counters(), out);
  return rep;
}

// -- majority_count_shard ----------------------------------------------------

constexpr std::uint64_t kMajorityN = std::uint64_t{1} << 24;
constexpr double kMajorityMaxRounds = 1000.0;
constexpr int kMajoritySetupPerRep = 5;
constexpr std::size_t kMajorityShards = 4;  // the registry default
// Shards advance on the calling thread in the measured runs, so its CPU
// time is the query's cost. The thread count is execution-only (the
// trajectory is the same at any count), and four threads that meet at a
// barrier every round wait, every round, for the slowest vCPU of a shared
// host (perfbench/README.md). A traced run also measures the same query
// at kMajorityParallelThreads.
constexpr unsigned kMajorityThreads = 1;
constexpr unsigned kMajorityParallelThreads = 4;
// Measured runs make at least this many queries, one at a time, each
// with its own seed: a query's time follows its trajectory (some pass
// through a dozen slow skip-mode rounds more than others), so a run's
// figures need several.
constexpr int kMajorityMinQueries = 8;

struct MajorityRep {
  double setup_s = 0.0;  // CPU time
  double wall_s = 0.0;
  double cpu_s = 0.0;  // of run_until, on the calling thread
  double rounds = 0.0;
  std::uint64_t interactions = 0;
  double observe_s = 0.0;
  std::vector<double> round_s;  // each round's advance plus its check, CPU
};

std::unique_ptr<SimBackend> make_majority_engine(
    const popproto::ProtocolInstance& inst, std::uint64_t seed,
    unsigned threads) {
  popproto::CountShardEngine::Params params;
  params.shards = kMajorityShards;
  params.threads = threads;
  return std::make_unique<popproto::CountShardEngine>(
      *inst.protocol, inst.initial_counts, seed, params);
}

/// Registry approx_majority (9:7 split) at n = 2^24 on count_shard with
/// 4 shards advanced by `threads` workers, run_until consensus on BA with
/// one check per round. Set-up and round times are the calling thread's
/// CPU time, which is the whole cost at one thread; `wall_s` is the
/// steady_clock time of run_until. `layer_detail` records the per-layer
/// round split and the engine counters.
MajorityRep majority_rep(std::uint64_t seed, unsigned threads, RawResult& out,
                         bool layer_detail) {
  MajorityRep rep;
  const double c0 = thread_cpu_s();
  const auto inst =
      popproto::make_protocol_instance("approx_majority", kMajorityN);
  const auto eng = make_majority_engine(*inst, seed, threads);
  rep.setup_s = thread_cpu_s() - c0;
  const Guard ba(popproto::parse_bool_expr("BA", *inst->vars));
  const std::uint32_t migrate_every =
      static_cast<const popproto::CountShardEngine&>(*eng).migrate_every();

  // The predicate runs once before the first round and once after each,
  // so the gaps between its calls are the round latencies.
  std::vector<double> marks;
  const auto predicate = [&](const SimBackend& b) {
    marks.push_back(thread_cpu_s());
    const double t = marks.back();
    const bool all_ba = b.count_matching(ba) == b.active_n();
    rep.observe_s += thread_cpu_s() - t;
    return all_ba;
  };
  const auto w0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  const std::optional<double> hit =
      eng->run_until(predicate, kMajorityMaxRounds, 1.0);
  rep.cpu_s = thread_cpu_s() - cpu0;
  rep.wall_s = seconds_since(w0);
  rep.interactions = eng->interactions();
  rep.rounds = hit.value_or(eng->rounds());

  ++out.attempted;
  if (!hit) {
    out.fail("majority: no consensus on BA within the horizon");
  } else if (eng->count_matching(ba) != kMajorityN) {
    out.fail("majority: final configuration is not all BA");
  }
  for (std::size_t i = 1; i < marks.size(); ++i) {
    rep.round_s.push_back(marks[i] - marks[i - 1]);
    if (layer_detail)
      record_layer_round(rep.round_s.back(),
                         migration_due(static_cast<double>(i), migrate_every),
                         out);
  }
  if (layer_detail) record_counters(eng->counters(), out);
  return rep;
}

// -- serve -------------------------------------------------------------------

constexpr std::uint64_t kServeN = std::uint64_t{1} << 16;
constexpr int kServeConnections = 3;
constexpr double kServeMaxRounds = 2000.0;
constexpr int kServeChunks = 4;
constexpr int kServeSetupPerChunk = 5;
// A traced run spends at most this long serving: its three windows give
// the layer figures thousands of samples, and it keeps a traced run of a
// kept workload, which also passes through serve, well within its limit.
constexpr double kServeTracedSeconds = 30.0;

enum class Kind { kCreate, kDrop, kStep, kRun, kObserve };
constexpr const char* kKindNames[] = {"create", "drop", "step", "run",
                                      "observe"};

/// One connection's closed-loop request stream. Each connection owns one
/// approx_majority count bucket and cycles bench_load's request mix
/// (`step 8`, `observe BA`, `run 0.25`, in equal shares) on it until an
/// observe shows consensus on BA; then it drops the bucket and creates the
/// next one. The stream is a pure function of (seed, connection).
class MixGenerator {
 public:
  MixGenerator(std::uint64_t seed, int connection)
      : seed_(derive_seed(seed, 1000 + static_cast<std::uint64_t>(connection))),
        bucket_("c" + std::to_string(connection)) {}

  /// The next request line; kind() names it.
  std::string next(Clock::time_point now) {
    if (phase_ == Phase::kCreate) {
      kind_ = Kind::kCreate;
      created_at_ = now;
      rounds_ = 0.0;
      interactions_ = 0;
      cycle_ = 0;
      ++lifecycle_;
      return "create " + bucket_ + " count approx_majority " +
             std::to_string(kServeN) + " " +
             std::to_string(derive_seed(seed_, lifecycle_) % 1000000007u);
    }
    if (phase_ == Phase::kDrop) {
      kind_ = Kind::kDrop;
      return "drop " + bucket_;
    }
    // Small requests: the load is the daemon's IO, framing, queueing,
    // locking and parsing, not the engine.
    switch (cycle_++ % 3) {
      case 0:
        kind_ = Kind::kStep;
        return "step " + bucket_ + " 8";
      case 1:
        kind_ = Kind::kObserve;
        return "observe " + bucket_ + " BA";
      default:
        kind_ = Kind::kRun;
        return "run " + bucket_ + " 0.25";
    }
  }

  Kind kind() const { return kind_; }

  /// Check the reply to the last request and advance the lifecycle.
  /// Returns false when the reply is wrong (an ERROR, a short reply, or a
  /// bucket that missed consensus within kServeMaxRounds).
  bool on_reply(const std::string& reply, Clock::time_point now) {
    switch (kind_) {
      case Kind::kCreate:
        if (reply != "CREATED " + bucket_) return fail_lifecycle();
        phase_ = Phase::kMix;
        return true;
      case Kind::kDrop:
        phase_ = Phase::kCreate;
        return reply == "DELETED " + bucket_;
      case Kind::kStep:
      case Kind::kRun: {
        double rounds = 0.0;
        unsigned long long inter = 0;
        if (std::sscanf(reply.c_str(), "OK %lf %llu", &rounds, &inter) != 2)
          return fail_lifecycle();
        rounds_ = rounds;
        interactions_ = inter;
        if (rounds_ > kServeMaxRounds) return fail_lifecycle();
        return true;
      }
      case Kind::kObserve: {
        unsigned long long count = 0;
        if (std::sscanf(reply.c_str(), "COUNT %llu", &count) != 1)
          return fail_lifecycle();
        if (count == kServeN) {
          consensus_rounds.push_back(rounds_);
          lifecycle_s.push_back(seconds_between(created_at_, now));
          done_interactions += interactions_;
          phase_ = Phase::kDrop;
        }
        return true;
      }
    }
    return false;
  }

  /// Interactions of buckets whose lifecycle is still open.
  std::uint64_t open_interactions() const {
    return phase_ == Phase::kMix ? interactions_ : 0;
  }

  std::vector<double> consensus_rounds;
  std::vector<double> lifecycle_s;
  std::uint64_t done_interactions = 0;

 private:
  enum class Phase { kCreate, kMix, kDrop };

  bool fail_lifecycle() {
    phase_ = Phase::kDrop;
    return false;
  }

  std::uint64_t seed_;
  std::string bucket_;
  Phase phase_ = Phase::kCreate;
  Kind kind_ = Kind::kCreate;
  std::uint64_t lifecycle_ = 0;
  std::uint64_t cycle_ = 0;
  Clock::time_point created_at_{};
  double rounds_ = 0.0;
  std::uint64_t interactions_ = 0;
};

/// Blocking line-protocol client over loopback TCP.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connect_to(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr) == 0;
  }

  /// Send one request line and read one reply line (without the newline).
  bool request(const std::string& line, std::string& reply) {
    std::string msg = line + "\n";
    std::size_t sent = 0;
    while (sent < msg.size()) {
      const ssize_t k = ::send(fd_, msg.data() + sent, msg.size() - sent,
                               MSG_NOSIGNAL);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) return false;
      sent += static_cast<std::size_t>(k);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        reply.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(k));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// One connection's tallies from a measured window.
struct ConnectionLog {
  std::vector<double> latency_us;
  std::uint64_t requests = 0;
  std::uint64_t bad_replies = 0;
  std::vector<std::string> reasons;
};

/// A started daemon with one connected client per connection slot, each of
/// whose first request (the bucket create) has been answered.
struct ServeSetup {
  std::unique_ptr<popproto::Server> server;
  std::vector<std::unique_ptr<LineClient>> clients;
  std::vector<MixGenerator> gens;
  bool ok = true;
};

ServeSetup serve_setup(std::uint64_t seed) {
  ServeSetup s;
  popproto::Server::Options opts;  // loopback, ephemeral port, no snapshots
  s.server = std::make_unique<popproto::Server>(opts);
  if (!s.server->start()) {
    s.ok = false;
    return s;
  }
  for (int c = 0; c < kServeConnections; ++c) {
    s.clients.push_back(std::make_unique<LineClient>());
    s.gens.emplace_back(seed, c);
    std::string reply;
    const auto now = Clock::now();
    const std::string line = s.gens.back().next(now);
    if (!s.clients.back()->connect_to(s.server->port()) ||
        !s.clients.back()->request(line, reply) ||
        !s.gens.back().on_reply(reply, Clock::now()))
      s.ok = false;
  }
  return s;
}

/// Closed loop for one connection until `deadline`: one request in flight,
/// the next sent only after the reply arrived.
void serve_connection(LineClient& client, MixGenerator& gen,
                      Clock::time_point deadline, ConnectionLog& log) {
  std::string reply;
  for (;;) {
    const auto t0 = Clock::now();
    if (t0 >= deadline) break;
    const std::string line = gen.next(t0);
    const bool io_ok = client.request(line, reply);
    const auto t1 = Clock::now();
    ++log.requests;
    log.latency_us.push_back(seconds_between(t0, t1) * 1e6);
    if (!io_ok) {
      ++log.bad_replies;
      log.reasons.push_back("serve: connection lost on '" + line + "'");
      break;
    }
    if (!gen.on_reply(reply, t1)) {
      ++log.bad_replies;
      if (log.reasons.size() < 4)
        log.reasons.push_back("serve: '" + line + "' -> '" + reply + "'");
    }
  }
}

struct WindowResult {
  double seconds = 0.0;
  std::vector<ConnectionLog> logs;
};

WindowResult serve_window(ServeSetup& s, double seconds) {
  WindowResult w;
  w.logs.resize(kServeConnections);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeConnections; ++c)
    threads.emplace_back(serve_connection, std::ref(*s.clients[c]),
                         std::ref(s.gens[c]), deadline, std::ref(w.logs[c]));
  for (auto& t : threads) t.join();
  w.seconds = seconds_since(start);
  return w;
}

void fold_window(const WindowResult& w, const char* latency_name,
                 RawResult& out) {
  for (const ConnectionLog& log : w.logs) {
    out.attempted += log.requests;
    for (double v : log.latency_us) out.sample(latency_name, v);
    for (std::uint64_t i = 0; i < log.bad_replies; ++i)
      out.fail(i < log.reasons.size() ? log.reasons[i] : "serve: bad reply");
  }
}

/// The same mix run through CommandExecutor::execute in-process (no
/// sockets, one thread) for the execute-time split by command kind.
void serve_execute_in_process(std::uint64_t seed, double seconds,
                              RawResult& out) {
  popproto::BucketRegistry registry;
  popproto::ServerStats stats;
  popproto::CommandExecutor executor(registry, stats);
  std::vector<MixGenerator> gens;
  for (int c = 0; c < kServeConnections; ++c) gens.emplace_back(seed, c);
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    for (MixGenerator& gen : gens) {
      const std::string line = gen.next(Clock::now());
      const auto t0 = Clock::now();
      const popproto::CommandResult res = executor.execute(line);
      const double us = seconds_since(t0) * 1e6;
      std::string reply = res.text;
      if (!reply.empty() && reply.back() == '\n') reply.pop_back();
      ++out.attempted;
      if (!gen.on_reply(reply, Clock::now()))
        out.fail("serve in-process: '" + line + "' -> '" + reply + "'");
      out.sample(std::string("server.execute_us.") +
                     kKindNames[static_cast<int>(gen.kind())],
                 us);
      out.sample("server.execute_us.all", us);
    }
  }
}

// -- sweep_checkpointed ------------------------------------------------------

// One worker process at a time (still process mode, fork/exec per job):
// with four, a sweep's wall time is the slowest of four job slots on four
// shared vCPUs.
constexpr int kSweepJobs = 1;
constexpr int kSweepInitPerRep = 20;

/// The grid: approx_majority x {agent, count} x n {2^18, 2^20} x two seeds
/// drawn from the run's seed, so a sweep takes seconds and a run holds
/// a few. A job's time follows its trajectory, which its seed sets: two
/// seeds halve how much one draw moves the sweep's figures.
std::string sweep_spec_text(std::uint64_t seed) {
  const std::uint64_t s1 = 1 + derive_seed(seed, 2001) % 1000000;
  const std::uint64_t s2 = 1 + derive_seed(seed, 2002) % 1000000;
  return "# perfbench sweep_checkpointed grid\n"
         "protocol approx_majority\n"
         "backend agent count\n"
         "n 262144 1048576\n"
         "seed " + std::to_string(s1) + " " + std::to_string(s2) + "\n"
         "max_rounds 2000\n"
         "checkpoint_every 4\n"
         "until BA == all\n";
}

struct SweepRun {
  double wall_s = 0.0;
  // CPU time of the orchestrator and its workers, with each job's share
  // divided by its CoreSampler's mean reading and the samplers' own CPU
  // time left out.
  double cpu_s = 0.0;
  std::vector<popproto::JobRow> rows;
  std::map<std::string, double> job_cpu_s;  // by job id, divided alike
};

/// init_sweep into `dir`, timed (CPU time) as a set-up sample.
void timed_init(const RunConfig& cfg, const popproto::SweepSpec& spec,
                const std::string& dir, RawResult& out) {
  const double c0 = thread_cpu_s();
  popproto::init_sweep(dir, spec);
  out.sample(cfg.trace ? "sweep.init_s" : "setup_s", thread_cpu_s() - c0);
}

/// One line of the log the workers append to (run_one_logged).
struct JobCpu {
  double cpu_s = 0.0;
  double speed = 1.0;
  double sampler_s = 0.0;
};

std::map<std::string, JobCpu> read_job_cpu_log(const std::string& path) {
  std::map<std::string, JobCpu> jobs;
  std::ifstream in(path);
  std::string job;
  JobCpu j;
  while (in >> job >> j.cpu_s >> j.speed >> j.sampler_s) jobs[job] = j;
  return jobs;
}

SweepRun sweep_once(const RunConfig& cfg, const popproto::SweepSpec& spec,
                    const std::string& dir, RawResult& out) {
  SweepRun run;
  timed_init(cfg, spec, dir, out);
  popproto::SweepOptions opts;
  opts.dir = dir;
  opts.jobs = kSweepJobs;
  opts.worker_exe = cfg.self_exe;  // process mode; bench_out stays empty
  const std::string cpu_log = dir + ".cpu";
  ::setenv(kJobCpuLogEnv, cpu_log.c_str(), 1);  // inherited by the workers
  const auto w0 = Clock::now();
  const double c0 = process_cpu_s() + children_cpu_s();
  const popproto::SweepReport report = popproto::run_sweep(opts);
  double rest_s = process_cpu_s() + children_cpu_s() - c0;
  run.wall_s = seconds_since(w0);
  ::unsetenv(kJobCpuLogEnv);
  run.rows = popproto::Manifest::load(popproto::manifest_path(dir)).jobs();
  if (!report.complete())
    out.fail("sweep: " + std::to_string(report.failed) + " of " +
             std::to_string(report.total) + " jobs failed");
  // The orchestrator's work and the workers' start-up stay as measured.
  for (const auto& [id, j] : read_job_cpu_log(cpu_log)) {
    run.job_cpu_s[id] = j.cpu_s / j.speed;
    run.cpu_s += run.job_cpu_s[id];
    rest_s -= j.cpu_s + j.sampler_s;
  }
  run.cpu_s += rest_s;
  std::filesystem::remove_all(dir);
  std::filesystem::remove(cpu_log);
  return run;
}

/// Times snapshot, restore and AutoCheckpoint::write_now on the grid's
/// largest job shape (agent, n = 2^20) after a few rounds.
void sweep_persist_layer(const RunConfig& cfg, std::uint64_t seed,
                         RawResult& out) {
  auto inst = popproto::make_protocol_instance("approx_majority", 1u << 20);
  auto eng = popproto::make_backend_instance("agent", *inst, seed);
  eng->run_rounds(4.0);
  const std::string ckpt = cfg.tmp_dir + "/persist.ckpt";
  popproto::AutoCheckpoint writer(*eng, {4.0, ckpt});
  std::vector<double> snap_s, restore_s, ckpt_s;
  for (int i = 0; i < 3; ++i) {
    std::ostringstream buf;
    auto t0 = Clock::now();
    eng->snapshot(buf);
    snap_s.push_back(seconds_since(t0));
    const std::string bytes = buf.str();
    out.scalars["persist.snapshot_bytes"] = static_cast<double>(bytes.size());

    auto fresh = popproto::make_backend_instance("agent", *inst, seed + 1);
    std::istringstream in(bytes);
    t0 = Clock::now();
    fresh->restore(in);
    restore_s.push_back(seconds_since(t0));
    ++out.attempted;
    if (fresh->rounds() != eng->rounds() ||
        fresh->interactions() != eng->interactions())
      out.fail("persist: restored engine differs from the snapshotted one");

    t0 = Clock::now();
    writer.write_now();
    ckpt_s.push_back(seconds_since(t0));
  }
  std::filesystem::remove(ckpt);
  out.scalars["persist.snapshot_s"] = median_of(snap_s);
  out.scalars["persist.restore_s"] = median_of(restore_s);
  out.scalars["persist.checkpoint_s"] = median_of(ckpt_s);
}

}  // namespace

void run_clock_batch(const RunConfig& cfg, RawResult& out) {
  const ClockProblem problem;
  if (!cfg.trace) {
    const auto start = Clock::now();
    for (int rep = 0; more_reps(rep, 2, start, cfg.seconds); ++rep) {
      const ClockRep r = clock_rep(problem, derive_seed(cfg.seed, rep),
                                   kClockThreads, out, false);
      out.sample("setup_s", r.setup_s);
      out.sample("wall_s", r.wall_s);
      out.sample("rounds", r.front_rounds);
      out.add("interactions", static_cast<double>(r.interactions));
      out.add("busy_s", r.wall_s);
      out.add("requests", kClockHorizon);
    }
    return;
  }
  // Traced: the same problem without and with the per-layer round split
  // and counter reads (the tracing overhead), then again on one thread.
  const std::uint64_t seed = derive_seed(cfg.seed, 0);
  RawResult untraced;
  const ClockRep plain =
      clock_rep(problem, seed, kClockThreads, untraced, false);
  merge_checks(untraced, out);
  const ClockRep r = clock_rep(problem, seed, kClockThreads, out, true);
  out.scalars["trace.overhead_ratio"] = r.wall_s / plain.wall_s;
  out.scalars["core.advance_s"] = r.advance_s;
  out.scalars["core.observe_s"] = r.observe_s;
  RawResult t1_out;
  const ClockRep t1 = clock_rep(problem, seed, 1, t1_out, false);
  merge_checks(t1_out, out);
  out.scalars["core.t1_advance_s"] = t1.advance_s;
  out.scalars["core.parallel_speedup"] = t1.advance_s / r.advance_s;
}

void run_majority_count_shard(const RunConfig& cfg, RawResult& out) {
  if (!cfg.trace) {
    // A new query (a new trajectory) after each until the time is spent,
    // at least kMajorityMinQueries, each under a CoreSampler whose mean
    // reading divides its times. Construction alone takes microseconds, so
    // extra constructions before each query give its set-up median.
    const auto start = Clock::now();
    for (int k = 0; more_reps(k, kMajorityMinQueries, start, cfg.seconds);
         ++k) {
      CoreSampler sampler;
      std::vector<double> setup_s;
      for (int i = 0; i < kMajoritySetupPerRep; ++i) {
        const double c0 = thread_cpu_s();
        auto inst =
            popproto::make_protocol_instance("approx_majority", kMajorityN);
        auto eng = make_majority_engine(
            *inst, derive_seed(cfg.seed, 1000 + k), kMajorityThreads);
        setup_s.push_back(thread_cpu_s() - c0);
      }
      const MajorityRep r = majority_rep(derive_seed(cfg.seed, k),
                                         kMajorityThreads, out, false);
      setup_s.push_back(r.setup_s);
      sampler.stop();
      const double speed = sampler.mean_speed();
      for (double s : setup_s) out.sample("setup_s", s / speed);

      // One request is one consensus query.
      const double query_s = r.cpu_s / speed;
      out.sample("wall_s", query_s);
      out.sample("latency_us", query_s * 1e6);
      out.sample("rounds", r.rounds);
      out.add("interactions", static_cast<double>(r.interactions));
      out.add("requests", 1);
      out.add("busy_s", query_s);
    }
    return;
  }
  // Traced: the same query without and with the per-layer round split and
  // counter reads (the tracing overhead), then again on four threads. The
  // thread count is execution-only, so that query must give the same
  // trajectory; the advance-time ratio is the parallel speedup.
  const std::uint64_t seed = derive_seed(cfg.seed, 0);
  RawResult untraced;
  const MajorityRep plain =
      majority_rep(seed, kMajorityThreads, untraced, false);
  merge_checks(untraced, out);
  const MajorityRep r = majority_rep(seed, kMajorityThreads, out, true);
  out.scalars["trace.overhead_ratio"] = r.cpu_s / plain.cpu_s;
  const double advance_s = r.cpu_s - r.observe_s;
  out.scalars["core.advance_s"] = advance_s;
  out.scalars["core.observe_s"] = r.observe_s;
  out.scalars["core.t1_advance_s"] = advance_s;
  // The speedup compares elapsed times: at four threads most of the work
  // runs off the calling thread.
  const MajorityRep par =
      majority_rep(seed, kMajorityParallelThreads, out, false);
  out.scalars["core.parallel_speedup"] =
      (r.wall_s - r.observe_s) / (par.wall_s - par.observe_s);
  ++out.attempted;
  if (par.rounds != r.rounds || par.interactions != r.interactions)
    out.fail("majority: the trajectory changed with the thread count");
}

void run_serve(const RunConfig& cfg, RawResult& out) {
  // Start+create cycles, the last one kept to serve the window. Set-up
  // takes well under a millisecond, so more throwaway cycles between the
  // window's chunks spread its samples over the run.
  const auto setup_cycles = [&](int cycles, ServeSetup* keep) {
    for (int i = 0; i < cycles; ++i) {
      const auto t0 = Clock::now();
      ServeSetup s = serve_setup(cfg.seed);
      const double setup_s = seconds_since(t0);
      ++out.attempted;
      if (!s.ok) {
        out.fail("serve: daemon start or bucket create failed");
        if (s.server) s.server->stop();
        return false;
      }
      out.sample("setup_s", setup_s);
      if (keep != nullptr && i + 1 == cycles) {
        *keep = std::move(s);
      } else {
        s.clients.clear();
        s.server->stop();
      }
    }
    return true;
  };
  ServeSetup live;
  if (!setup_cycles(kServeSetupPerChunk, &live)) return;

  if (!cfg.trace) {
    std::uint64_t requests = 0;
    double busy_s = 0.0;
    for (int chunk = 0; chunk < kServeChunks; ++chunk) {
      if (chunk > 0 && !setup_cycles(kServeSetupPerChunk, nullptr)) break;
      const WindowResult w =
          serve_window(live, cfg.seconds / kServeChunks);
      fold_window(w, "latency_us", out);
      for (const ConnectionLog& log : w.logs) requests += log.requests;
      busy_s += w.seconds;
    }
    std::uint64_t interactions = 0;
    for (const MixGenerator& g : live.gens) {
      interactions += g.done_interactions + g.open_interactions();
      for (double r : g.consensus_rounds) out.sample("rounds", r);
      for (double s : g.lifecycle_s) out.sample("wall_s", s);
    }
    out.add("requests", static_cast<double>(requests));
    out.add("interactions", static_cast<double>(interactions));
    out.add("busy_s", busy_s);
  } else {
    // Two thirds of the window, the second giving the round trips the
    // layer split is read against, then the execute split in-process for
    // the last third. The split adds no timer to the socket path, so the
    // overhead ratio of the two windows is their run-to-run noise.
    const double window_s = std::min(cfg.seconds, kServeTracedSeconds) / 3;
    const WindowResult plain = serve_window(live, window_s);
    RawResult untraced;
    fold_window(plain, "latency_us", untraced);
    merge_checks(untraced, out);
    const WindowResult layer = serve_window(live, window_s);
    fold_window(layer, "server.roundtrip_us", out);
    out.scalars["trace.overhead_ratio"] =
        median_of(out.samples["server.roundtrip_us"]) /
        median_of(untraced.samples["latency_us"]);
    const auto& st = live.server->stats();
    const double cmds = static_cast<double>(st.commands_total.load());
    out.scalars["server.bytes_out_per_request"] =
        cmds > 0 ? static_cast<double>(st.bytes_out.load()) / cmds : 0.0;
    serve_execute_in_process(cfg.seed, window_s, out);
  }
  live.clients.clear();
  live.server->stop();
  const auto& st = live.server->stats();
  ++out.attempted;
  if (st.errors_total.load() != 0)
    out.fail("serve: daemon counted " + std::to_string(st.errors_total.load()) +
             " ERROR replies");
}

void run_sweep_checkpointed(const RunConfig& cfg, RawResult& out) {
  const popproto::SweepSpec spec =
      popproto::parse_sweep_spec(sweep_spec_text(cfg.seed));
  const std::size_t grid = popproto::expand_grid(spec).size();

  // init_sweep alone takes well under a millisecond: extra inits before
  // every sweep spread its set-up samples over the run.
  const auto init_samples = [&]() {
    for (int i = 0; i < kSweepInitPerRep; ++i) {
      const std::string dir = cfg.tmp_dir + "/init-" + std::to_string(i);
      timed_init(cfg, spec, dir, out);
      std::filesystem::remove_all(dir);
    }
  };

  // Whole sweeps until the budget is spent (traced: two, the second read
  // for the layer split; the per-job timing runs apart afterwards, so the
  // overhead ratio of the two is their run-to-run noise); every sweep of a
  // run shares the spec, so their deterministic row fields must match.
  // Measured runs keep each figure's fastest repetition, the closest to
  // what the code costs, since a shared host's noise only ever adds time:
  // the fastest whole sweep, and each job's fastest time over the sweeps.
  const auto start = Clock::now();
  std::vector<popproto::JobRow> reference;
  double untraced_cpu = 0.0;
  double sweep_floor = 0.0;
  std::vector<double> job_floor;
  for (int rep = 0; cfg.trace ? rep < 2 : more_reps(rep, 2, start, cfg.seconds);
       ++rep) {
    init_samples();
    const SweepRun run =
        sweep_once(cfg, spec, cfg.tmp_dir + "/sweep-" + std::to_string(rep),
                   out);

    double job_wall = 0.0;
    if (rep == 0)
      job_floor.assign(run.rows.size(),
                       std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < run.rows.size(); ++i) {
      const popproto::JobRow& row = run.rows[i];
      const popproto::JobResult& r = row.result;
      ++out.attempted;
      if (row.state != popproto::JobState::kDone || !r.converged) {
        out.fail("sweep: job " + row.spec.id + " did not converge");
        continue;
      }
      if (!reference.empty() &&
          (i >= reference.size() || reference[i].spec.id != row.spec.id ||
           !popproto::deterministic_fields_equal(reference[i].result, r)))
        out.fail("sweep: job " + row.spec.id +
                 " differs from the run's first sweep");
      job_wall += r.wall_seconds;
      const auto cpu = run.job_cpu_s.find(row.spec.id);
      ++out.attempted;
      if (cpu == run.job_cpu_s.end()) {
        out.fail("sweep: job " + row.spec.id + " logged no CPU time");
      } else if (i < job_floor.size()) {
        job_floor[i] = std::min(job_floor[i], cpu->second);
      }
    }
    ++out.attempted;
    if (run.rows.size() != grid) out.fail("sweep: manifest lost rows");
    if (reference.empty()) reference = run.rows;
    if (!cfg.trace) {
      sweep_floor = rep == 0 ? run.cpu_s : std::min(sweep_floor, run.cpu_s);
    } else if (rep == 0) {
      untraced_cpu = run.cpu_s;
    } else {
      out.scalars["trace.overhead_ratio"] = run.cpu_s / untraced_cpu;
      out.scalars["sweep.slot_idle_frac"] =
          1.0 - job_wall / (kSweepJobs * run.wall_s);
    }
  }

  if (!cfg.trace) {
    // A request is one job. Its latency is the job's floor, its worker's
    // CPU time; the rates are over the sum of the job floors.
    out.sample("wall_s", sweep_floor);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      out.sample("rounds", reference[i].result.converged_at);
      out.sample("latency_us", job_floor[i] * 1e6);
      out.add("interactions",
              static_cast<double>(reference[i].result.interactions));
      out.add("busy_s", job_floor[i]);
      out.add("requests", 1);
    }
    return;
  }
  // Every job once more, in-process through run_one_job, for per-job time.
  for (const popproto::JobSpec& job : popproto::expand_grid(spec)) {
    const std::string ckpt = cfg.tmp_dir + "/" + job.id + ".ckpt";
    const double c0 = thread_cpu_s();
    const popproto::JobResult r = popproto::run_one_job(job, spec, ckpt);
    out.sample("sweep.job_s", thread_cpu_s() - c0);
    ++out.attempted;
    if (!r.converged) out.fail("sweep: in-process job " + job.id + " failed");
    std::filesystem::remove(ckpt);
    std::filesystem::remove(ckpt + ".tmp");
  }
  sweep_persist_layer(cfg, derive_seed(cfg.seed, 3000), out);
}

}  // namespace perfbench
