#include "server/command.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "core/expr.hpp"
#include "persist/checkpoint.hpp"
#include "support/parse.hpp"
#include "support/serialize.hpp"

namespace popproto {
namespace {

std::string fmt_dbl(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

CommandResult ok(std::string text) { return {std::move(text) + "\n"}; }

struct ErrorReply {
  std::string message;
};

[[noreturn]] void fail(std::string message) {
  throw ErrorReply{std::move(message)};
}

std::shared_ptr<Bucket> need_bucket(BucketRegistry& reg,
                                    const std::string& name) {
  auto bucket = reg.find(name);
  if (!bucket) fail("no such bucket '" + name + "'");
  return bucket;
}

std::string engine_status(const Bucket& bucket) {
  return "OK " + fmt_dbl(bucket.engine->rounds()) + " " +
         fmt_u64(bucket.engine->interactions());
}

}  // namespace

std::string CommandExecutor::resolve_snapshot_path(
    const std::string& path) const {
  if (limits_.snapshot_root.empty()) return path;  // trust model: any path
  if (path[0] == '/')
    fail("absolute snapshot paths are disabled (snapshot root is set)");
  // Reject any ".." component; "." and empty components are harmless.
  std::size_t i = 0;
  while (i <= path.size()) {
    const std::size_t j = std::min(path.find('/', i), path.size());
    if (j - i == 2 && path[i] == '.' && path[i + 1] == '.')
      fail("snapshot path may not contain '..'");
    i = j + 1;
  }
  return limits_.snapshot_root + "/" + path;
}

CommandResult CommandExecutor::execute(const std::string& line) {
  stats_.commands_total.fetch_add(1, std::memory_order_relaxed);
  const std::vector<std::string> tokens = tokenize(line);
  std::shared_ptr<Bucket> tallied;  // bucket whose error counter to bump
  try {
    if (tokens.empty()) fail("empty command");
    const std::string& cmd = tokens[0];

    if (cmd == "ping") return ok("PONG");
    if (cmd == "quit") {
      CommandResult r = ok("BYE");
      r.close_connection = true;
      return r;
    }
    if (cmd == "shutdown") {
      CommandResult r = ok("OK shutting down");
      r.shutdown_server = true;
      return r;
    }

    if (cmd == "create") {
      if (tokens.size() < 5 || tokens.size() > 6)
        fail("usage: create <bucket> <backend> <protocol> <n> [seed]");
      const std::string& name = tokens[1];
      const std::string& backend = tokens[2];
      const std::string& protocol = tokens[3];
      if (!valid_bucket_name(name))
        fail("bad bucket name '" + name +
             "' (1-64 chars of [A-Za-z0-9_.-], no leading '-')");
      const auto n = parse_u64(tokens[4]);
      if (!n || *n < 2) fail("bad n '" + tokens[4] + "' (need an integer >= 2)");
      if (*n > limits_.max_n)
        fail("n " + tokens[4] + " exceeds max_n " + fmt_u64(limits_.max_n));
      const bool agent_array = backend == "agent" || backend == "batch";
      if (agent_array && *n > limits_.max_agent_n)
        fail("n " + tokens[4] + " exceeds max_agent_n " +
             fmt_u64(limits_.max_agent_n) + " for backend '" + backend +
             "' (use count/count_shard for larger populations)");
      std::uint64_t seed = 1;
      if (tokens.size() == 6) {
        const auto s = parse_u64(tokens[5]);
        if (!s) fail("bad seed '" + tokens[5] + "'");
        seed = *s;
      }
      auto inst = make_protocol_instance(protocol, *n);
      if (!inst) {
        std::string known;
        for (const auto& p : registered_protocol_names())
          known += (known.empty() ? "" : ", ") + p;
        fail("unknown protocol '" + protocol + "' (have: " + known + ")");
      }
      auto bucket = std::make_shared<Bucket>();
      bucket->engine = make_backend_instance(backend, *inst, seed);
      if (!bucket->engine) {
        std::string known;
        for (const auto& b : registered_backend_names())
          known += (known.empty() ? "" : ", ") + b;
        fail("unknown backend '" + backend + "' (have: " + known + ")");
      }
      bucket->name = name;
      bucket->backend_kind = backend;
      bucket->protocol_kind = protocol;
      bucket->n = *n;
      bucket->seed = seed;
      bucket->instance = std::move(inst);
      bucket->dirty.store(true, std::memory_order_relaxed);
      switch (buckets_.add(bucket)) {
        case BucketRegistry::CreateResult::kCreated:
          break;
        case BucketRegistry::CreateResult::kExists:
          fail("bucket '" + name + "' exists");
        case BucketRegistry::CreateResult::kFull:
          fail("bucket limit reached (" + fmt_u64(buckets_.max_buckets()) +
               ")");
        case BucketRegistry::CreateResult::kBadName:
          fail("bad bucket name '" + name + "'");
      }
      bucket->requests.fetch_add(1, std::memory_order_relaxed);
      return ok("CREATED " + name);
    }

    if (cmd == "buckets") {
      std::string out;
      for (const auto& b : buckets_.all()) {
        out += "BUCKET " + b->name + " " + b->backend_kind + " " +
               b->protocol_kind + " " + fmt_u64(b->n) + " " +
               fmt_u64(b->requests.load(std::memory_order_relaxed)) + "\n";
      }
      out += "END\n";
      return {std::move(out)};
    }

    if (cmd == "stats" && tokens.size() == 1) {
      std::string out;
      const auto stat = [&out](const std::string& k, const std::string& v) {
        out += "STAT " + k + " " + v + "\n";
      };
      stat("connections_total",
           fmt_u64(stats_.connections_total.load(std::memory_order_relaxed)));
      stat("connections_open",
           fmt_u64(stats_.connections_open.load(std::memory_order_relaxed)));
      stat("commands_total",
           fmt_u64(stats_.commands_total.load(std::memory_order_relaxed)));
      stat("errors_total",
           fmt_u64(stats_.errors_total.load(std::memory_order_relaxed)));
      stat("bytes_in",
           fmt_u64(stats_.bytes_in.load(std::memory_order_relaxed)));
      stat("bytes_out",
           fmt_u64(stats_.bytes_out.load(std::memory_order_relaxed)));
      stat("buckets", fmt_u64(buckets_.size()));
      stat("max_buckets", fmt_u64(buckets_.max_buckets()));
      std::uint64_t requests = 0;
      for (const auto& b : buckets_.all())
        requests += b->requests.load(std::memory_order_relaxed);
      stat("bucket_requests", fmt_u64(requests));
      out += "END\n";
      return {std::move(out)};
    }

    // Everything below addresses one bucket: `<cmd> <bucket> ...`.
    const bool bucket_cmd =
        cmd == "drop" || cmd == "stats" || cmd == "step" || cmd == "run" ||
        cmd == "run-until" || cmd == "observe" || cmd == "species" ||
        cmd == "inject" || cmd == "snapshot" || cmd == "restore";
    if (!bucket_cmd) fail("unknown command '" + cmd + "'");
    if (tokens.size() < 2) fail("usage: " + cmd + " <bucket> ...");
    auto bucket = need_bucket(buckets_, tokens[1]);
    tallied = bucket;
    bucket->requests.fetch_add(1, std::memory_order_relaxed);

    if (cmd == "drop") {
      if (tokens.size() != 2) fail("usage: drop <bucket>");
      // Holding the bucket lock while unlinking lets in-flight commands on
      // other workers finish first; the shared_ptr keeps the object alive.
      std::lock_guard<std::mutex> lock(bucket->mu);
      if (!buckets_.drop(tokens[1])) fail("no such bucket '" + tokens[1] + "'");
      return ok("DELETED " + tokens[1]);
    }

    if (cmd == "stats") {
      if (tokens.size() != 2) fail("usage: stats [<bucket>]");
      std::lock_guard<std::mutex> lock(bucket->mu);
      std::string out;
      const auto stat = [&out](const std::string& k, const std::string& v) {
        out += "STAT " + k + " " + v + "\n";
      };
      stat("bucket", bucket->name);
      stat("backend", bucket->backend_kind);
      stat("protocol", bucket->protocol_kind);
      stat("n", fmt_u64(bucket->n));
      stat("seed", fmt_u64(bucket->seed));
      stat("requests",
           fmt_u64(bucket->requests.load(std::memory_order_relaxed)));
      stat("errors", fmt_u64(bucket->errors.load(std::memory_order_relaxed)));
      stat("dirty",
           bucket->dirty.load(std::memory_order_relaxed) ? "1" : "0");
      stat("rounds", fmt_dbl(bucket->engine->rounds()));
      stat("active_n", fmt_u64(bucket->engine->active_n()));
      stat("fault_events",
           fmt_u64(bucket->injector ? bucket->injector->plan().size() : 0));
      stat("faults_applied",
           fmt_u64(bucket->injector ? bucket->injector->log().size() : 0));
      for (const auto& [key, value] : bucket->engine->counters().to_pairs())
        stat("counter." + key, fmt_dbl(value));
      out += "END\n";
      return {std::move(out)};
    }

    if (cmd == "step") {
      if (tokens.size() > 3) fail("usage: step <bucket> [k]");
      std::uint64_t k = 1;
      if (tokens.size() == 3) {
        const auto v = parse_u64(tokens[2]);
        if (!v || *v == 0) fail("bad step count '" + tokens[2] + "'");
        if (*v > limits_.max_steps_per_command)
          fail("step count exceeds max_steps_per_command " +
               fmt_u64(limits_.max_steps_per_command));
        k = *v;
      }
      std::lock_guard<std::mutex> lock(bucket->mu);
      for (std::uint64_t i = 0; i < k; ++i) bucket->engine->step();
      bucket->dirty.store(true, std::memory_order_relaxed);
      return ok(engine_status(*bucket));
    }

    if (cmd == "run") {
      if (tokens.size() != 3) fail("usage: run <bucket> <rounds>");
      const auto rounds = parse_double(tokens[2]);
      if (!rounds || *rounds <= 0) fail("bad rounds '" + tokens[2] + "'");
      if (*rounds > limits_.max_rounds_per_command)
        fail("rounds exceed max_rounds_per_command " +
             fmt_dbl(limits_.max_rounds_per_command));
      std::lock_guard<std::mutex> lock(bucket->mu);
      bucket->engine->run_rounds(*rounds);
      bucket->dirty.store(true, std::memory_order_relaxed);
      return ok(engine_status(*bucket));
    }

    if (cmd == "run-until") {
      if (tokens.size() < 4)
        fail("usage: run-until <bucket> <max-rounds> <guard-expr> "
             "[<cmp> <count>|all]");
      const auto max_rounds = parse_double(tokens[2]);
      if (!max_rounds || *max_rounds < 0)
        fail("bad max-rounds '" + tokens[2] + "'");
      if (*max_rounds > limits_.max_rounds_per_command)
        fail("max-rounds exceeds max_rounds_per_command " +
             fmt_dbl(limits_.max_rounds_per_command));
      const CountPredicate until = CountPredicate::parse(tokens, 3);
      std::lock_guard<std::mutex> lock(bucket->mu);
      const Guard guard(parse_bool_expr(until.expr, *bucket->instance->vars));
      const auto pred = [&](const SimBackend& e) {
        return until.holds(e.count_matching(guard), e.active_n());
      };
      const auto hit = bucket->engine->run_until(pred, *max_rounds);
      bucket->dirty.store(true, std::memory_order_relaxed);
      if (hit) return ok("CONVERGED " + fmt_dbl(*hit));
      return ok("TIMEOUT " + fmt_dbl(bucket->engine->rounds()));
    }

    if (cmd == "observe") {
      if (tokens.size() < 3) fail("usage: observe <bucket> <guard-expr>");
      const std::string expr_text = join_tokens(tokens, 2, tokens.size());
      std::lock_guard<std::mutex> lock(bucket->mu);
      const BoolExpr expr =
          parse_bool_expr(expr_text, *bucket->instance->vars);
      return ok("COUNT " + fmt_u64(bucket->engine->count_matching(expr)));
    }

    if (cmd == "species") {
      if (tokens.size() != 2) fail("usage: species <bucket>");
      std::lock_guard<std::mutex> lock(bucket->mu);
      const auto species = bucket->engine->species();
      std::string out = "SPECIES " + fmt_u64(species.size()) + "\n";
      char hex[32];
      for (const auto& [state, count] : species) {
        std::snprintf(hex, sizeof hex, "%llx",
                      static_cast<unsigned long long>(state));
        out += fmt_u64(count);
        out += " 0x";
        out += hex;
        out += " ";
        out += bucket->instance->vars->describe(state);
        out += "\n";
      }
      out += "END\n";
      return {std::move(out)};
    }

    if (cmd == "inject") {
      FaultPlan plan;
      try {
        plan.parse_event(tokens, 2);
      } catch (const FaultParseError& e) {
        fail("inject: " + e.message);
      }
      std::lock_guard<std::mutex> lock(bucket->mu);
      // Each inject replaces the bucket's schedule; events at or before the
      // current round fire immediately (FaultInjector::attach semantics).
      bucket->injector = std::make_unique<FaultInjector>(
          std::move(plan), injector_seed(bucket->seed));
      bucket->injector->attach(*bucket->engine);
      bucket->dirty.store(true, std::memory_order_relaxed);
      return ok("OK fault schedule installed");
    }

    if (cmd == "snapshot" || cmd == "restore") {
      if (tokens.size() != 3) fail("usage: " + cmd + " <bucket> <path>");
      const std::string path = resolve_snapshot_path(tokens[2]);
      std::lock_guard<std::mutex> lock(bucket->mu);
      try {
        if (cmd == "snapshot") {
          AutoCheckpoint ckpt(*bucket->engine, {.path = path},
                              bucket->injector.get());
          ckpt.write_now();
          bucket->dirty.store(false, std::memory_order_relaxed);
          std::error_code ec;
          const auto bytes = std::filesystem::file_size(path, ec);
          return ok("OK " + fmt_u64(ec ? 0 : bytes));
        }
        // restore: fault state (when present in the file) replaces the
        // bucket's schedule; a checkpoint without fault state drops it.
        auto injector =
            std::make_unique<FaultInjector>(FaultPlan{}, bucket->seed);
        if (!AutoCheckpoint::load(path, *bucket->engine, injector.get()))
          fail("no checkpoint at '" + path + "'");
        if (injector->plan().empty()) {
          // The checkpoint carried no (or an empty) fault schedule, so
          // FaultInjector::restore never touched the engine: clear any
          // hook/bias a prior `inject` installed before destroying the
          // injector those hooks capture by raw pointer.
          bucket->engine->set_injection_hook({});
          bucket->engine->set_scheduler_bias(std::nullopt);
          bucket->injector = nullptr;
        } else {
          bucket->injector = std::move(injector);
        }
        bucket->dirty.store(false, std::memory_order_relaxed);
        return ok(engine_status(*bucket));
      } catch (const SnapshotError& e) {
        fail(cmd + " failed: " + e.what());
      }
    }

    fail("unknown command '" + cmd + "'");
  } catch (const ErrorReply& e) {
    stats_.errors_total.fetch_add(1, std::memory_order_relaxed);
    if (tallied) tallied->errors.fetch_add(1, std::memory_order_relaxed);
    return ok("ERROR " + e.message);
  } catch (const ExprParseError& e) {
    stats_.errors_total.fetch_add(1, std::memory_order_relaxed);
    if (tallied) tallied->errors.fetch_add(1, std::memory_order_relaxed);
    return ok("ERROR " + e.message);
  }
}

}  // namespace popproto
