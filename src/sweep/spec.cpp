#include "sweep/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/parse.hpp"

namespace popproto {
namespace {

[[noreturn]] void fail(std::size_t lineno, const std::string& message) {
  throw SpecError{"spec line " + std::to_string(lineno) + ": " + message};
}

/// Axis names must survive as path components of checkpoint/result files
/// and as BENCH record names, so only [A-Za-z0-9_] is accepted.
bool safe_name(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

template <typename T>
void reject_duplicates(std::size_t lineno, const std::vector<T>& values,
                       const char* key) {
  std::vector<T> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    fail(lineno, std::string("duplicate ") + key +
                     " value (grid points must have unique job ids)");
}

}  // namespace

SweepSpec parse_sweep_spec(const std::string& text) {
  SweepSpec spec;
  spec.text = text;
  bool has_max_rounds = false;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& key = tokens[0];
    const auto values = [&](const char* what) {
      if (tokens.size() < 2)
        fail(lineno, std::string(what) + " needs at least one value");
      return std::vector<std::string>(tokens.begin() + 1, tokens.end());
    };
    if (key == "protocol") {
      for (const auto& v : values("protocol")) {
        if (!safe_name(v)) fail(lineno, "bad protocol name '" + v + "'");
        spec.protocols.push_back(v);
      }
      reject_duplicates(lineno, spec.protocols, "protocol");
    } else if (key == "backend") {
      for (const auto& v : values("backend")) {
        if (!safe_name(v)) fail(lineno, "bad backend name '" + v + "'");
        spec.backends.push_back(v);
      }
      reject_duplicates(lineno, spec.backends, "backend");
    } else if (key == "n") {
      for (const auto& v : values("n")) {
        const auto n = parse_u64(v);
        if (!n || *n < 2) fail(lineno, "bad n '" + v + "' (need >= 2)");
        spec.ns.push_back(*n);
      }
      reject_duplicates(lineno, spec.ns, "n");
    } else if (key == "seed") {
      for (const auto& v : values("seed")) {
        const auto s = parse_u64(v);
        if (!s) fail(lineno, "bad seed '" + v + "'");
        spec.seeds.push_back(*s);
      }
      reject_duplicates(lineno, spec.seeds, "seed");
    } else if (key == "threads") {
      for (const auto& v : values("threads")) {
        const auto t = parse_u64(v);
        if (!t || *t == 0 || *t > 256)
          fail(lineno, "bad threads '" + v + "' (need 1..256)");
        spec.threads.push_back(static_cast<unsigned>(*t));
      }
      reject_duplicates(lineno, spec.threads, "threads");
    } else if (key == "max_rounds") {
      if (tokens.size() != 2) fail(lineno, "max_rounds takes one value");
      // A job without an `until` runs to the horizon, so it must be finite.
      const auto r = parse_double(tokens[1]);
      if (!r || *r <= 0 || !std::isfinite(*r))
        fail(lineno, "bad max_rounds '" + tokens[1] + "' (need finite > 0)");
      spec.max_rounds = *r;
      has_max_rounds = true;
    } else if (key == "checkpoint_every") {
      if (tokens.size() != 2) fail(lineno, "checkpoint_every takes one value");
      const auto r = parse_double(tokens[1]);
      if (!r || *r <= 0)
        fail(lineno, "bad checkpoint_every '" + tokens[1] + "'");
      spec.checkpoint_every = *r;
    } else if (key == "until") {
      if (spec.until) fail(lineno, "duplicate until key");
      try {
        spec.until = CountPredicate::parse(tokens, 1);
        // Syntax now, before any job runs; variable names per protocol at
        // job start (run_one_job).
        check_bool_expr_syntax(spec.until->expr);
      } catch (const ExprParseError& e) {
        fail(lineno, "until: " + e.message);
      }
    } else if (key == "fault") {
      try {
        spec.faults.parse_event(tokens, 1);
      } catch (const FaultParseError& e) {
        fail(lineno, "fault: " + e.message);
      }
    } else {
      fail(lineno, "unknown key '" + key + "'");
    }
  }
  if (spec.protocols.empty()) throw SpecError{"spec: missing protocol axis"};
  if (spec.backends.empty()) throw SpecError{"spec: missing backend axis"};
  if (spec.ns.empty()) throw SpecError{"spec: missing n axis"};
  if (spec.seeds.empty()) throw SpecError{"spec: missing seed axis"};
  if (!has_max_rounds) throw SpecError{"spec: missing max_rounds"};
  return spec;
}

SweepSpec load_sweep_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SpecError{"cannot read spec file " + path};
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_sweep_spec(ss.str());
}

std::vector<JobSpec> expand_grid(const SweepSpec& spec) {
  std::vector<JobSpec> jobs;
  const std::vector<unsigned> threads =
      spec.threads.empty() ? std::vector<unsigned>{0} : spec.threads;
  for (const auto& protocol : spec.protocols)
    for (const auto& backend : spec.backends)
      for (const auto n : spec.ns)
        for (const auto seed : spec.seeds)
          for (const auto t : threads) {
            JobSpec job;
            job.protocol = protocol;
            job.backend = backend;
            job.n = n;
            job.seed = seed;
            job.threads = t;
            job.id = protocol + "-" + backend + "-n" + std::to_string(n) +
                     "-s" + std::to_string(seed);
            if (!spec.threads.empty()) job.id += "-t" + std::to_string(t);
            jobs.push_back(std::move(job));
          }
  return jobs;
}

}  // namespace popproto
