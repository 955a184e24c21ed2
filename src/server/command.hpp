// popprotod's line protocol: grammar, parsing, and command execution.
//
// One request is one text line; one response is one or more text lines.
// Single-line responses start with OK, CREATED, DELETED, COUNT, CONVERGED,
// TIMEOUT, PONG, BYE or ERROR; multi-line responses (species, stats,
// buckets) are a run of payload lines terminated by a lone "END". Grammar
// (docs/ARCHITECTURE.md "popprotod" has the full reference):
//
//   create <bucket> <backend> <protocol> <n> [seed]
//   step <bucket> [k]
//   run <bucket> <rounds>
//   run-until <bucket> <max-rounds> <guard-expr> [<cmp> <count>|all]
//   observe <bucket> <guard-expr>
//   species <bucket>
//   inject <bucket> crash <round> <fraction>
//                 | rejoin <round> all|<fraction>
//                 | corrupt <round> <fraction>
//                 | dropout <from> <until> <p>
//   snapshot <bucket> <path>
//   restore <bucket> <path>
//   stats [<bucket>]
//   buckets
//   drop <bucket>
//   ping | quit | shutdown
//
// <guard-expr> is a boolean formula over the bucket protocol's variable
// names: `!` not, `&` and, `|` or, parentheses, literals `0`/`1`
// (whitespace between operators optional, `&&`/`||` accepted). The
// run-until predicate compares count_matching(expr) against a count with
// <cmp> in {<,<=,==,!=,>=,>}; the count may be `all` (= active_n at check
// time); omitting the comparison means `>= 1` (existence).
//
// snapshot/restore take the path from the (unauthenticated, loopback-only
// by default) client: by default it is trusted as given, i.e. any file the
// daemon user can access; set CommandLimits::snapshot_root to confine
// client paths to one directory.
//
// Execution holds the target bucket's mutex for the whole command (see
// bucket.hpp for the lock discipline) and is thread-safe: the server calls
// execute() from many worker threads concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "server/bucket.hpp"

namespace popproto {

/// Daemon-global request tallies (io thread + workers, hence atomics).
struct ServerStats {
  std::atomic<std::uint64_t> connections_total{0};
  std::atomic<std::uint64_t> connections_open{0};
  std::atomic<std::uint64_t> commands_total{0};
  std::atomic<std::uint64_t> errors_total{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
};

/// Caps the executor enforces per command (docs/TUNING.md).
struct CommandLimits {
  /// Largest accepted population for any backend.
  std::uint64_t max_n = std::uint64_t{1} << 30;
  /// Largest population for the agent substrate, the only one that
  /// materializes n slots in memory; the others hold species counts.
  std::uint64_t max_agent_n = std::uint64_t{1} << 22;
  /// Largest `run <rounds>` / run-until max-rounds per command; longer runs
  /// are issued as repeated commands so a bucket lock is never held hostage.
  double max_rounds_per_command = 1e6;
  /// Largest `step` batch.
  std::uint64_t max_steps_per_command = std::uint64_t{1} << 20;
  /// When non-empty, client-supplied snapshot/restore paths are confined to
  /// this directory: they must be relative, contain no ".." component, and
  /// are resolved as `<snapshot_root>/<path>`. When empty (the default),
  /// any path the daemon user can read/write is accepted — acceptable only
  /// under the loopback trust model (server.hpp Options::host): popprotod
  /// is unauthenticated, so every client is as trusted as the daemon user.
  std::string snapshot_root;
};

struct CommandResult {
  std::string text;               // newline-terminated response line(s)
  bool close_connection = false;  // quit / fatal protocol error
  bool shutdown_server = false;   // shutdown command accepted
};

class CommandExecutor {
 public:
  CommandExecutor(BucketRegistry& buckets, ServerStats& stats,
                  CommandLimits limits = {})
      : buckets_(buckets), stats_(stats), limits_(limits) {}

  /// Parse and run one request line (no trailing newline). Never throws:
  /// malformed input yields an "ERROR ..." response. Counts the command
  /// (and any error) into the stats block and the bucket's tallies.
  CommandResult execute(const std::string& line);

  const CommandLimits& limits() const { return limits_; }

 private:
  /// Apply the snapshot_root confinement (command.hpp CommandLimits) to a
  /// client-supplied snapshot/restore path; throws an ErrorReply when the
  /// path is absolute or escapes the root. Identity when no root is set.
  std::string resolve_snapshot_path(const std::string& path) const;

  BucketRegistry& buckets_;
  ServerStats& stats_;
  CommandLimits limits_;
};

}  // namespace popproto
