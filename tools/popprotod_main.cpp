// popprotod: the standalone simulation-serving daemon (src/server/).
//
// Binds the line-protocol server, prints "LISTENING <port>" on stdout (so
// scripts using --port 0 can discover the ephemeral port), and blocks until
// a client issues `shutdown` or the process receives SIGINT/SIGTERM — both
// paths run the same graceful quiesce (drain commands, flush connections,
// auto-snapshot dirty buckets into --snapshot-dir when given).
//
// Usage:
//   popprotod [--host A] [--port P] [--workers W] [--max-buckets B]
//             [--max-n N] [--max-agent-n N] [--snapshot-dir DIR]
//             [--snapshot-root DIR]
//
// --snapshot-root confines client-supplied snapshot/restore paths to DIR
// (relative paths only, no ".."); without it any path the daemon user can
// access is accepted, which is only appropriate for trusted loopback use.
// A numeric flag that does not parse whole (or a port past 65535) prints
// the usage line and exits 2.
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "server/server.hpp"
#include "support/parse.hpp"

namespace {

popproto::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host A] [--port P] [--workers W] "
               "[--max-buckets B] [--max-n N] [--max-agent-n N] "
               "[--snapshot-dir DIR] [--snapshot-root DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  popproto::Server::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      return argv[++i];
    };
    const auto number = [&](std::uint64_t max) {
      const auto v = popproto::parse_u64(next());
      if (!v || *v > max) std::exit(usage(argv[0]));
      return *v;
    };
    if (arg == "--host") options.host = next();
    else if (arg == "--port")
      options.port = static_cast<std::uint16_t>(number(UINT16_MAX));
    else if (arg == "--workers")
      options.workers = static_cast<unsigned>(number(UINT_MAX));
    else if (arg == "--max-buckets")
      options.max_buckets = static_cast<std::size_t>(number(SIZE_MAX));
    else if (arg == "--max-n")
      options.limits.max_n = number(UINT64_MAX);
    else if (arg == "--max-agent-n")
      options.limits.max_agent_n = number(UINT64_MAX);
    else if (arg == "--snapshot-dir")
      options.snapshot_dir = next();
    else if (arg == "--snapshot-root")
      options.limits.snapshot_root = next();
    else
      return usage(argv[0]);
  }

  popproto::Server server(options);
  if (!server.start()) return 1;
  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::printf("LISTENING %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  server.join();
  std::printf("popprotod: shut down cleanly\n");
  return 0;
}
