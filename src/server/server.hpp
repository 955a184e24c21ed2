// popprotod — the simulation-serving daemon (ROADMAP item 6).
//
// Threading model (docs/ARCHITECTURE.md "popprotod"):
//   * one IO thread owns every socket: it poll()s the listener, the wake
//     pipe and all connections, reads request bytes, frames lines, and
//     flushes response bytes. No worker ever touches a file descriptor.
//   * a fixed TaskQueue pool (support/thread_pool.hpp) executes commands.
//     At most one command per connection is in flight (the connection stops
//     being polled for input while busy), so each connection sees strictly
//     ordered request/response pairs while different connections execute
//     concurrently — up to `workers` commands in parallel, serialized per
//     bucket by the bucket mutex (server/bucket.hpp).
//   * workers hand completed responses back under the IO mutex and nudge
//     the wake pipe; the IO thread flushes them.
//
// Graceful shutdown (the `shutdown` command or request_shutdown()): the
// listener closes, queued/in-flight commands finish, every connection is
// flushed and closed, the worker pool drains, and dirty buckets are
// auto-snapshotted to `snapshot_dir` (when configured) via the atomic
// tmp+rename checkpoint writer — a restarted daemon can `restore` them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "server/bucket.hpp"
#include "server/command.hpp"
#include "support/thread_pool.hpp"

namespace popproto {

class Server {
 public:
  struct Options {
    /// Listen address. Loopback by default: popprotod speaks a plaintext
    /// protocol with no authentication, so binding wider is opt-in.
    std::string host = "127.0.0.1";
    /// TCP port; 0 binds an ephemeral port (read it back via port()).
    std::uint16_t port = 0;
    /// Command worker threads. 0 picks probe_hardware_threads().
    unsigned workers = 0;
    /// Bucket cap (create fails beyond it).
    std::size_t max_buckets = 256;
    /// Longest accepted request line in bytes; longer input is answered
    /// with an error and the connection is closed (framing is lost).
    std::size_t max_line = 4096;
    /// Per-command execution caps (command.hpp).
    CommandLimits limits;
    /// When non-empty: graceful shutdown writes `<dir>/<bucket>.ckpt` for
    /// every dirty bucket.
    std::string snapshot_dir;
  };

  explicit Server(Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the IO thread and worker pool. Returns false
  /// (with the reason on stderr) when the socket cannot be bound.
  bool start();

  /// The bound port (valid after start(); resolves port 0 to the real one).
  std::uint16_t port() const { return port_; }

  /// Ask the server to shut down gracefully. Async-signal-safe apart from
  /// the atomic store (one byte to the wake pipe). Idempotent.
  void request_shutdown();

  /// Block until the IO loop exits (after a `shutdown` command or
  /// request_shutdown()) and the bucket quiesce completes.
  void join();

  /// request_shutdown() + join(). Safe to call repeatedly.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  BucketRegistry& buckets() { return buckets_; }
  const ServerStats& stats() const { return stats_; }

 private:
  struct Connection;

  void io_loop();
  void accept_new();
  /// Read + frame + maybe dispatch; returns false when the connection died.
  bool handle_readable(const std::shared_ptr<Connection>& conn);
  bool handle_writable(const std::shared_ptr<Connection>& conn);
  void frame_next_locked(const std::shared_ptr<Connection>& conn);
  void dispatch(const std::shared_ptr<Connection>& conn, std::string line);
  void close_connection(const std::shared_ptr<Connection>& conn);
  void quiesce_and_snapshot();
  void wake();
  /// Destructor/start()-only: requires that no IO thread is running.
  void close_wake_pipe();

  Options options_;
  BucketRegistry buckets_;
  ServerStats stats_;
  CommandExecutor executor_;
  std::unique_ptr<TaskQueue> workers_;

  int listen_fd_ = -1;
  // The wake pipe stays open until the destructor (after join()): wake()
  // is callable from any thread at any point in the server's lifetime, so
  // closing the write end during shutdown would race a concurrent wake()
  // into a closed (or since-recycled) fd. Atomic because wake() reads it
  // off-thread; bytes written after the IO loop exits sit harmlessly in
  // the pipe buffer.
  int wake_r_ = -1;
  std::atomic<int> wake_w_{-1};
  std::uint16_t port_ = 0;
  std::thread io_thread_;
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> running_{false};
  bool joined_ = true;

  /// Guards conns_ plus every Connection's out/busy/closing fields (workers
  /// deposit responses; the IO thread flushes them).
  std::mutex io_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
};

}  // namespace popproto
