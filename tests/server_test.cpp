// popprotod end-to-end tests (ISSUE 8): real loopback TCP against an
// in-process Server — parser fuzz/garbage input, concurrent clients on
// disjoint and shared buckets (the sanitize CI acceptance shape: 64 clients
// over 16 live buckets), snapshot-under-load, and framing edge cases.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "server/command.hpp"
#include "server/server.hpp"

namespace popproto {
namespace {

/// Minimal blocking line client for test traffic.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t k = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (k <= 0) return false;
      off += static_cast<std::size_t>(k);
    }
    return true;
  }

  /// One response line (newline stripped); empty string on EOF.
  std::string read_line() {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t k = ::read(fd_, chunk, sizeof(chunk));
      if (k <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(k));
    }
  }

  /// Single-line request/response round trip.
  std::string cmd(const std::string& line) {
    if (!send_raw(line + "\n")) return "";
    return read_line();
  }

  /// Multi-line (END-terminated) response; returns all payload lines.
  std::vector<std::string> cmd_multi(const std::string& line) {
    std::vector<std::string> out;
    if (!send_raw(line + "\n")) return out;
    for (;;) {
      std::string l = read_line();
      if (l.empty() || l == "END") break;
      if (l.rfind("ERROR", 0) == 0) {
        out.push_back(l);
        break;
      }
      out.push_back(l);
    }
    return out;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Server::Options opt;
    opt.max_line = 512;  // small cap so the oversize test is cheap
    server_ = std::make_unique<Server>(opt);
    ASSERT_TRUE(server_->start());
  }
  void TearDown() override {
    if (server_) server_->stop();
  }
  std::uint16_t port() const { return server_->port(); }
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingCreateRunObserveLifecycle) {
  Client c(port());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.cmd("ping"), "PONG");
  const std::string created = c.cmd("create b1 count approx_majority 4096 7");
  EXPECT_EQ(created.rfind("CREATED", 0), 0u) << created;
  EXPECT_EQ(c.cmd("run b1 2").rfind("OK", 0), 0u);
  const std::string count = c.cmd("observe b1 1");  // literal true
  ASSERT_EQ(count.rfind("COUNT ", 0), 0u) << count;
  EXPECT_EQ(count.substr(6), "4096");
  const std::string conv = c.cmd("run-until b1 5000 BA == all");
  EXPECT_EQ(conv.rfind("CONVERGED", 0), 0u) << conv;
  EXPECT_EQ(c.cmd("drop b1"), "DELETED b1");
  EXPECT_EQ(c.cmd("quit"), "BYE");
  EXPECT_EQ(c.read_line(), "");  // server closed the connection
}

TEST_F(ServerTest, ParserRejectsGarbage) {
  Client c(port());
  ASSERT_TRUE(c.ok());
  // Every one of these must produce a single ERROR line and keep the
  // connection (and the parser's framing) alive.
  const std::string garbage[] = {
      "frobnicate",
      "frobnicate b1 12",
      "create",                                  // missing everything
      "create b1",                               // missing backend
      "create b1 count",                         // missing protocol
      "create b1 count approx_majority",         // missing n
      "create b1 count approx_majority xyz",     // non-numeric n
      "create b1 count approx_majority 1",       // n < 2
      "create b1 warp approx_majority 4096",     // unknown backend
      "create b1 count no_such_protocol 4096",   // unknown protocol
      "create -dash count approx_majority 100",  // bad bucket name
      "create a/b count approx_majority 100",    // bad bucket name
      "create " + std::string(80, 'x') + " count approx_majority 100",
      "run nosuch 5",                            // unknown bucket
      "run b1 5",                                // still unknown
      "observe nosuch BA",
      "step nosuch",
      "drop nosuch",
      "run-until nosuch 10 BA",
      "snapshot nosuch /tmp/x",
      "inject nosuch crash 1 0.5",
      "species nosuch",
      "stats nosuch",
      "\t  ",                                    // whitespace only
  };
  for (const std::string& g : garbage) {
    const std::string reply = c.cmd(g);
    EXPECT_EQ(reply.rfind("ERROR", 0), 0u) << "input: " << g
                                           << " reply: " << reply;
  }
  // Framing survived all of it.
  EXPECT_EQ(c.cmd("ping"), "PONG");
  // And a real create works, with garbage arguments after it rejected.
  EXPECT_EQ(c.cmd("create ok1 count approx_majority 100 1").rfind("CREATED", 0),
            0u);
  EXPECT_EQ(c.cmd("run ok1 abc").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("run ok1 -3").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("observe ok1 BA &").rfind("ERROR", 0), 0u);   // bad expr
  EXPECT_EQ(c.cmd("observe ok1 NOPE").rfind("ERROR", 0), 0u);   // unknown var
  EXPECT_EQ(c.cmd("run-until ok1 10 BA >= zz").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("run-until ok1 10 >= 5").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("inject ok1").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("inject ok1 crash -1 0.5").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("inject ok1 dropout 5 2 0.5").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("inject ok1 warp 1 0.5").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("observe ok1 BA | BB").rfind("COUNT 100", 0), 0u);
}

TEST_F(ServerTest, OversizedLineClosesConnection) {
  Client c(port());
  ASSERT_TRUE(c.ok());
  // max_line is 512 in this fixture: a longer request cannot be framed, so
  // the server answers once and drops the connection.
  ASSERT_TRUE(c.send_raw("observe b1 " + std::string(4096, 'A') + "\n"));
  EXPECT_EQ(c.read_line(), "ERROR line too long");
  EXPECT_EQ(c.read_line(), "");  // closed
  // A fresh connection is unaffected.
  Client c2(port());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2.cmd("ping"), "PONG");
  // Same for an overlong line that never sends its newline.
  Client c3(port());
  ASSERT_TRUE(c3.ok());
  ASSERT_TRUE(c3.send_raw(std::string(600, 'B')));
  EXPECT_EQ(c3.read_line(), "ERROR line too long");
  EXPECT_EQ(c3.read_line(), "");
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  Client c(port());
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.cmd("create p1 count approx_majority 256 3").rfind("CREATED", 0),
            0u);
  // One write, four requests: strict per-connection ordering.
  ASSERT_TRUE(c.send_raw("ping\nobserve p1 BA | BB\nping\nstep p1\n"));
  EXPECT_EQ(c.read_line(), "PONG");
  EXPECT_EQ(c.read_line(), "COUNT 256");
  EXPECT_EQ(c.read_line(), "PONG");
  EXPECT_EQ(c.read_line().rfind("OK", 0), 0u);
}

TEST_F(ServerTest, SpeciesAndStatsAreEndTerminated) {
  Client c(port());
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.cmd("create s1 count approx_majority 512 3").rfind("CREATED", 0),
            0u);
  const auto species = c.cmd_multi("species s1");
  ASSERT_FALSE(species.empty());
  EXPECT_EQ(species[0].rfind("SPECIES", 0), 0u);
  const auto stats = c.cmd_multi("stats s1");
  ASSERT_FALSE(stats.empty());
  for (const auto& line : stats) EXPECT_EQ(line.rfind("STAT ", 0), 0u) << line;
  const auto global = c.cmd_multi("stats");
  ASSERT_FALSE(global.empty());
  const auto buckets = c.cmd_multi("buckets");
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].rfind("BUCKET s1", 0), 0u);
  // Framing still intact after multi-line responses.
  EXPECT_EQ(c.cmd("ping"), "PONG");
}

// The sanitize acceptance shape: 64 concurrent clients across 16 live
// buckets (4 clients contending per bucket) with zero errors. ctest runs
// this under POPPROTO_SANITIZE in CI, so a data race anywhere in the
// io-thread/worker/bucket handoff fails here.
TEST_F(ServerTest, SixtyFourClientsSixteenBucketsNoErrors) {
  constexpr unsigned kClients = 64;
  constexpr unsigned kBuckets = 16;
  constexpr unsigned kRequests = 30;
  {
    Client admin(port());
    ASSERT_TRUE(admin.ok());
    for (unsigned j = 0; j < kBuckets; ++j) {
      const std::string r = admin.cmd("create h" + std::to_string(j) +
                                      " count approx_majority 4096 " +
                                      std::to_string(j));
      ASSERT_EQ(r.rfind("CREATED", 0), 0u) << r;
    }
  }
  std::atomic<unsigned> errors{0};
  std::atomic<std::uint64_t> replies{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (unsigned id = 0; id < kClients; ++id) {
    threads.emplace_back([&, id] {
      Client c(port());
      if (!c.ok()) {
        errors.fetch_add(1);
        return;
      }
      const std::string bkt = "h" + std::to_string(id % kBuckets);
      for (unsigned i = 0; i < kRequests; ++i) {
        std::string reply;
        switch (i % 4) {
          case 0: reply = c.cmd("step " + bkt + " 4"); break;
          case 1: reply = c.cmd("observe " + bkt + " BA | BB"); break;
          case 2: reply = c.cmd("run " + bkt + " 0.25"); break;
          default: reply = c.cmd("ping"); break;
        }
        if (reply.empty() || reply.rfind("ERROR", 0) == 0) {
          errors.fetch_add(1);
          return;
        }
        replies.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(replies.load(), kClients * kRequests);
  // Population conservation survived the contention on every bucket.
  Client check(port());
  ASSERT_TRUE(check.ok());
  for (unsigned j = 0; j < kBuckets; ++j)
    EXPECT_EQ(check.cmd("observe h" + std::to_string(j) + " 1"),
              "COUNT 4096");
  EXPECT_EQ(server_->stats().errors_total.load(), 0u);
}

TEST_F(ServerTest, DisjointBucketsStayDeterministic) {
  // Two clients driving two different buckets concurrently must produce the
  // same trajectories as a single client driving them sequentially: bucket
  // isolation means cross-bucket scheduling can't leak into the RNG.
  auto drive = [&](Client& c, const std::string& bkt) {
    for (int i = 0; i < 20; ++i) ASSERT_EQ(c.cmd("run " + bkt + " 1").rfind("OK", 0), 0u);
  };
  {
    Client admin(port());
    ASSERT_TRUE(admin.ok());
    ASSERT_EQ(admin.cmd("create d1 count approx_majority 2048 42")
                  .rfind("CREATED", 0), 0u);
    ASSERT_EQ(admin.cmd("create d2 count approx_majority 2048 42")
                  .rfind("CREATED", 0), 0u);
  }
  std::thread t1([&] { Client c(port()); ASSERT_TRUE(c.ok()); drive(c, "d1"); });
  std::thread t2([&] { Client c(port()); ASSERT_TRUE(c.ok()); drive(c, "d2"); });
  t1.join();
  t2.join();
  // Same protocol, same seed, same rounds, disjoint locks: identical state.
  Client c(port());
  ASSERT_TRUE(c.ok());
  const std::string a = c.cmd("observe d1 BA");
  const std::string b = c.cmd("observe d2 BA");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.rfind("COUNT ", 0), 0u);
}

TEST_F(ServerTest, SnapshotUnderLoadRoundTrips) {
  const std::string path = ::testing::TempDir() + "server_test_snap.ckpt";
  std::remove(path.c_str());
  {
    Client admin(port());
    ASSERT_TRUE(admin.ok());
    ASSERT_EQ(admin.cmd("create sn count approx_majority 4096 9")
                  .rfind("CREATED", 0), 0u);
  }
  std::atomic<bool> stop{false};
  std::atomic<unsigned> errors{0};
  // Four writers advance the bucket while one client snapshots repeatedly:
  // snapshot must see a consistent engine (bucket mutex) and never corrupt
  // the trajectory.
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      Client c(port());
      if (!c.ok()) { errors.fetch_add(1); return; }
      while (!stop.load()) {
        const std::string r = c.cmd("run sn 0.5");
        if (r.rfind("OK", 0) != 0) { errors.fetch_add(1); return; }
      }
    });
  }
  {
    Client snap(port());
    ASSERT_TRUE(snap.ok());
    for (int i = 0; i < 10; ++i) {
      const std::string r = snap.cmd("snapshot sn " + path);
      EXPECT_EQ(r.rfind("OK ", 0), 0u) << r;
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(errors.load(), 0u);
  // The last snapshot restores into a live bucket and conserves n.
  Client c(port());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.cmd("restore sn " + path).rfind("OK ", 0), 0u);
  EXPECT_EQ(c.cmd("observe sn 1"), "COUNT 4096");
  std::remove(path.c_str());
}

// Regression: restoring a checkpoint that carries no fault state into a
// bucket with a live fault schedule must detach the engine-side injection
// hooks before dropping the injector — the stale hook kept a raw pointer to
// the destroyed injector and the next run dereferenced it (heap
// use-after-free, caught by the sanitize CI job with this test).
TEST_F(ServerTest, RestoreWithoutFaultStateDetachesInjector) {
  const std::string path = ::testing::TempDir() + "server_test_nofault.ckpt";
  std::remove(path.c_str());
  Client c(port());
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.cmd("create rf count approx_majority 1024 5").rfind("CREATED", 0),
            0u);
  // Checkpoint before any inject: the file has no fault state.
  ASSERT_EQ(c.cmd("snapshot rf " + path).rfind("OK ", 0), 0u);
  // Install a fault schedule (hooks now live on the engine), advance, then
  // restore the pre-fault checkpoint: the schedule is dropped and its
  // engine-side hooks must go with it.
  ASSERT_EQ(c.cmd("inject rf dropout 0 1000 0.5").rfind("OK", 0), 0u);
  ASSERT_EQ(c.cmd("run rf 2").rfind("OK", 0), 0u);
  ASSERT_EQ(c.cmd("restore rf " + path).rfind("OK ", 0), 0u);
  // The dangling hook fired at the next round boundary.
  EXPECT_EQ(c.cmd("run rf 4").rfind("OK", 0), 0u);
  EXPECT_EQ(c.cmd("observe rf 1"), "COUNT 1024");
  std::remove(path.c_str());
}

TEST(ServerLimits, SnapshotRootConfinesClientPaths) {
  const std::string root = ::testing::TempDir() + "ppd_snap_root";
  std::filesystem::create_directories(root);
  Server::Options opt;
  opt.limits.snapshot_root = root;
  Server server(opt);
  ASSERT_TRUE(server.start());
  Client c(server.port());
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.cmd("create s count approx_majority 256 1").rfind("CREATED", 0),
            0u);
  // Absolute paths and any ".." component are rejected outright.
  EXPECT_EQ(c.cmd("snapshot s /tmp/abs.ckpt").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("snapshot s ../escape.ckpt").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("snapshot s sub/../../esc.ckpt").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("restore s ../escape.ckpt").rfind("ERROR", 0), 0u);
  // Relative paths resolve under the root.
  EXPECT_EQ(c.cmd("snapshot s ok.ckpt").rfind("OK ", 0), 0u);
  EXPECT_TRUE(std::filesystem::exists(root + "/ok.ckpt"));
  EXPECT_EQ(c.cmd("restore s ok.ckpt").rfind("OK ", 0), 0u);
  EXPECT_EQ(c.cmd("observe s 1"), "COUNT 256");
  server.stop();
  std::filesystem::remove_all(root);
}

TEST_F(ServerTest, ShutdownCommandStopsServer) {
  Client c(port());
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.cmd("create z count approx_majority 256 1").rfind("CREATED", 0),
            0u);
  EXPECT_EQ(c.cmd("shutdown"), "OK shutting down");
  EXPECT_EQ(c.read_line(), "");  // connection drained and closed
  server_->join();
  EXPECT_FALSE(server_->running());
}

TEST(ServerLimits, AgentBackendSizeCapApplies) {
  Server::Options opt;
  opt.limits.max_agent_n = 1000;
  Server server(opt);
  ASSERT_TRUE(server.start());
  Client c(server.port());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.cmd("create big agent phase_clock 2000").rfind("ERROR", 0), 0u);
  EXPECT_EQ(c.cmd("create big count approx_majority 2000").rfind("CREATED", 0),
            0u);  // count substrate is not bound by the agent cap
  server.stop();
}

}  // namespace
}  // namespace popproto
