// popprotoctl: command-line client for popprotod's line protocol.
//
// One-shot mode sends a single command and prints the response:
//   popprotoctl --port 7171 create b0 count approx_majority 65536 7
//   popprotoctl --port 7171 run-until b0 2000 BA == all
//
// Script mode (`-`) reads one command per stdin line, sending each and
// printing its response — the CI smoke drives the daemon this way.
//
// Response framing mirrors command.hpp: a line starting with OK, CREATED,
// DELETED, COUNT, CONVERGED, TIMEOUT, PONG, BYE or ERROR completes the
// response; anything else (STAT/SPECIES/BUCKET payloads) runs until "END".
// Exit status: 0 on success, 1 when any response was an ERROR (or TIMEOUT
// with --strict-converge), 2 on usage/connection failures.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "support/parse.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--strict-converge] "
               "(<command> [args...] | -)\n",
               argv0);
  return 2;
}

class LineSocket {
 public:
  bool connect_to(const std::string& host, std::uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
  }

  ~LineSocket() {
    if (fd_ >= 0) close(fd_);
  }

  bool send_line(const std::string& line) {
    std::string wire = line + "\n";
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t sent =
          send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (sent <= 0) {
        if (sent < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(sent);
    }
    return true;
  }

  /// Next line (without '\n'), or false on EOF/error.
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
      char chunk[4096];
      const ssize_t got = recv(fd_, chunk, sizeof chunk, 0);
      if (got > 0) {
        buf_.append(chunk, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      return false;
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

bool is_terminal_first_line(const std::string& line) {
  static const char* kSingle[] = {"OK",        "CREATED", "DELETED",
                                  "COUNT",     "CONVERGED", "TIMEOUT",
                                  "PONG",      "BYE",     "ERROR"};
  const std::size_t sp = line.find(' ');
  const std::string head = line.substr(0, sp);
  for (const char* t : kSingle)
    if (head == t) return true;
  return false;
}

/// Print one full response; returns the first line (empty on EOF).
std::string pump_response(LineSocket& sock) {
  std::string first;
  if (!sock.read_line(first)) return "";
  std::printf("%s\n", first.c_str());
  if (is_terminal_first_line(first)) return first;
  std::string line;
  while (sock.read_line(line)) {
    std::printf("%s\n", line.c_str());
    if (line == "END") break;
  }
  return first;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool strict_converge = false;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) host = argv[++i];
    else if (arg == "--port" && i + 1 < argc) {
      const auto v = popproto::parse_u64(argv[++i]);
      if (!v || *v > UINT16_MAX) return usage(argv[0]);
      port = static_cast<std::uint16_t>(*v);
    } else if (arg == "--strict-converge") strict_converge = true;
    else break;
  }
  if (port == 0 || i >= argc) return usage(argv[0]);

  LineSocket sock;
  if (!sock.connect_to(host, port)) {
    std::fprintf(stderr, "popprotoctl: cannot connect to %s:%u\n",
                 host.c_str(), static_cast<unsigned>(port));
    return 2;
  }

  const auto failed = [&](const std::string& first) {
    if (first.rfind("ERROR", 0) == 0) return true;
    if (strict_converge && first.rfind("TIMEOUT", 0) == 0) return true;
    return false;
  };

  if (std::string(argv[i]) == "-") {
    int rc = 0;
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      if (!sock.send_line(line)) return 2;
      const std::string first = pump_response(sock);
      if (first.empty()) return 2;
      if (failed(first)) rc = 1;
      if (first.rfind("BYE", 0) == 0) break;
    }
    return rc;
  }

  std::string command;
  for (; i < argc; ++i) {
    if (!command.empty()) command += ' ';
    command += argv[i];
  }
  if (!sock.send_line(command)) return 2;
  const std::string first = pump_response(sock);
  if (first.empty()) return 2;
  return failed(first) ? 1 : 0;
}
