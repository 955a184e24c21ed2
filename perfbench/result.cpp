#include "result.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/bench_io.hpp"
#include "sweep/orchestrator.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMaxFailureReasons = 8;

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

void RawResult::fail(const std::string& why) {
  ++failed;
  if (failures.size() < kMaxFailureReasons) failures.push_back(why);
}

std::string RawResult::to_json() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i) out += ",";
    popproto::json_append_string(out, failures[i]);
  }
  out += "],\"stamp\":{";
  bool first = true;
  for (const auto& [k, v] : stamp) {
    if (!first) out += ",";
    first = false;
    popproto::json_append_string(out, k);
    out += ":";
    popproto::json_append_string(out, v);
  }
  out += "},\"scalars\":{";
  first = true;
  for (const auto& [k, v] : scalars) {
    if (!first) out += ",";
    first = false;
    popproto::json_append_string(out, k);
    out += ":";
    append_number(out, v);
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [k, vs] : samples) {
    if (!first) out += ",";
    first = false;
    popproto::json_append_string(out, k);
    out += ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) out += ",";
      append_number(out, vs[i]);
    }
    out += "]";
  }
  out += "}}";
  return out;
}

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

double rusage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

}  // namespace

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double children_cpu_s() { return rusage_cpu_s(RUSAGE_CHILDREN); }

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }

namespace {

constexpr std::size_t kGaugeTableWords = 8192;  // 64 KiB
constexpr int kGaugeIterations = 1 << 17;
// The unit's CPU time on an unloaded 4-vCPU Xeon VM (AVX-512 generation):
// the fastest of many readings there.
constexpr double kGaugeUnloadedS = 0.2125e-3;
constexpr auto kSampleEvery = std::chrono::milliseconds(20);

}  // namespace

CoreSampler::CoreSampler() {
  const int cpu = sched_getcpu();
  cpu_set_t saved;
  if (cpu >= 0 && sched_getaffinity(0, sizeof saved, &saved) == 0) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&saved);
    saved_mask_.assign(bytes, bytes + sizeof saved);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    // The calling thread only (pid 0); the sampler inherits it.
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  thread_ = std::thread([this] { loop(); });
}

CoreSampler::~CoreSampler() { stop(); }

void CoreSampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (pinned_) {
    cpu_set_t saved;
    std::copy(saved_mask_.begin(), saved_mask_.end(),
              reinterpret_cast<unsigned char*>(&saved));
    sched_setaffinity(0, sizeof saved, &saved);
    pinned_ = false;
  }
}

void CoreSampler::loop() {
  std::vector<std::uint64_t> table(kGaugeTableWords);
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = i * 0x9e3779b97f4a7c15ull;
  std::uint64_t state = 1;
  std::unique_lock<std::mutex> lock(mu_);
  do {
    lock.unlock();
    const double t0 = thread_cpu_s();
    std::uint64_t acc = 0;
    for (int i = 0; i < kGaugeIterations; ++i) {
      state += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      acc += table[z % kGaugeTableWords];
      table[(z >> 32) % kGaugeTableWords] ^= acc;
    }
    const double reading = (thread_cpu_s() - t0) / kGaugeUnloadedS;
    lock.lock();
    sum_ += reading;
    ++readings_;
  } while (!cv_.wait_for(lock, kSampleEvery, [this] { return stop_; }));
  spent_s_ = thread_cpu_s();
}

int run_one_logged(const std::string& dir, const std::string& job) {
  const char* path = std::getenv(kJobCpuLogEnv);
  if (path == nullptr || *path == '\0')
    return popproto::run_one_worker(dir, job);
  CoreSampler sampler;
  const double c0 = thread_cpu_s();
  const int status = popproto::run_one_worker(dir, job);
  const double job_s = thread_cpu_s() - c0;
  sampler.stop();
  // One short append per worker; workers run one at a time.
  if (std::FILE* f = std::fopen(path, "a")) {
    std::fprintf(f, "%s %.9g %.9g %.9g\n", job.c_str(), job_s,
                 sampler.mean_speed(), sampler.spent_s());
    std::fclose(f);
  }
  return status;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

}  // namespace perfbench
