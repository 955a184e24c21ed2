// The raw result a driver run hands to run.py, and the clock it is timed
// with. Every figure is timed by the benchmark around its calls into the
// library's public functions (nothing inside src/ is instrumented).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// CPU time of the calling thread, in seconds. It stands still while the
/// thread waits for a core (another tenant's steal, preemption), which a
/// steady_clock interval counts; for work done on the calling thread it is
/// what the work costs. The end-to-end times of the kept workloads use it.
double thread_cpu_s();

/// User plus system CPU time, in seconds, of this process's children that
/// have been waited for (popsweep's worker processes).
double children_cpu_s();

/// User plus system CPU time of this whole process so far, in seconds.
double process_cpu_s();

/// How fast the host runs the calling thread's core while it works. On a
/// shared host the CPU time of the same work swings by up to twofold for
/// seconds to minutes at a time, as other tenants load the same physical
/// cores and caches. The constructor pins the calling thread to the CPU it
/// is on and starts a sampler thread pinned there too. Every 20 ms the
/// sampler wakes, between the calling thread's time slices, and times a
/// fixed unit of integer work (splitmix64 hashing into a 64 KiB table):
/// about 0.2 ms of CPU time, 1% of the core. A reading is that time over
/// the unit's time on an unloaded host: about 1 there, up to about 2.5
/// while the core is shared. Dividing the calling thread's CPU time by the
/// mean reading gives the time its work takes on the unloaded host, which
/// holds still while the raw CPU time swings (perfbench/README.md has the
/// measurements). The sampler's own CPU time is not the calling thread's.
class CoreSampler {
 public:
  CoreSampler();
  ~CoreSampler();
  CoreSampler(const CoreSampler&) = delete;
  CoreSampler& operator=(const CoreSampler&) = delete;

  /// Stop sampling and restore the calling thread's CPU affinity.
  void stop();
  /// Mean reading (1 if none was taken); valid after stop().
  double mean_speed() const { return readings_ > 0 ? sum_ / readings_ : 1.0; }
  /// CPU time of the sampler thread; valid after stop().
  double spent_s() const { return spent_s_; }

 private:
  void loop();

  std::vector<unsigned char> saved_mask_;
  bool pinned_ = false;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double sum_ = 0.0;
  int readings_ = 0;
  double spent_s_ = 0.0;
};

/// A popsweep worker (`--run-one`). When $PERFBENCH_JOB_CPU_LOG names a
/// file, it runs run_one_worker under a CoreSampler and appends
/// "<job> <cpu_s> <speed> <sampler_cpu_s>" to the file: the job's CPU
/// time, the sampler's mean reading and its own CPU time. Returns
/// run_one_worker's exit status.
int run_one_logged(const std::string& dir, const std::string& job);
inline constexpr const char* kJobCpuLogEnv = "PERFBENCH_JOB_CPU_LOG";

/// What one driver run measured, before run.py reduces it to metrics:
/// sample lists (medians and percentiles are taken in run.py), scalars,
/// the operation tally and the reasons of failed checks.
struct RawResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> scalars;
  std::map<std::string, std::string> stamp;

  /// Count one failed check and remember why (the first few reasons only).
  void fail(const std::string& why);
  void sample(const std::string& name, double v) { samples[name].push_back(v); }
  void add(const std::string& name, double v) { scalars[name] += v; }

  std::string to_json() const;
};

/// Peak resident set of this process and of its waited-for children, in MB.
double peak_rss_mb();

}  // namespace perfbench
