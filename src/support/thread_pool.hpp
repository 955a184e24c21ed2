// The fork-join pool and the job queue, the library's two thread sets.
//
// ThreadPool::parallel_for(count, fn) runs fn(i) for every i in [0, count)
// across the pool's threads, blocking until all indices ran. Its helper
// threads start with the pool and park between calls, each as the one
// worker of a TaskQueue, the long-lived worker set popprotod serves
// commands from.
// Work items execute in nondeterministic order on nondeterministic
// threads: fn must be thread-safe, must not throw, and deterministic
// results are the caller's job (write to index-addressed slots, as
// run_sweep_parallel does).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace popproto {

/// Hardware parallelism actually available to *this process* right now: the
/// CPU-affinity mask population where the platform exposes one (Linux
/// sched_getaffinity — containers and taskset-pinned runs report their real
/// allowance, not the machine's core count), falling back to
/// std::thread::hardware_concurrency(). Min 1. Benchmarks stamp this at
/// record time so a `threads > probe` sweep is flagged degraded_parallelism
/// (it measures oversubscription, not scaling) instead of polluting the
/// speedup trajectory.
unsigned probe_hardware_threads();

/// Fixed pool of long-lived worker threads draining a FIFO job queue. Jobs
/// must not throw; they run in submission order but complete concurrently
/// across workers (per-key ordering, where needed, is the submitter's job —
/// popprotod keeps at most one command in flight per connection).
class TaskQueue {
 public:
  /// `threads` = 0 picks probe_hardware_threads().
  explicit TaskQueue(unsigned threads = 0);
  /// Drains the queue (shutdown()) before joining the workers.
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Enqueue a job. Returns false (job dropped) after shutdown() started.
  bool submit(std::function<void()> job);

  /// Stop accepting jobs, run everything already queued, join the workers.
  /// Idempotent; called by the destructor when not called explicitly.
  void shutdown();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }
  /// Jobs currently queued or running (approximate between lock windows).
  std::size_t pending() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t running_ = 0;
  bool stopping_ = false;
};

class ThreadPool {
 public:
  /// `threads` counts the calling thread; 0 picks probe_hardware_threads().
  /// The threads - 1 helpers start here (none for a one-thread pool) and
  /// stay parked between parallel_for calls.
  explicit ThreadPool(unsigned threads = 0);

  unsigned size() const { return threads_; }

  /// Run fn(0), ..., fn(count - 1), each exactly once, and return when all
  /// have run. The caller runs index 0 and helper h index h + 1, so with
  /// count == size() every index keeps one thread from call to call (and
  /// its data that thread's caches); the rest go to whichever participant
  /// asks first. Starts no thread: with a one-thread pool (or count <= 1)
  /// this is a plain loop on the caller.
  /// Returns only after every helper job of this call has finished. fn
  /// must not call parallel_for on this pool: its helpers would wait for
  /// themselves.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  unsigned threads_;
  std::vector<std::unique_ptr<TaskQueue>> helpers_;  // one worker each
};

}  // namespace popproto
