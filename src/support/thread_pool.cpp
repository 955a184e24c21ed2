#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace popproto {

unsigned probe_hardware_threads() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return static_cast<unsigned>(cpus);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads != 0 ? threads : probe_hardware_threads()) {
  for (unsigned h = 1; h < threads_; ++h)
    helpers_.push_back(std::make_unique<TaskQueue>(1));
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) const {
  const std::size_t jobs = std::min<std::size_t>(threads_, count);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Participant j runs index j, then claims the indices past `jobs - 1`.
  // Every helper job touches this frame, so the last one to finish signals
  // while it holds `mu`: the wait below cannot see unfinished == 0, and
  // return, before that job has let go of the lock.
  std::atomic<std::size_t> next{jobs};
  std::mutex mu;
  std::condition_variable done;
  std::size_t unfinished = jobs - 1;
  const auto run_from = [&](std::size_t first) {
    fn(first);
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                        count;)
      fn(i);
  };
  const auto helper = [&](std::size_t first) {
    run_from(first);
    std::lock_guard<std::mutex> lock(mu);
    if (--unfinished == 0) done.notify_one();
  };
  const auto wait_for_helpers = [&] {
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] { return unfinished == 0; });
  };
  for (std::size_t h = 1; h < jobs; ++h)
    helpers_[h - 1]->submit([&helper, h] { helper(h); });
  try {
    run_from(0);
  } catch (...) {
    wait_for_helpers();  // they read this frame until they finish
    throw;
  }
  wait_for_helpers();
}

TaskQueue::TaskQueue(unsigned threads) {
  if (threads == 0) threads = probe_hardware_threads();
  workers_.reserve(threads);
  for (unsigned w = 0; w < threads; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

TaskQueue::~TaskQueue() { shutdown(); }

bool TaskQueue::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return false;
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return true;
}

void TaskQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

std::size_t TaskQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + running_;
}

void TaskQueue::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
  }
}

}  // namespace popproto
