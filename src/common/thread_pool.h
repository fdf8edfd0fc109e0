#ifndef XEE_COMMON_THREAD_POOL_H_
#define XEE_COMMON_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace xee {

/// A fixed-size worker pool executing submitted closures in FIFO order.
///
/// Thread-safety contract: Submit() and ParallelFor() may be called from
/// any thread, including concurrently. The destructor drains the queue
/// (every submitted task runs) and joins the workers; no task may Submit
/// to the pool it runs on after destruction has begun.
class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` for execution on some worker.
  void Submit(std::function<void()> fn);

  /// Runs fn(0..n-1) across the workers and blocks until all calls have
  /// returned. Tasks are batched into contiguous index chunks to keep
  /// per-task overhead low for fine-grained work.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t size() const { return workers_.size(); }

  /// std::thread::hardware_concurrency with a fallback of 1.
  static size_t DefaultThreads();

  /// Fault site (common/fault.h): when armed, a worker sleeps for
  /// `payload` milliseconds before running each task — chaos tests use
  /// it to simulate slow or wedged workers without real load.
  static constexpr std::string_view kSlowWorkerFaultSite = "pool.slow-worker";

 private:
  /// A queued closure plus its enqueue time, so the worker can report
  /// queue-wait latency (pool.queue_wait_ns in the global obs registry).
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace xee

#endif  // XEE_COMMON_THREAD_POOL_H_
