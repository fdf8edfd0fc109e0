#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "common/fault.h"
#include "obs/metrics.h"

namespace xee {
namespace {

/// Pool metrics live in the global registry: queue depth (gauge), time
/// spent queued, and task run time (ns histograms). Handles resolved
/// once per process.
struct PoolMetrics {
  obs::Gauge& queue_depth =
      obs::Registry::Global().GetGauge("pool.queue_depth");
  obs::Histogram& queue_wait_ns =
      obs::Registry::Global().GetHistogram("pool.queue_wait_ns");
  obs::Histogram& task_ns =
      obs::Registry::Global().GetHistogram("pool.task_ns");

  static PoolMetrics& Get() {
    static PoolMetrics m;
    return m;
  }
};

uint64_t NsBetween(std::chrono::steady_clock::time_point a,
                   std::chrono::steady_clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  const size_t n = std::max<size_t>(1, threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  Task task{std::move(fn), {}};
  task.enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  PoolMetrics::Get().queue_depth.Add(1);
  cv_.notify_one();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // A few chunks per participant (the workers plus the caller), so
  // uneven per-index costs still balance.
  const size_t chunks = std::min(n, (workers_.size() + 1) * 4);
  // Helpers may be dequeued after the call has returned (every chunk
  // already taken), so the shared state is refcounted and `fn` — on the
  // caller's stack — is touched only by a participant holding a chunk,
  // which the caller waits for. The wait is a mutex and condition
  // variable: the std::latch it replaces was seen (libstdc++ 12) asleep
  // for good with its count at 1 and no task left queued, and
  // std::atomic::wait shares the latch's wait machinery.
  struct Shared {
    const std::function<void(size_t)>* fn;
    size_t n;
    size_t chunks;
    std::atomic<size_t> next{0};  // cursor: the next chunk to hand out
    std::atomic<size_t> done{0};  // chunks finished
    std::mutex mu;
    std::condition_variable all_done;

    /// Takes and runs chunks until none are left.
    void Work() {
      for (size_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) <
                     chunks;) {
        const size_t end = n * (c + 1) / chunks;
        for (size_t i = n * c / chunks; i < end; ++i) (*fn)(i);
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
          std::lock_guard<std::mutex> lock(mu);
          all_done.notify_all();
        }
      }
    }
    bool Finished() const {
      return done.load(std::memory_order_acquire) == chunks;
    }
  };
  auto shared = std::make_shared<Shared>();
  shared->fn = &fn;
  shared->n = n;
  shared->chunks = chunks;
  const size_t helpers = std::min(workers_.size(), chunks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([shared] { shared->Work(); });
  }
  shared->Work();
  if (!shared->Finished()) {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->all_done.wait(lock, [&] { return shared->Finished(); });
  }
}

size_t ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    PoolMetrics& metrics = PoolMetrics::Get();
    metrics.queue_depth.Sub(1);
    uint64_t slow_ms = 0;
    if (FaultFires(kSlowWorkerFaultSite, &slow_ms)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
    }
    const auto start = std::chrono::steady_clock::now();
    metrics.queue_wait_ns.Record(NsBetween(task.enqueued, start));
    task.fn();
    metrics.task_ns.Record(NsBetween(start, std::chrono::steady_clock::now()));
  }
}

}  // namespace xee
