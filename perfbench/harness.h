#ifndef XEE_PERFBENCH_HARNESS_H_
#define XEE_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the workloads: CPU clocks, a latency
// histogram with exact-enough quantiles and its per-window summary, a Zipf
// sampler, and the result line the benchmark prints last.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace xee::perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// CPU time used so far by the calling thread, in nanoseconds. Unlike
/// wall time it stands still while the thread is preempted or its vCPU
/// is descheduled by the host. One read costs about 0.3 µs (a system
/// call), which a timed interval includes once.
uint64_t ThreadCpuNs();

/// CPU time used so far by every thread of the process, in nanoseconds.
uint64_t ProcessCpuNs();

/// Pins the calling thread to one CPU at a time, taking in turn every CPU
/// the process may run on. On a shared host each vCPU runs at its own,
/// drifting speed (a memory-bound loop differs by 10-15% between vCPUs at
/// the same moment); a single-client loop left on one vCPU reports that
/// vCPU's speed, one that visits all of them reports the machine's.
class CpuRotation {
 public:
  CpuRotation();
  /// Moves the calling thread to the next CPU.
  void Next();
  /// Lets the calling thread run on every allowed CPU again. Threads
  /// inherit their creator's affinity, so a thread that starts others
  /// (a service's worker pool) must not be pinned when it does.
  void Release();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Latency histogram: 1 ns buckets below 100 µs, 1 µs buckets up to
/// 100 ms, one overflow bucket beyond. Quantiles are exact to the
/// bucket width, and memory stays fixed however long a run lasts.
/// (obs::Histogram's log buckets are 12.5% wide: a quantile read from
/// them moves in steps coarser than the bounds this benchmark enforces.)
class LatencyHist {
 public:
  LatencyHist() : fine_(kFine, 0), coarse_(kCoarse + 1, 0) {}

  void Record(uint64_t ns) {
    ++count_;
    if (ns < kFine) {
      ++fine_[ns];
    } else {
      const uint64_t us = ns / 1000;
      ++coarse_[us < kCoarse ? us : kCoarse];
    }
  }

  void Clear() {
    std::fill(fine_.begin(), fine_.end(), 0);
    std::fill(coarse_.begin(), coarse_.end(), 0);
    count_ = 0;
  }

  uint64_t count() const { return count_; }
  /// The q-quantile in nanoseconds (0 when empty).
  double Quantile(double q) const;

 private:
  static constexpr uint64_t kFine = 100'000;    // ns
  static constexpr uint64_t kCoarse = 100'000;  // µs
  std::vector<uint64_t> fine_;
  std::vector<uint64_t> coarse_;
  uint64_t count_ = 0;
};

/// The q-quantile of `v`, interpolated linearly between order statistics
/// (0 when empty).
double Quantile(std::vector<double> v, double q);

/// Latency and throughput of a run, cut into consecutive windows of
/// wall time. Each window yields its own p50, p90 and requests per busy
/// second, and the run reports the fast quartile of its windows: the
/// 25th percentile of the window latencies, the 75th of the window rates.
/// On a shared host other tenants' memory traffic slows this program by
/// up to a third, in spells from a fraction of a second to a minute. Every
/// run has windows free of such spells, and the fast quartile follows
/// them, where a median moves with how much of the run was slowed.
class WindowedLatency {
 public:
  explicit WindowedLatency(Clock::duration window) : window_(window) {}

  void Start(Clock::time_point now) { start_ = now; }
  /// One latency sample, taken over `busy_ns` of timed work that
  /// completed `items` requests.
  void Record(uint64_t latency_ns, uint64_t items, uint64_t busy_ns) {
    hist_.Record(latency_ns);
    busy_ns_ += busy_ns;
    items_ += items;
  }
  /// Timed work that completed no request (it lowers throughput only).
  void AddBusy(uint64_t ns) { busy_ns_ += ns; }
  /// Closes the current window once its time is up; true if it did.
  bool Roll(Clock::time_point now) {
    if (now - start_ < window_) return false;
    Close(now);
    return true;
  }
  /// Ends a measured stretch: the open window is kept if it is at least
  /// half as long as the others (or is the only one), else discarded.
  void Finish(Clock::time_point now) {
    if (now - start_ >= window_ / 2 || p50_.empty()) {
      Close(now);
    } else {
      Reset(now);
    }
  }

  double p50_ns() const { return Quantile(p50_, 0.25); }
  double p90_ns() const { return Quantile(p90_, 0.25); }
  double rate() const { return Quantile(rate_, 0.75); }
  size_t windows() const { return p50_.size(); }
  uint64_t samples() const { return samples_; }

 private:
  void Close(Clock::time_point now);
  void Reset(Clock::time_point now);

  Clock::duration window_;
  Clock::time_point start_;
  LatencyHist hist_;
  uint64_t busy_ns_ = 0;
  uint64_t items_ = 0;
  uint64_t samples_ = 0;
  std::vector<double> p50_, p90_, rate_;
};

/// Inverse-CDF Zipf sampler over ranks [0, n): O(log n) per draw, where
/// Rng::Zipf rescans all n weights on every draw.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A named metric value with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the outcome ledger plus its metrics.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First correctness violation, for the diagnostic on stderr.
  std::string first_error;

  void Fail(std::string why) {
    if (correct) first_error = std::move(why);
    correct = false;
  }
};

/// The single-line JSON result object, printed as the last line of
/// standard output.
std::string ResultJson(const RunResult& r);

}  // namespace xee::perfbench

#endif  // XEE_PERFBENCH_HARNESS_H_
