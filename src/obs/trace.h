#ifndef XEE_OBS_TRACE_H_
#define XEE_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

/// Per-request tracing (DESIGN.md §10/§16): each estimation request
/// carries a TraceSpans on its stack; the serving pipeline's stages
/// accumulate wall time into it via ScopedStageTimer, the estimator
/// folds its work counters in through EstimateLimits, and the finished
/// trace lands in the service's bounded TraceRing.
///
/// Retention is tail-based: the keep/drop decision happens at
/// *completion* time, when the outcome is known. Routine requests are
/// head-sampled into the recent ring (1-in-N); requests with an
/// interesting outcome — shed, deadline, error, pruned, degraded, slow
/// — carry a tail class and always land in the separate tail ring,
/// regardless of the head sample, where a burst of fast requests cannot
/// wash them out. Each record lives in exactly one ring, so span-sum
/// oracles that walk both rings never double-count a request.
namespace xee::obs {

/// The serving pipeline's stages, in request order. A stage a request
/// skips (an exact-string cache hit never parses) records nothing.
enum class Stage : uint8_t {
  kParse = 0,       ///< XPath string -> AST
  kCanonicalize,    ///< AST -> canonical form + cache key
  kCacheLookup,     ///< answer-cache probes (exact + canonical + degraded)
  kSnapshot,        ///< synopsis registry snapshot acquire
  /// Path-id joins (Section 4) inside Estimator::Estimate, timed by the
  /// estimator itself; join-memo hits are lookups and do not count.
  kJoin,
  /// The rest of the Estimate call: Theorem 4.1, Eqs. 2-5 and the
  /// document-order rewrite around the joins.
  kFormula,
};
inline constexpr size_t kStageCount = 6;

constexpr std::string_view StageName(Stage s) {
  switch (s) {
    case Stage::kParse:
      return "parse";
    case Stage::kCanonicalize:
      return "canonicalize";
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kSnapshot:
      return "snapshot";
    case Stage::kJoin:
      return "join";
    case Stage::kFormula:
      return "formula";
  }
  return "?";
}

/// One request's per-stage time and estimator work counters. A plain
/// stack struct — single-threaded within its request, no atomics.
/// Stages are disjoint sub-intervals of the request, so the invariant
/// sum(stage_ns) <= total wall time holds by construction (the chaos
/// harness asserts it).
struct TraceSpans {
  uint64_t stage_ns[kStageCount] = {};
  uint64_t containment_tests = 0;
  uint64_t join_probes = 0;
  uint64_t fixpoint_rounds = 0;

  uint64_t StageNs(Stage s) const {
    return stage_ns[static_cast<size_t>(s)];
  }
  uint64_t SumNs() const {
    uint64_t t = 0;
    for (uint64_t v : stage_ns) t += v;
    return t;
  }
};

/// A completed request trace as stored in the ring.
struct TraceRecord {
  uint64_t seq = 0;       ///< monotonically increasing per ring
  uint64_t total_ns = 0;  ///< end-to-end request wall time
  TraceSpans spans;
  std::string synopsis;
  std::string query;
  std::string outcome;  ///< "exact-hit", "miss", "deadline", ...
  bool degraded = false;
  /// Why completion-time classification retained this record ("shed",
  /// "deadline", "error", "pruned", "degraded", "slow"); empty for a
  /// head-sampled routine request. Routes the record: non-empty goes to
  /// the tail ring, empty to the recent ring — never both.
  std::string tail_class;
};

/// One histogram exemplar: the most recent retained trace whose total
/// latency fell into a given log-bucket octave, so a p99 spike in the
/// request_ns histogram links to an actual trace in the rings.
struct TraceExemplar {
  uint64_t seq = 0;
  uint64_t total_ns = 0;
  int bucket = 0;  ///< HistogramBuckets index of total_ns
  std::string outcome;
};

/// RAII stage timer: on destruction adds the elapsed nanoseconds to the
/// span's stage slot and (when given) a stage histogram. Re-entering a
/// stage accumulates — the cache-lookup stage times all probes of one
/// request together. Constructing with `enabled = false` makes the
/// timer inert without touching the clock: the service decides once per
/// request whether it is timed (ServiceOptions::trace_sample) and
/// threads that decision through every stage, keeping the unsampled
/// hot path free of clock reads.
class ScopedStageTimer {
 public:
  ScopedStageTimer(TraceSpans* spans, Stage stage, Histogram* hist,
                   bool enabled = true)
      : spans_(enabled ? spans : nullptr),
        hist_(enabled ? hist : nullptr),
        stage_(stage) {
    if (spans_ != nullptr || hist_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~ScopedStageTimer() {
    if (spans_ == nullptr && hist_ == nullptr) return;
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    if (spans_ != nullptr) {
      spans_->stage_ns[static_cast<size_t>(stage_)] += ns;
    }
    if (hist_ != nullptr) hist_->Record(ns);
  }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  TraceSpans* spans_;
  Histogram* hist_;
  Stage stage_;
  std::chrono::steady_clock::time_point start_;
};

/// Bounded buffer of head-sampled recent traces plus a separate
/// tail-retention buffer for interesting-outcome requests (so one burst
/// of fast requests cannot evict the records worth debugging). Record
/// takes a mutex — routine callers sample (ServiceOptions::trace_sample)
/// and tail-retained outcomes are rare, keeping it off the per-request
/// critical path.
class TraceRing {
 public:
  /// Exemplar storage: one slot per histogram octave band.
  static constexpr int kExemplarBands =
      HistogramBuckets::kBuckets / HistogramBuckets::kSub + 1;

  /// `capacity` bounds the recent ring (clamped to >= 1); the tail ring
  /// holds max(16, capacity/2). `slow_threshold_ns` of 0 disables the
  /// slow tail class.
  explicit TraceRing(size_t capacity, uint64_t slow_threshold_ns = 0);

  /// True when a timed record of this latency classifies as "slow"
  /// (one of the tail-retention classes); cheap, lock-free.
  bool IsSlow(uint64_t total_ns) const {
    const uint64_t t = slow_threshold_ns_.load(std::memory_order_relaxed);
    return t != 0 && total_ns >= t;
  }

  /// Stores `rec` in exactly one ring: the tail ring when
  /// rec.tail_class is non-empty, the recent ring otherwise. Timed
  /// records (total_ns > 0) also refresh their octave's exemplar slot.
  void Record(TraceRecord rec);

  /// The most recent `max` head-sampled traces, oldest first.
  std::vector<TraceRecord> Recent(size_t max = SIZE_MAX) const;
  /// The most recent `max` tail-retained traces, oldest first.
  std::vector<TraceRecord> Tail(size_t max = SIZE_MAX) const;
  /// The live exemplars, lowest bucket first.
  std::vector<TraceExemplar> Exemplars() const;

  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  /// Records that went to the tail ring (subset of recorded()).
  uint64_t tail_recorded() const {
    return tail_recorded_.load(std::memory_order_relaxed);
  }
  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }
  void set_slow_threshold_ns(uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }

  /// The tracez rendering:
  /// {"recent":[...],"tail":[...],"exemplars":[...]} with at most `max`
  /// entries per trace list, each entry carrying total/stage times and
  /// estimator counters; exemplars link latency buckets to trace seqs.
  std::string ToJson(size_t max = 32) const;

 private:
  void Push(std::vector<TraceRecord>* ring, size_t* pos, size_t cap,
            TraceRecord rec);
  std::vector<TraceRecord> Ordered(const std::vector<TraceRecord>& ring,
                                   size_t pos, size_t max) const;

  const size_t capacity_;
  const size_t tail_capacity_;
  std::atomic<uint64_t> slow_threshold_ns_;
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> tail_recorded_{0};

  mutable std::mutex mu_;
  std::vector<TraceRecord> ring_;       // guarded by mu_
  std::vector<TraceRecord> tail_ring_;  // guarded by mu_
  size_t pos_ = 0;                      // next write slot in ring_
  size_t tail_pos_ = 0;
  uint64_t seq_ = 0;
  TraceExemplar exemplars_[kExemplarBands];  // guarded by mu_
};

}  // namespace xee::obs

#endif  // XEE_OBS_TRACE_H_
