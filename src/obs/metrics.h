#ifndef XEE_OBS_METRICS_H_
#define XEE_OBS_METRICS_H_

#include <atomic>
#include <cstdio>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// xee_obs: the observability subsystem (DESIGN.md §10). Labeled
/// counters, gauges and log-bucketed latency histograms behind a
/// registry, cheap enough to leave in release hot paths:
///
///   - Counter::Inc / Histogram::Record are relaxed atomic adds on
///     cache-line-aligned, thread-sharded slots; no locks, no clock
///     reads, no allocation.
///   - Registry::Get* takes a mutex only on first use of a (name,
///     label) pair; callers cache the returned reference (it is stable
///     for the registry's lifetime).
///
/// Registries are instantiable — the service layer owns one per
/// EstimationService instance so concurrent services (and tests) do not
/// bleed counters into each other — and Registry::Global() serves the
/// process-wide singletons (estimator, thread pool, fault injector).
namespace xee::obs {

/// Point-in-time view of one histogram. Quantiles are bucket upper
/// bounds (inclusive), so conservative by at most one sub-bucket —
/// 12.5% relative at the default 8 sub-buckets per octave. Unit-
/// agnostic: the recorder picks the unit (latency metrics record
/// nanoseconds and carry a `_ns` name suffix by convention).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  double mean = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;  ///< upper bound of the highest non-empty bucket
};

/// Log-bucketed histogram math, shared by Histogram and the windowed
/// scraper (and unit-tested against exact reference values in
/// obs_test.cc).
///
/// Values 0..7 get exact buckets; past that, each power-of-two octave
/// [2^k, 2^(k+1)) splits into 8 linear sub-buckets of width 2^(k-3).
/// Any uint64 value maps to one of 496 buckets with relative bucket
/// width <= 1/8.
struct HistogramBuckets {
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;  // sub-buckets per octave
  static constexpr int kBuckets = kSub + (64 - kSubBits) * kSub;  // 496

  static constexpr int BucketOf(uint64_t v) {
    if (v < static_cast<uint64_t>(kSub)) return static_cast<int>(v);
    const int k = 63 - std::countl_zero(v);  // floor(log2 v), >= kSubBits
    const int sub =
        static_cast<int>((v >> (k - kSubBits)) & (kSub - 1));
    return kSub + (k - kSubBits) * kSub + sub;
  }

  /// Largest value mapping to bucket `b` (the value quantiles report).
  static constexpr uint64_t BucketBound(int b) {
    if (b < kSub) return static_cast<uint64_t>(b);
    const int k = kSubBits + (b - kSub) / kSub;
    const int sub = (b - kSub) % kSub;
    // 2^k + (sub+1) * 2^(k-kSubBits) - 1; the top bucket (k=63, sub=7)
    // wraps to exactly UINT64_MAX under unsigned arithmetic.
    return (1ull << k) +
           ((static_cast<uint64_t>(sub) + 1) << (k - kSubBits)) - 1;
  }
};

/// Monotonic event counter. Inc/Add are wait-free relaxed adds.
class Counter {
 public:
  void Inc() { v_.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<uint64_t> v_{0};
};

/// Instantaneous signed level (queue depth, in-flight requests).
class Gauge {
 public:
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  void Set(int64_t n) { v_.store(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<int64_t> v_{0};
};

/// Concurrent log-bucketed histogram (see HistogramBuckets for the
/// bucket math). Recording threads spread over kShards cache-line-
/// aligned shards by a thread-local index, so concurrent recorders do
/// not ping-pong one cache line; Snap() merges the shards (approximate
/// under concurrent writes, which is fine for monitoring).
class Histogram {
 public:
  static constexpr int kShards = 4;  // power of two

  void Record(uint64_t v) {
    Shard& s = shards_[ShardIndex()];
    s.buckets[HistogramBuckets::BucketOf(v)].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot Snap() const;

  /// Merges the shards' per-bucket counts into `out` and returns the
  /// merged value sum — the raw material for windowed (delta) scraping
  /// (obs/window.h). Approximate under concurrent writes, like Snap().
  uint64_t SnapBuckets(uint64_t out[HistogramBuckets::kBuckets]) const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[HistogramBuckets::kBuckets] = {};
    std::atomic<uint64_t> sum{0};
  };

  static size_t ShardIndex() {
    static std::atomic<size_t> next{0};
    thread_local const size_t idx =
        next.fetch_add(1, std::memory_order_relaxed);
    return idx & (kShards - 1);
  }

  Shard shards_[kShards];
};

/// Quantile/mean math over one merged bucket array (`sum` is the sum of
/// the recorded values, `counts` their bucket tallies). Shared by
/// Histogram::Snap and the windowed scraper (obs/window.h), which feeds
/// it bucket *deltas* to get per-window quantiles out of cumulative
/// histograms.
HistogramSnapshot SnapshotFromBuckets(
    const uint64_t counts[HistogramBuckets::kBuckets], uint64_t sum);

/// One row of Registry::Rows(): a metric's identity plus its current
/// value (kind selects which payload field is meaningful).
struct MetricRow {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;   ///< e.g. "service.outcome"
  std::string label;  ///< e.g. "reason=shed"; empty when unlabeled
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  HistogramSnapshot hist;
};

/// Named metrics with an optional label dimension. (name, label) pairs
/// identify metrics: two Get* calls with equal identity return the same
/// object; distinct labels on one name are distinct metrics. Returned
/// references stay valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry for cross-cutting subsystems (estimator,
  /// thread pool, fault injection). Never destroyed.
  static Registry& Global();

  Counter& GetCounter(std::string_view name, std::string_view label = {});
  Gauge& GetGauge(std::string_view name, std::string_view label = {});
  Histogram& GetHistogram(std::string_view name, std::string_view label = {});

  /// Registers a counter row whose value is computed at read time
  /// instead of stored here — for writers that keep their counts in
  /// caller-owned cells too hot for a shared fetch_add (the per-tenant
  /// lanes, see TenantTable). The callback runs under the registry
  /// mutex on every read surface (CounterValue / Rows / ToJson), so it
  /// must be lock-free, must not call back into this registry, and must
  /// stay valid until the registry is destroyed. A physical counter
  /// with the same (name, label) shadows the derived row. Re-registering
  /// an identity replaces its callback.
  void RegisterDerivedCounter(std::string_view name, std::string_view label,
                              std::function<uint64_t()> fn);

  /// Read-side lookups that never create: zero / empty snapshot when
  /// the metric does not exist (the fuzz oracles and tests use these).
  uint64_t CounterValue(std::string_view name,
                        std::string_view label = {}) const;
  int64_t GaugeValue(std::string_view name, std::string_view label = {}) const;
  HistogramSnapshot HistogramSnap(std::string_view name,
                                  std::string_view label = {}) const;

  /// Every metric, grouped by kind (counters, then gauges, then
  /// histograms), each group sorted by (name, label).
  std::vector<MetricRow> Rows() const;

  /// The statsz rendering:
  ///   {"counters":{"name{label}":n,...},"gauges":{...},
  ///    "histograms":{"name":{"count":n,"mean":f,"p50":n,...},...}}
  std::string ToJson() const;

 private:
  static std::string Key(std::string_view name, std::string_view label);

  mutable std::mutex mu_;
  // Keyed by Key(name, label); unique_ptr keeps addresses stable while
  // the maps grow.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<uint64_t()>> derived_counters_;
};

/// Length of the valid UTF-8 sequence starting at s[i], or 0 when the
/// bytes there are malformed (bad lead, truncation, overlong encoding,
/// surrogate, or > U+10FFFF). ASCII is handled by the caller.
inline size_t Utf8SequenceLen(std::string_view s, size_t i) {
  const unsigned char b0 = static_cast<unsigned char>(s[i]);
  size_t len;
  uint32_t cp, min;
  if ((b0 & 0xe0) == 0xc0) {
    len = 2, cp = b0 & 0x1fu, min = 0x80;
  } else if ((b0 & 0xf0) == 0xe0) {
    len = 3, cp = b0 & 0x0fu, min = 0x800;
  } else if ((b0 & 0xf8) == 0xf0) {
    len = 4, cp = b0 & 0x07u, min = 0x10000;
  } else {
    return 0;  // stray continuation byte or 0xFE/0xFF lead
  }
  if (i + len > s.size()) return 0;
  for (size_t k = 1; k < len; ++k) {
    const unsigned char b = static_cast<unsigned char>(s[i + k]);
    if ((b & 0xc0) != 0x80) return 0;
    cp = (cp << 6) | (b & 0x3fu);
  }
  if (cp < min || cp > 0x10ffff) return 0;
  if (cp >= 0xd800 && cp <= 0xdfff) return 0;
  return len;
}

/// Escapes `s` for inclusion in a JSON string literal: quotes,
/// backslashes, control characters, and — because exporter inputs
/// include operator-chosen registry names and raw client query strings
/// — invalid UTF-8, replaced byte-for-byte with U+FFFD so every export
/// stays parseable.
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) {
    const char c = s[i];
    switch (c) {
      case '"':
        out += "\\\"";
        ++i;
        continue;
      case '\\':
        out += "\\\\";
        ++i;
        continue;
      case '\n':
        out += "\\n";
        ++i;
        continue;
      case '\r':
        out += "\\r";
        ++i;
        continue;
      case '\t':
        out += "\\t";
        ++i;
        continue;
      default:
        break;
    }
    const unsigned char b = static_cast<unsigned char>(c);
    if (b < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", b);
      out += buf;
      ++i;
      continue;
    }
    if (b < 0x80) {
      out.push_back(c);
      ++i;
      continue;
    }
    // Multi-byte region: copy only well-formed UTF-8 through; anything
    // else becomes U+FFFD, one replacement per bad byte.
    const size_t len = Utf8SequenceLen(s, i);
    if (len == 0) {
      out += "\xef\xbf\xbd";  // U+FFFD REPLACEMENT CHARACTER
      ++i;
    } else {
      out.append(s.substr(i, len));
      i += len;
    }
  }
  return out;
}

}  // namespace xee::obs

#endif  // XEE_OBS_METRICS_H_
