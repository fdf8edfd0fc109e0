#ifndef XEE_OBS_TIMESERIES_H_
#define XEE_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/window.h"

/// Bounded time-series over the cumulative metrics in a Registry
/// (DESIGN.md §16). StatszJson is a point-in-time aggregate; operating
/// the service needs the *trajectory* — requests per interval, the
/// p99 of the last minute, the shed rate during the burst five minutes
/// ago. The TimeSeriesStore delta-scrapes watched counters, gauges,
/// and histograms through obs/window.h cursors at a fixed interval and
/// retains the last `retention` points of each series in a ring.
///
/// Series identity is the registry row key ("name{label}"), so a
/// per-tenant label dimension falls out of watching a prefix
/// ("tenant.requests{tenant=" matches every tenant's row); cardinality
/// stays bounded by `max_series` — rows past the bound are counted in
/// dropped_series() instead of stored.
///
/// Sampling is driver-clocked: nothing here reads a wall clock. The
/// serving layer's ObsTick feeds wall microseconds from a scrape
/// thread; the traffic simulator feeds virtual time, which makes whole
/// trajectories (and the SLO alerts computed over them) replayable
/// bit-for-bit.
namespace xee::obs {

/// One retained sample. Counter series store the per-interval delta
/// (rate basis), gauge series the raw level, histogram sub-series the
/// per-interval quantile/count/mean.
struct TsPoint {
  uint64_t t_us = 0;
  double value = 0;
};

struct TimeSeriesOptions {
  /// Minimum spacing between samples; Sample() calls inside the
  /// interval are no-ops, so drivers may tick as often as they like.
  uint64_t interval_us = 1'000'000;
  /// Points retained per series (the ring size).
  size_t retention = 240;
  /// Bound on distinct series (cardinality guard for labeled watches).
  size_t max_series = 512;
};

/// Thread-safety: all methods may be called from any thread; one mutex
/// guards the store (scraping is periodic and read traffic is export
/// surfaces, so contention is structural noise).
class TimeSeriesStore {
 public:
  /// `registry` must outlive the store.
  TimeSeriesStore(Registry* registry, TimeSeriesOptions options);

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  const TimeSeriesOptions& options() const { return options_; }

  /// Watches the counter row whose key is exactly `key` / every counter
  /// row whose key starts with `prefix`. Rows that do not exist yet are
  /// picked up when they appear (per-tenant rows register lazily).
  void WatchCounter(std::string key);
  void WatchCounterPrefix(std::string prefix);
  /// Same, for gauges (series of raw levels, not deltas).
  void WatchGauge(std::string key);
  void WatchGaugePrefix(std::string prefix);
  /// Watches one histogram through a delta cursor; expands to the
  /// sub-series `key.count` / `key.p50` / `key.p99` / `key.mean`.
  /// `h` must outlive the store (registry references are stable).
  void WatchHistogram(std::string key, Histogram* h);

  /// Takes one sample when `now_us` has advanced at least interval_us
  /// past the previous sample (the first call always samples). Returns
  /// whether a sample was taken.
  bool Sample(uint64_t now_us);

  uint64_t samples() const;
  uint64_t last_sample_us() const;
  size_t series_count() const;
  /// Counter/gauge rows that matched a watch but exceeded max_series.
  uint64_t dropped_series() const;

  std::vector<std::string> SeriesNames() const;
  /// The retained points of one series, oldest first (empty when the
  /// series does not exist).
  std::vector<TsPoint> Points(std::string_view series) const;

  /// Sum of the points with t_us in (now_us - window_us, now_us] — for
  /// delta series, the total events in the window.
  double SumOver(std::string_view series, uint64_t window_us,
                 uint64_t now_us) const;
  /// Largest point value in the same window (0 when empty) — for
  /// quantile sub-series, the worst interval in the window.
  double MaxOver(std::string_view series, uint64_t window_us,
                 uint64_t now_us) const;
  /// SumOver scaled to events per second.
  double RatePerSec(std::string_view series, uint64_t window_us,
                    uint64_t now_us) const;

  /// The .tsz rendering: options, sample count, and the newest
  /// `max_points` of every series as [t_us, value] pairs.
  std::string ToJson(size_t max_points = 32) const;

 private:
  struct Series {
    std::vector<TsPoint> ring;
    size_t pos = 0;       ///< next write index
    uint64_t count = 0;   ///< total points ever written
    uint64_t prev = 0;    ///< previous cumulative value (counter series)
  };
  struct HistWatch {
    std::string key;
    Histogram* hist;
    HistogramWindow cursor;
  };

  // All private helpers assume mu_ is held.
  Series* FindOrCreate(const std::string& key);
  void Append(Series* s, uint64_t t_us, double value);
  bool Matches(const std::string& key, const std::vector<std::string>& exact,
               const std::vector<std::string>& prefixes) const;
  const Series* Find(std::string_view key) const;

  TimeSeriesOptions options_;
  Registry* registry_;

  mutable std::mutex mu_;
  std::map<std::string, Series> series_;         // guarded by mu_
  std::vector<std::string> counter_keys_;        // guarded by mu_
  std::vector<std::string> counter_prefixes_;    // guarded by mu_
  std::vector<std::string> gauge_keys_;          // guarded by mu_
  std::vector<std::string> gauge_prefixes_;      // guarded by mu_
  std::vector<HistWatch> hist_watches_;          // guarded by mu_
  uint64_t samples_ = 0;                         // guarded by mu_
  uint64_t last_sample_us_ = 0;                  // guarded by mu_
  uint64_t dropped_ = 0;                         // guarded by mu_
};

}  // namespace xee::obs

#endif  // XEE_OBS_TIMESERIES_H_
