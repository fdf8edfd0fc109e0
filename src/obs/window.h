#ifndef XEE_OBS_WINDOW_H_
#define XEE_OBS_WINDOW_H_

#include <cstdint>

#include "obs/metrics.h"

/// Windowed scraping over the cumulative metrics in obs/metrics.h.
/// Counters and histograms only ever accumulate; a time-series consumer
/// (the traffic simulator's trajectory rows, a metrics poller) wants
/// per-window deltas — "what happened since I last looked" — with real
/// quantiles for the histogram windows, not quantiles-of-everything-
/// so-far. Each *Window object remembers the previous scrape and
/// returns the difference; the metrics themselves are never touched, so
/// any number of independent scrapers can watch one registry.
///
/// Not thread-safe: one scraper is one reader's cursor.
namespace xee::obs {

/// Delta cursor over any monotonically increasing counter value.
/// Feed it Counter::value() (or Registry::CounterValue) each window.
class CounterWindow {
 public:
  /// The increase since the previous Advance (the full value on first
  /// call). A cumulative value that went backwards — a reset metric —
  /// re-bases and reports 0 rather than underflowing.
  uint64_t Advance(uint64_t cumulative) {
    const uint64_t delta = cumulative >= prev_ ? cumulative - prev_ : 0;
    prev_ = cumulative;
    return delta;
  }

 private:
  uint64_t prev_ = 0;
};

/// Delta cursor over one Histogram: Advance returns a snapshot —
/// count, mean, quantiles — of only the values recorded since the
/// previous Advance. Costs one shard merge (~4 × 496 relaxed loads)
/// plus the quantile scan per call; sized for once-per-window scraping,
/// not per-request paths.
class HistogramWindow {
 public:
  HistogramSnapshot Advance(const Histogram& h) {
    uint64_t cur[HistogramBuckets::kBuckets];
    const uint64_t sum = h.SnapBuckets(cur);
    uint64_t delta[HistogramBuckets::kBuckets];
    for (int b = 0; b < HistogramBuckets::kBuckets; ++b) {
      // Per-bucket clamp: shard merges under concurrent writes can
      // transiently read a bucket lower than a previous merge did.
      delta[b] = cur[b] >= prev_[b] ? cur[b] - prev_[b] : 0;
      prev_[b] = cur[b];
    }
    const uint64_t dsum = sum >= prev_sum_ ? sum - prev_sum_ : 0;
    prev_sum_ = sum;
    return SnapshotFromBuckets(delta, dsum);
  }

 private:
  uint64_t prev_[HistogramBuckets::kBuckets] = {};
  uint64_t prev_sum_ = 0;
};

}  // namespace xee::obs

#endif  // XEE_OBS_WINDOW_H_
