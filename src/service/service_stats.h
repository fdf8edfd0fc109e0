#ifndef XEE_SERVICE_SERVICE_STATS_H_
#define XEE_SERVICE_SERVICE_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/sharded_lru.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xee::service {

/// Point-in-time view of every service counter, queryable as a struct
/// and printable from the CLI. Stage latencies are real log-bucketed
/// histograms (obs::Histogram), so p50/p99 are quantiles of the
/// recorded distribution rather than a spike-distorted mean.
struct ServiceStatsSnapshot {
  // Request counters. `requests` counts individual queries (batch
  // members included); `batches` counts EstimateBatch calls.
  uint64_t requests = 0;
  uint64_t batches = 0;

  // Answer-cache outcome per request: an exact-string hit skips parse
  // and estimation entirely; a canonical hit ran the parse but found the
  // answer under the canonicalized key; a miss ran the estimator.
  uint64_t exact_hits = 0;
  uint64_t canonical_hits = 0;
  uint64_t misses = 0;

  // Static-analyzer outcomes (DESIGN.md §15). `analyzer_checked` counts
  // cache-miss requests the analyzer examined; `analyzer_pruned` the
  // subset answered 0 by a satisfiability proof (cache hits on a pruned
  // answer count here too — the label follows the answer).
  uint64_t analyzer_checked = 0;
  uint64_t analyzer_pruned = 0;

  // Robustness outcomes: requests shed by admission control, answered
  // degraded (order statistics dropped), rejected for an expired
  // deadline, or refused because the synopsis is quarantined.
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t quarantined = 0;

  // Shed attribution: single-call admission refusals vs batch members
  // beyond the in-flight budget. Always sums to `shed`, so trajectory
  // scrapers can attribute shed load without parsing server text.
  uint64_t shed_single = 0;
  uint64_t shed_batch = 0;

  // Requests currently estimating. Mirrors the admission budget, so it
  // is only maintained when max_inflight > 0 (unbounded services report
  // 0 rather than paying two atomics per request).
  int64_t inflight = 0;

  // Answer-cache occupancy, from the sharded LRU.
  uint64_t cache_evictions = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_entries = 0;

  // Per-stage latency over the full pipeline (nanosecond histograms)
  // plus end-to-end. Fed by the 1-in-trace_sample timed requests, so
  // `count` here is the number of timed requests — the counters above
  // remain exact totals.
  obs::HistogramSnapshot parse;
  obs::HistogramSnapshot canonicalize;
  obs::HistogramSnapshot cache_lookup;
  obs::HistogramSnapshot snapshot_acquire;
  obs::HistogramSnapshot join;
  obs::HistogramSnapshot formula;
  obs::HistogramSnapshot request;

  /// Distribution of the retry-after hints attached to shed requests
  /// (milliseconds; one sample per shed). Unlike the stage histograms
  /// this is exact, not sampled — shedding is off the hot path.
  obs::HistogramSnapshot retry_after_ms;

  /// Multi-line human-readable rendering for the CLI.
  std::string ToString() const;
};

/// The service's metric handles, resolved once against its
/// obs::Registry (DESIGN.md §10 catalogs the names). All members are
/// registry-owned atomics; any thread may bump them concurrently. This
/// is the *only* counter system in the service — the registry backs
/// both the struct snapshot below and the machine-readable STATSZ
/// export.
struct ServiceStats {
  explicit ServiceStats(obs::Registry* registry);

  obs::Counter& requests;
  obs::Counter& batches;
  obs::Counter& exact_hits;
  obs::Counter& canonical_hits;
  obs::Counter& misses;
  obs::Counter& analyzer_checked;
  obs::Counter& analyzer_pruned;
  obs::Counter& shed;
  obs::Counter& shed_single;
  obs::Counter& shed_batch;
  obs::Counter& degraded;
  obs::Counter& deadline_exceeded;
  obs::Counter& quarantined;
  /// Tail-retention accounting, one counter per tail class
  /// ("service.trace.tail{class=...}"): bumped exactly when a record
  /// enters the trace ring's tail buffer, so over any run the sum
  /// equals TraceRing::tail_recorded() — the conservation the tail
  /// retention tests pin.
  obs::Counter& tail_shed;
  obs::Counter& tail_deadline;
  obs::Counter& tail_error;
  obs::Counter& tail_pruned;
  obs::Counter& tail_degraded;
  obs::Counter& tail_slow;
  obs::Gauge& inflight;
  obs::Histogram& retry_after_ms;

  /// The tail counter for a classification produced by the service's
  /// completion-time routing (`cls` must be one of the six classes).
  obs::Counter& TailCounter(std::string_view cls);

  /// Indexed by obs::Stage; `stage[kJoin]` is "service.stage.join_ns".
  obs::Histogram* stage[obs::kStageCount];
  obs::Histogram& request_ns;

  obs::Histogram* StageHist(obs::Stage s) const {
    return stage[static_cast<size_t>(s)];
  }

  /// Folds in the answer cache's LRU counters.
  ServiceStatsSnapshot Snap(const LruStats& cache) const;
};

}  // namespace xee::service

#endif  // XEE_SERVICE_SERVICE_STATS_H_
