#ifndef XEE_OBS_ACCURACY_H_
#define XEE_OBS_ACCURACY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

/// Accuracy observability (DESIGN.md §11): the estimate -> ground-truth
/// feedback loop. The serving layer samples 1-in-N successful requests
/// and re-runs them through the exact evaluator *off the hot path*; the
/// AccuracyTracker below turns those shadow results into
///
///   - per-query-class error statistics: exact accumulators (signed
///     relative error, |relative error|, q-error) plus log-bucketed
///     obs::Histograms for quantiles, labeled by QueryClass;
///   - per-synopsis drift state: an EWMA of q-error that, past a
///     sample-count gate, flips the synopsis to a `stale` health
///     verdict (the caller carries it into the SynopsisRegistry).
///     Verdict transitions are counted as `accuracy.drift`
///     {transition=stale|recovered}: a conviction, and its clearing by
///     a new epoch (a rebuild publish or re-registration) — the pair
///     that makes a self-healing round trip auditable after the fact;
///   - a bounded worst-offenders ring (top-K sampled queries by
///     q-error) for error attribution, same spirit as the slow-trace
///     ring;
///   - conservation counters: every sampled request ends in exactly one
///     of recorded / skipped_no_document / deadline_suppressed /
///     backlog_suppressed / eval_error.
///
/// With `sample == 0` ShouldSample() is always false, so no shadow
/// evaluation ever runs.
namespace xee::obs {

/// The query-class label dimensions the accuracy histograms are keyed
/// by. Plain data (like TraceSpans): the serving layer classifies the
/// canonical query, the tracker only renders the label. `axis` folds
/// the order dimension in because an order constraint changes which
/// estimation formulas run — the paper's figures split exactly along
/// this line.
struct QueryClass {
  bool order = false;       ///< any order constraint (Figs. 12/13 regime)
  bool descendant = false;  ///< any '//' axis among the steps
  bool branched = false;    ///< some node has >= 2 children (twig, not chain)
  bool predicate = false;   ///< any value predicate `[.="..."]`
  int depth = 0;            ///< query node count

  std::string_view AxisName() const {
    return order ? "order" : descendant ? "desc" : "child";
  }
  std::string_view DepthBucket() const {
    return depth <= 4 ? "1-4" : depth <= 8 ? "5-8" : "9+";
  }
  /// The histogram label, e.g. "axis=desc,shape=chain,pred=0,depth=5-8".
  std::string Label() const {
    std::string out = "axis=";
    out += AxisName();
    out += branched ? ",shape=branch" : ",shape=chain";
    out += predicate ? ",pred=1" : ",pred=0";
    out += ",depth=";
    out += DepthBucket();
    return out;
  }
};

/// Tracker knobs. The serving layer maps its ServiceOptions onto this.
struct AccuracyOptions {
  /// Shadow-sample 1-in-N eligible requests (1 = every one, 0 = off).
  size_t sample = 256;
  /// Seed of the sampling decision: equal seeds over equal request
  /// sequences sample the same positions (tests pin this).
  uint64_t seed = 0xacc5eed;
  /// EWMA q-error above which a synopsis turns stale...
  double drift_qerror_limit = 2.0;
  /// ...once it has at least this many shadow samples in its current
  /// epoch (prevents one unlucky early sample from tripping the alarm).
  uint64_t drift_min_samples = 32;
  /// EWMA smoothing factor (weight of the newest sample).
  double drift_alpha = 0.05;
  /// Bound on in-flight + queued shadow evaluations; excess samples are
  /// dropped as backlog_suppressed rather than queueing without limit.
  size_t max_pending = 64;
  /// Worst-offenders ring capacity (top-K by q-error).
  size_t offender_capacity = 16;
};

/// Point-in-time view of one query class's error statistics. Means are
/// exact (double accumulators), not histogram-bucket approximations —
/// the golden shadow test reproduces the accuracy-regression means from
/// these to 1e-9.
struct ClassAccuracy {
  std::string label;
  uint64_t count = 0;
  double mean_signed_error = 0;  ///< mean of (est - truth) / max(truth, 1)
  double mean_abs_error = 0;     ///< mean of |est - truth| / max(truth, 1)
  double mean_qerror = 0;        ///< mean of max(e,t)/min(e,t), floored at 1
  double max_qerror = 0;
};

/// Point-in-time drift state of one synopsis.
struct SynopsisAccuracy {
  std::string name;
  uint64_t epoch = 0;    ///< registry epoch the samples belong to
  uint64_t samples = 0;  ///< shadow samples recorded in this epoch
  double ewma_qerror = 0;
  bool stale = false;
};

/// One entry of the worst-offenders ring.
struct AccuracyOffender {
  std::string synopsis;
  std::string query;
  std::string label;  ///< QueryClass::Label() of the query
  double estimate = 0;
  double truth = 0;
  double qerror = 0;
  uint64_t seq = 0;  ///< recording order, for stable display
};

/// Shared error math, pure functions like HistogramBuckets.
/// Both floor the operands at 1: workloads prune negative queries, but
/// live traffic can ask queries with zero truth or get sub-1 estimates,
/// and monitoring must not divide by zero for them.
struct AccuracyMath {
  static double QError(double estimate, double truth) {
    const double e = estimate < 1.0 ? 1.0 : estimate;
    const double t = truth < 1.0 ? 1.0 : truth;
    return e > t ? e / t : t / e;
  }
  static double SignedRelError(double estimate, double truth) {
    const double t = truth < 1.0 ? 1.0 : truth;
    return (estimate - truth) / t;
  }
};

/// The live tracker. Thread-safety: every method may be called
/// concurrently; the sampling decision is one relaxed atomic, the
/// recording path takes a mutex (it runs at 1-in-sample of traffic, off
/// the caller's critical path, so contention is structural noise).
class AccuracyTracker {
 public:
  /// Metrics register into `registry` (the owning service's): counters
  /// "accuracy.samples{phase=...}" and per-class histograms
  /// "accuracy.qerror_milli{...}" / "accuracy.error_ppm{dir=...,...}".
  /// `registry` must outlive the tracker.
  AccuracyTracker(Registry* registry, AccuracyOptions options);

  AccuracyTracker(const AccuracyTracker&) = delete;
  AccuracyTracker& operator=(const AccuracyTracker&) = delete;

  bool enabled() const { return options_.sample != 0; }
  const AccuracyOptions& options() const { return options_; }

  /// The seeded per-request sampling decision; counts `started` when
  /// true. Deterministic: the k-th call returns the same answer for
  /// equal (seed, sample) regardless of wall clock or thread timing
  /// (under concurrency, *which* request gets the k-th tick may vary,
  /// but the set of sampled ticks does not).
  bool ShouldSample();

  /// Admission of one sampled request into the bounded shadow backlog;
  /// false (counting backlog_suppressed) when max_pending are already
  /// pending. Every true must be balanced by exactly one EndShadow.
  bool TryBeginShadow();
  void EndShadow();
  uint64_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

  // Terminal accounting for a sampled request that never produced a
  // shadow result (each closes one `started`).
  void SkipNoDocument();       ///< synopsis has no registered Document
  void SuppressDeadline();     ///< request deadline expired before shadow ran
  void SkipEvalError();        ///< exact evaluator / re-parse refused the query

  /// Folds one shadow result in: exact class accumulators, class
  /// histograms, the synopsis's drift EWMA, and the offender ring.
  /// Samples carrying an epoch other than the synopsis's current drift
  /// epoch reset its state first (a re-registered synopsis starts
  /// clean). Returns the synopsis's drift state after this sample — the
  /// caller turns it into a health verdict once `samples` clears the
  /// drift_min_samples gate.
  SynopsisAccuracy Record(const std::string& synopsis, uint64_t epoch,
                          const QueryClass& cls, std::string_view query,
                          double estimate, double truth);

  /// Snapshots, each sorted for stable rendering.
  std::vector<ClassAccuracy> Classes() const;
  std::vector<SynopsisAccuracy> Synopses() const;
  std::optional<SynopsisAccuracy> SynopsisState(std::string_view name) const;
  /// Worst offenders, highest q-error first.
  std::vector<AccuracyOffender> Offenders() const;

  /// The "accuracy" section of STATSZ / the ACCZ payload: options,
  /// conservation counters, per-class stats, per-synopsis drift, and
  /// the offender ring (queries JSON-escaped).
  std::string ToJson() const;

 private:
  struct ClassState {
    uint64_t count = 0;
    double sum_signed = 0;
    double sum_abs = 0;
    double sum_qerror = 0;
    double max_qerror = 0;
    Histogram* qerror_milli = nullptr;
    Histogram* over_ppm = nullptr;
    Histogram* under_ppm = nullptr;
  };
  struct DriftState {
    uint64_t epoch = 0;
    uint64_t samples = 0;
    double ewma = 0;
    bool stale = false;
  };

  AccuracyOptions options_;
  Registry* registry_;

  Counter& started_;
  Counter& recorded_;
  Counter& skipped_no_document_;
  Counter& deadline_suppressed_;
  Counter& backlog_suppressed_;
  Counter& eval_error_;

  std::atomic<uint64_t> tick_{0};
  std::atomic<uint64_t> pending_{0};

  mutable std::mutex mu_;
  std::map<std::string, ClassState> classes_;       // guarded by mu_
  std::map<std::string, DriftState> drift_;         // guarded by mu_
  std::vector<AccuracyOffender> offenders_;         // guarded by mu_
  uint64_t offender_seq_ = 0;                       // guarded by mu_
};

}  // namespace xee::obs

#endif  // XEE_OBS_ACCURACY_H_
