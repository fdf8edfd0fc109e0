#ifndef XEE_SERVICE_SERVICE_H_
#define XEE_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/lanes.h"
#include "common/sharded_lru.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/accuracy.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "xpath/query.h"
#include "service/maintenance.h"
#include "service/service_stats.h"
#include "service/synopsis_registry.h"

namespace xee::service {

/// Construction knobs for EstimationService.
struct ServiceOptions {
  /// Byte budget of the answer cache (DESIGN.md §7; 0 effectively
  /// disables caching: every Put immediately evicts down to one entry
  /// per shard). The name predates the cache holding answers only.
  size_t plan_cache_bytes = 8ull << 20;
  /// Answer-cache shard count (contention vs. bookkeeping overhead).
  size_t cache_shards = 8;
  /// Worker threads for EstimateBatch (the calling thread works its
  /// batch alongside them) and shadow evaluation; 0 = hardware
  /// concurrency.
  size_t threads = 0;
  /// Admission control: maximum requests estimating at once (single
  /// calls and batch members combined). Excess requests are shed
  /// immediately with kOverloaded and a retry-after hint instead of
  /// queueing without bound. 0 = unbounded (the historical behavior).
  size_t max_inflight = 0;
  /// Base of the retry-after hint attached to shed requests; shedding
  /// under deeper overload hints proportionally longer waits. Clients
  /// feed the hint to Backoff::NextDelayMs (common/backoff.h).
  uint32_t retry_after_ms = 2;
  /// Capacity of the recent-trace ring buffer (per-request stage
  /// breakdowns, exported via TRACEZ). 0 disables the ring (timed
  /// requests still feed the latency histograms).
  size_t trace_capacity = 128;
  /// Time 1-in-N requests (1 = every request, 0 = never). The sampling
  /// decision gates *all* per-request timing — the stage timers, the
  /// request histogram, and the trace ring — so the unsampled hot path
  /// does no clock reads at all (a warm cache hit costs ~1µs; a single
  /// clock read is ~3% of that). Counters are never sampled: request /
  /// outcome / cache counts stay exact. The latency histograms are
  /// unbiased 1-in-N samples of the distribution; their `count` is the
  /// number of timed requests, not total requests.
  size_t trace_sample = 16;
  /// Timed requests at or above this wall time classify as "slow" and
  /// are retained in the trace ring's tail buffer. 0 disables slow
  /// capture. Untimed requests can't be detected as slow — set
  /// trace_sample = 1 to make slow capture exhaustive.
  uint64_t slow_trace_ns = 10'000'000;  // 10ms
  /// Shadow-evaluate 1-in-N successful full-fidelity requests against
  /// the synopsis's registered ground-truth Document (obs/accuracy.h,
  /// DESIGN.md §11). 1 = every request, 0 = off. The shadow runs on the
  /// worker pool after the caller's answer is complete — it never
  /// delays the reply — and never fires for shed, degraded, or failed
  /// requests.
  size_t accuracy_sample = 256;
  /// Seed of the shadow-sampling decision; fixed seed + fixed request
  /// sequence = same sampled positions (tests pin this).
  uint64_t accuracy_seed = 0xacc5eed;
  /// A synopsis whose shadow q-error EWMA exceeds this turns `stale`.
  double drift_qerror_limit = 2.0;
  /// ...but only after this many shadow samples of its current epoch.
  uint64_t drift_min_samples = 32;
  /// Bound on queued + running shadow evaluations; samples beyond it
  /// are dropped (backlog_suppressed), so a slow oracle can never grow
  /// an unbounded queue behind real traffic.
  size_t accuracy_max_pending = 64;
  /// Worst-offenders ring capacity (top-K sampled queries by q-error).
  size_t accuracy_offenders = 16;
  /// Escalation policy for a `stale` synopsis. Default (false) is
  /// report-only: health shows in healthz/ACCZ/statsz but answers are
  /// untouched. When true, answers from a stale synopsis carry PR 3's
  /// degraded semantics: tagged degraded when the request allows it,
  /// refused with kUnavailable when it insists on full fidelity.
  bool stale_downgrade = false;

  /// Self-healing (DESIGN.md §14): when a *live* synopsis (one
  /// registered through RegisterLive) is convicted stale — by the
  /// shadow-sampled drift EWMA or by exhausting its patch-error budget
  /// — automatically schedule a background rebuild. Off by default,
  /// like stale_downgrade: observability first, policy opt-in.
  bool auto_rebuild = false;
  /// Patch-error budget of live synopses, as a fraction of the
  /// document: once the accumulated error of incremental patching
  /// crosses it, the snapshot is marked stale and (under auto_rebuild)
  /// a rebuild is scheduled.
  double patch_error_budget = 0.05;
  /// Per-tag staleness tolerance below which a dirty histogram is left
  /// un-rebuilt on the delta path (see delta::PatchOptions). 0 = always
  /// rebuild dirty histograms from the exact maintained rows.
  double patch_tolerance = 0.0;
  /// Rebuild retry budget under rebuild.alloc-style failures, and the
  /// restart budget when the document moves mid-build.
  size_t rebuild_max_retries = 3;
  size_t rebuild_max_restarts = 3;
  /// Initial delay of the jittered-exponential rebuild retry backoff.
  uint64_t rebuild_backoff_ms = 1;
  /// Attach a materialized ground-truth document to every snapshot a
  /// live synopsis publishes, so shadow sampling keeps auditing the
  /// patched estimates (one document copy per publish).
  bool live_truth = true;

  // --- Flight-data observability (DESIGN.md §16) ---

  /// Sampling interval of the time-series store; 0 disables the store
  /// (and with it the SLO engine). Samples are taken by ObsTick, which
  /// a driver must call — the server spawns a wall-clock scrape thread,
  /// the traffic simulator feeds virtual time; the service itself never
  /// reads a clock for this.
  uint64_t ts_interval_us = 1'000'000;
  /// Points retained per time series (the ring size).
  size_t ts_retention = 240;
  /// Distinct-series bound of the store (cardinality guard).
  size_t ts_max_series = 512;
  /// Per-tenant (synopsis-name) metric dimension: the first tenant_max
  /// distinct names get their own requests/shed/hit counters and
  /// latency histogram ("tenant.requests{tenant=NAME}", ...); later
  /// names share one "__other__" overflow slot, so hostile name
  /// cardinality cannot grow the registry. 0 disables the dimension.
  size_t tenant_max = 32;
  /// Declarative SLOs evaluated by ObsTick over the time-series (see
  /// obs/slo.h and DefaultSloSpecs below); empty = no SLO engine. (The
  /// explicit `{}` initializers here and on QueryRequest::deadline let
  /// designated and positional initializers omit the member without
  /// -Wmissing-field-initializers.)
  std::vector<obs::SloSpec> slos{};
  /// Byte budget of the black-box flight recorder (obs/flight.h);
  /// 0 disables it.
  size_t flight_bytes = 64 * 1024;
  /// Tail-based trace retention: requests whose completion outcome
  /// classifies as shed / deadline / error / pruned / degraded / slow
  /// are recorded in the trace ring's tail buffer regardless of the
  /// head sample (trace_sample). Each retained record bumps
  /// "service.trace.tail{class=...}", so retention is auditable by
  /// conservation: traces().tail_recorded() == the sum over classes.
  bool tail_retention = true;

  /// `threads` with the 0 = hardware default resolved, clamped to >= 1
  /// (hardware_concurrency() may legitimately report 0).
  size_t ResolvedThreads() const {
    return threads == 0 ? ThreadPool::DefaultThreads()
                        : (threads < 1 ? 1 : threads);
  }
};

/// One estimation request against a registered synopsis.
struct QueryRequest {
  std::string synopsis;  ///< registry name
  std::string xpath;     ///< XPath expression (whitespace tolerated)
  /// Per-request deadline; infinite by default. A request arriving
  /// already expired is rejected in O(1) — no snapshot, parse, or join.
  Deadline deadline{};
  /// Permit degraded answers: when order statistics are missing or the
  /// deadline cannot fit the full computation, serve the order-free
  /// estimate (tagged degraded) instead of failing. When false, such
  /// requests fail with kUnavailable / kDeadlineExceeded.
  bool allow_degraded = true;
};

/// A request's result plus its serving metadata. Convenience accessors
/// make it drop-in for call sites that treated the old Result<double>
/// return as a value-or-status.
struct EstimateOutcome {
  Result<double> estimate{0.0};
  /// The estimate ignored the query's order constraints (missing or
  /// quarantined order statistics, or a deadline-forced fallback).
  bool degraded = false;
  /// Shed by admission control before any work ran (status is
  /// kOverloaded; retry_after_ms carries the hint).
  bool shed = false;
  /// Answered 0 by the static analyzer's satisfiability proof — no path
  /// join or formula ran. The number (exactly 0.0) is what the full
  /// pipeline would have produced; prune verdicts are epoch-keyed, so a
  /// synopsis swap re-validates them.
  bool pruned = false;
  /// Suggested client wait before retrying a shed request.
  uint32_t retry_after_ms = 0;

  bool ok() const { return estimate.ok(); }
  double value() const { return estimate.value(); }
  Status status() const { return estimate.status(); }
};

/// The standard SLO set the server's --slo-* flags configure:
/// availability = 1 - (shed + deadline) / requests against
/// `availability_objective` (skipped when <= 0), request p99 latency
/// against `p99_objective_ns` (skipped when 0), and the worst
/// shadow-sampled q-error EWMA against `qerror_objective` (skipped when
/// <= 0). Threshold-style specs use burn thresholds of 1.0 ("at the
/// objective"); availability keeps obs::SloSpec's fast/slow-page split.
std::vector<obs::SloSpec> DefaultSloSpecs(double availability_objective,
                                          uint64_t p99_objective_ns,
                                          double qerror_objective);

/// `opt` with every instrumentation surface that can be switched off
/// switched off: no request timing and no trace ring (trace_sample =
/// trace_capacity = 0, so no tail retention either), no shadow
/// sampling, no time-series store or SLO engine, no per-tenant
/// dimension and no flight recorder. Counters stay exact (they are
/// never sampled). Served answers are the same bits as under `opt`;
/// the obs-overhead bench arm and the obs differential test use this.
ServiceOptions ObsMinimal(ServiceOptions opt);

/// Bounded per-tenant (synopsis-name) metric slots (DESIGN.md §16). The
/// first `max` distinct tenant names each get their own counter rows
/// and latency histogram in the service registry; every later name
/// shares one "__other__" overflow slot, so per-tenant observability
/// has a hard cardinality ceiling no traffic mix can exceed.
///
/// The counts themselves live in single-writer lanes (xee::Lanes), not
/// registry counters: each tenant owns a few cache-line cells, a thread
/// claims one on first contact, and from then on its increments are
/// plain relaxed load/store pairs on an L1-resident line — no lock-
/// prefixed RMW on the request path (the difference is about half the
/// obs layer's per-request cost, see bench "service_obs2"). The
/// registry's tenant.* rows are derived counters that sum the lanes at
/// read time, so every read surface (CounterValue, Rows, statsz, the
/// time-series scrape) sees exact totals. Threads past the lane count
/// fall back to a shared fetch_add lane; nothing is ever lost.
class TenantTable {
 public:
  /// One tenant's counts; Lanes gives each writing thread its own
  /// cache line of them.
  struct Counts {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> plan_hits{0};
  };
  using CountLanes = Lanes<Counts>;

  struct Slots {
    CountLanes counts;
    obs::Histogram* request_ns = nullptr;  ///< tenant.request_ns{tenant=X}
    /// The tenant name's flight-recorder intern id (kOverflowId when no
    /// recorder was passed to Get).
    uint32_t flight_id = obs::FlightRecorder::kOverflowId;
  };

  /// A thread's view of one tenant: the slots plus the lane this thread
  /// owns (nullptr when it lost the lane race and writes through the
  /// shared fallback). Returned by Get and memoized per thread.
  struct Handle {
    Slots* slots = nullptr;
    CountLanes::Lane* lane = nullptr;

    explicit operator bool() const { return slots != nullptr; }

    /// Bumps one count, e.g. h.Inc(&TenantTable::Counts::requests).
    void Inc(CountLanes::Field field) const {
      slots->counts.Bump(lane, field);
    }
  };

  /// `registry` must outlive the table — and reads of the registry's
  /// tenant.* rows must not outlive the table, since the derived rows
  /// registered here read lane cells the table owns.
  /// `max` == 0 disables the dimension: Get always returns a null
  /// handle.
  TenantTable(obs::Registry* registry, size_t max);

  TenantTable(const TenantTable&) = delete;
  TenantTable& operator=(const TenantTable&) = delete;

  /// The handle for `tenant`, created on first sight (the shared
  /// overflow slot once `max` names exist). `flight` may be null; when
  /// set, the tenant name is interned once and cached. Slots pointers
  /// are stable for the table's lifetime. Always null when `max` is 0
  /// (ServiceOptions::tenant_max = 0 switches the tenant lanes off).
  ///
  /// Warm-path cost: a per-thread memo of the last (tenant, handle)
  /// pair answers the common same-tenant-again case with one string
  /// compare — no lock, no hash, and the lane claim already resolved.
  /// Only a memo miss takes the shared lock and the map probe.
  Handle Get(const std::string& tenant, obs::FlightRecorder* flight);

  /// Distinct tenant slots created (excluding the overflow slot).
  size_t size() const;

 private:
  Slots* MakeSlots(const std::string& label_name,
                   obs::FlightRecorder* flight);

  obs::Registry* registry_;
  const size_t max_;
  /// Distinguishes this table from any other (including one later
  /// constructed at the same address) in the thread-local lookup memo —
  /// see Get.
  const uint64_t gen_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Slots>>
      slots_;                        // guarded by mu_
  std::unique_ptr<Slots> overflow_;  // guarded by mu_
};

/// The serving layer over the paper's estimator: a synopsis registry
/// (named, swappable datasets), an answer cache keyed by exact and
/// canonicalized queries, a worker pool for batch fan-out, admission
/// control with deadline enforcement, and a stats surface. Built for
/// the optimizer hot loop — the estimate for a warm query costs one
/// cache lookup instead of a parse + path join — and for staying up
/// when inputs, load, or time budgets turn hostile (DESIGN.md §9).
///
/// Thread-safety: every method may be called concurrently from any
/// thread, including registry mutations under in-flight queries (each
/// query pins its synopsis version via a refcounted snapshot). Batch
/// results are bit-identical to issuing the same calls sequentially,
/// admission permitting.
class EstimationService {
 public:
  explicit EstimationService(ServiceOptions options = {});
  ~EstimationService();

  /// Named synopses: register/swap/remove datasets here.
  SynopsisRegistry& registry() { return registry_; }
  const SynopsisRegistry& registry() const { return registry_; }

  /// Single-call fast path: runs on the caller's thread (no pool
  /// round-trip). kNotFound for an unregistered synopsis name,
  /// kUnavailable for a quarantined one, kOverloaded when admission
  /// control sheds, kDeadlineExceeded for a blown deadline.
  EstimateOutcome Estimate(const QueryRequest& request);
  EstimateOutcome Estimate(const std::string& synopsis,
                           const std::string& xpath) {
    return Estimate(QueryRequest{synopsis, xpath});
  }

  /// Runs `requests` on the calling thread and the worker pool together
  /// and blocks until every result is in. results[i] corresponds to
  /// requests[i]. Each tenant (synopsis name) is looked up once per
  /// batch, so all of one tenant's members answer from the same version
  /// even while it is swapped. Admission is decided up front for the
  /// whole batch: members beyond the in-flight budget are shed
  /// (kOverloaded, escalating retry hints) without blocking the
  /// admitted ones.
  std::vector<EstimateOutcome> EstimateBatch(
      std::span<const QueryRequest> requests);

  /// Cache outcome counters, occupancy, and per-stage latency.
  ServiceStatsSnapshot Stats() const {
    return stats_.Snap(cache_.stats());
  }

  /// This service's metrics registry (every ServiceStats counter lives
  /// here). Process-wide subsystems (estimator, thread pool, faults)
  /// report to obs::Registry::Global() instead.
  obs::Registry& obs() { return obs_; }
  const obs::Registry& obs() const { return obs_; }

  /// Recent and slow per-request traces (see ServiceOptions::
  /// trace_capacity / trace_sample / slow_trace_ns).
  obs::TraceRing& traces() { return traces_; }
  const obs::TraceRing& traces() const { return traces_; }

  /// Shadow-sampled accuracy state (see ServiceOptions::accuracy_*).
  obs::AccuracyTracker& accuracy() { return accuracy_; }
  const obs::AccuracyTracker& accuracy() const { return accuracy_; }

  /// The STATSZ payload: refreshes the answer-cache occupancy gauges and
  /// renders this service's registry as JSON (with an "accuracy"
  /// section spliced in).
  std::string StatszJson();

  /// The ACCZ payload: the accuracy tracker's JSON alone.
  std::string AccuracyJson() const { return accuracy_.ToJson(); }

  /// Driver-clocked observability tick (DESIGN.md §16): diffs synopsis
  /// epochs and rebuild states into the flight recorder, refreshes the
  /// worst-q-error gauge, takes a time-series sample when `now_us` has
  /// advanced past the scrape interval, and — when a sample was taken —
  /// re-evaluates the SLO burn-rate alerts. The server calls this from
  /// a wall-clock scrape thread; the traffic simulator feeds virtual
  /// microseconds, which makes whole alert trajectories replayable
  /// bit-for-bit. Thread-safe; concurrent ticks serialize.
  void ObsTick(uint64_t now_us);

  /// The .tsz payload: the time-series store's JSON (disabled stub when
  /// ts_interval_us == 0).
  std::string TszJson() const;
  /// The .alertz payload: the SLO engine's JSON (disabled stub when no
  /// SLOs are configured).
  std::string AlertzJson() const;
  /// The .flightz payload: the flight recorder's JSON (disabled stub
  /// when flight_bytes == 0).
  std::string FlightzJson() const;

  /// Null when the corresponding option disabled the subsystem.
  obs::TimeSeriesStore* timeseries() { return timeseries_.get(); }
  const obs::TimeSeriesStore* timeseries() const { return timeseries_.get(); }
  obs::SloEngine* slo() { return slo_.get(); }
  const obs::SloEngine* slo() const { return slo_.get(); }
  obs::FlightRecorder* flight() { return flight_.get(); }
  const obs::FlightRecorder* flight() const { return flight_.get(); }

  /// The per-tenant slot table (see ServiceOptions::tenant_max).
  TenantTable& tenants() { return tenants_; }

  /// The healthz payload, built from the registry:
  ///   {"status":"ok"|"stale","synopses":{name:{...}},"quarantined":[...]}
  std::string HealthzJson() const;

  /// Blocks until no shadow evaluations are pending (polling), or
  /// `timeout_ms` elapsed; returns whether the backlog reached zero.
  /// Tests and benches use this to observe a quiesced accuracy state.
  bool DrainShadow(uint64_t timeout_ms = 10'000) const;

  void ClearPlanCache() { cache_.Clear(); }

  size_t threads() const { return pool_.size(); }

  /// Virtual-load hooks for the traffic simulator (src/sim/): occupy /
  /// release one admission slot without running a request, so an
  /// open-loop driver can make the service see N requests in flight in
  /// *virtual* time while issuing real calls one at a time on a single
  /// thread. Hold fails (false) when the in-flight budget is exhausted;
  /// for an unbounded service (max_inflight == 0) it always "succeeds"
  /// and both calls are no-ops, matching Estimate's own admission.
  /// Callers must balance every successful Hold with exactly one
  /// Release.
  bool HoldInflightSlot() { return TryAdmit(1) == 1; }
  void ReleaseInflightSlot() { Release(1); }

  /// Registers `doc` as a *live* document: the service owns it, builds
  /// and publishes its synopsis, and keeps the published snapshot
  /// current under ApplyDelta / background rebuilds. Returns the first
  /// epoch.
  uint64_t RegisterLive(const std::string& name, xml::Document doc,
                        const estimator::SynopsisOptions& build = {});

  /// Applies a delta batch to a live synopsis: patches incrementally,
  /// publishes a new epoch (answer-cache entries for the old epoch die
  /// with it), and — when the patch-error budget is blown —
  /// marks the snapshot stale and (under auto_rebuild) schedules a
  /// rebuild. In-flight estimates are never blocked: they hold
  /// refcounted snapshots.
  Result<ApplyOutcome> ApplyDelta(const std::string& name,
                                  const delta::DocumentDelta& delta);

  /// Schedules a background rebuild of a live synopsis (reason label:
  /// "manual" from operators, "drift"/"budget" from self-healing).
  /// False for names not registered live.
  bool ScheduleRebuild(const std::string& name,
                       const std::string& reason = "manual") {
    return maint_->ScheduleRebuild(name, reason);
  }

  /// Blocks until no rebuild is in flight (or timeout); true = drained.
  bool DrainMaintenance(uint64_t timeout_ms = 10'000) {
    return maint_->DrainMaintenance(timeout_ms);
  }

  /// Maintenance state of every live synopsis (the healthz
  /// "maintenance" section).
  const MaintenanceManager& maintenance() const { return *maint_; }

 private:
  /// One answer-cache value: a finished estimate (or its deterministic
  /// error) and how it was served. Shared by its canonical entry and
  /// the exact-string aliases that reached it.
  struct CachedAnswer {
    Result<double> estimate{0.0};
    /// Computed with the order constraints dropped (DESIGN.md §9); only
    /// served to requests that allow degraded answers.
    bool degraded = false;
    /// The analyzer proved the query empty (DESIGN.md §15); the label
    /// follows the answer on hits.
    bool pruned = false;

    EstimateOutcome Outcome() const {
      EstimateOutcome out;
      out.estimate = estimate;
      out.degraded = degraded;
      out.pruned = pruned;
      return out;
    }
  };

  /// The answer cache: one per service, keyed by namespaced key
  /// strings. A request hashes each key it builds once (AnswerCache::
  /// HashOf) and carries that hash to every probe and Put of the key.
  using AnswerCache = ShardedLru<std::string, CachedAnswer>;

  /// Namespaced cache key: kind ('x' exact string / 'c' canonical /
  /// 'd' degraded order-free), synopsis epoch, and the query body.
  static std::string MakeKey(char kind, uint64_t epoch, std::string_view body);
  /// The exact-string key of `xpath` (its whitespace-stripped bytes)
  /// built into `*key`, reusing its capacity; returns the offset of the
  /// stripped text within it.
  static size_t ExactKeyInto(uint64_t epoch, std::string_view xpath,
                             std::string* key);
  /// The canonical ('c') key of the canonical query `canonical` built
  /// into `*key`, reusing its capacity; returns the offset of the
  /// serialized body within it.
  static size_t CanonicalKeyInto(uint64_t epoch, const xpath::Query& canonical,
                                 std::string* key);

  /// Files `answer` under its canonical `key` (whose hash is `hash`),
  /// charged the answer, and — when `alias` is non-null — under that
  /// exact request key (hash `alias_hash`), charged the key only.
  void CacheAnswer(const std::string& key, size_t hash,
                   const std::string* alias, size_t alias_hash,
                   std::shared_ptr<const CachedAnswer> answer);

  /// Reserves up to `want` in-flight slots; returns how many were
  /// granted (possibly 0). Never blocks.
  size_t TryAdmit(size_t want);
  void Release(size_t slots);

  /// An outcome for a shed request, with the shed counters (aggregate,
  /// by-reason attribution, retry-hint histogram, per-tenant), the
  /// flight-recorder shed event, and the tail-retained shed trace
  /// bumped as side effects. `depth` escalates the retry hint when
  /// several requests shed at once; `batch` attributes the shed to
  /// EstimateBatch tail refusal rather than single-call admission.
  EstimateOutcome ShedOutcome(const QueryRequest& req, size_t depth,
                              bool batch);

  /// The estimation ladder, run after admission. `resolved` is the
  /// registry's view of request.synopsis when the caller already holds
  /// one (a batch looks each tenant up once); null = look it up here.
  /// `lookup_ns` is the time the caller spent on that lookup, charged to
  /// the snapshot stage when this request is timed (a batch passes it to
  /// each tenant's first member and 0 to the rest).
  EstimateOutcome EstimateAdmitted(const QueryRequest& request,
                                   const NameLookup* resolved,
                                   uint64_t lookup_ns = 0);

  /// Bumps one per-request count in the calling thread's lane.
  void Count(RequestLanes::Field field) {
    stats_.lanes.Bump(stats_.lanes.Mine(), field);
  }

  /// The once-per-request sampling decision (ServiceOptions::
  /// trace_sample), ticking `lane`: true when this request should be
  /// timed end to end.
  bool ShouldTime(RequestLanes::Lane* lane);

  /// Pushes a completed request into the trace ring: head-sampled
  /// routine records (tail_class == nullptr) into the recent ring,
  /// tail-classified records into the tail ring, bumping the matching
  /// "service.trace.tail{class=...}" counter so retention conserves.
  void RecordTrace(const QueryRequest& request, const char* outcome,
                   const EstimateOutcome& out, const obs::TraceSpans& spans,
                   uint64_t total_ns, const char* tail_class);

  /// FaultInjector::FireObserver thunk: logs fired fault sites into the
  /// flight recorder (`ctx` is the EstimationService that installed it).
  static void FlightFaultObserver(void* ctx, std::string_view site,
                                  uint64_t schedule_now);

  /// Samples `out` (served from `snap`) for shadow evaluation, ticking
  /// `lane`, and, when sampled and admitted, submits the shadow task to
  /// the pool. Called after the caller-visible answer is fully formed;
  /// never blocks.
  void MaybeShadow(const QueryRequest& request, const EstimateOutcome& out,
                   const SynopsisSnapshot& snap, RequestLanes::Lane* lane);

  /// The shadow task body (pool thread): re-parse, exact-count against
  /// `truth`, record the error, feed the drift verdict back into the
  /// registry's health state.
  void ShadowEvaluate(const std::string& synopsis, const std::string& xpath,
                      const Deadline& deadline,
                      const std::shared_ptr<const GroundTruth>& truth,
                      uint64_t epoch, double estimate);

  ServiceOptions options_;
  SynopsisRegistry registry_;
  /// The answer cache (DESIGN.md §7): epoch-scoped keys, so a synopsis
  /// swap retires every old entry without touching it.
  AnswerCache cache_;
  obs::Registry obs_;  // must precede stats_/accuracy_ (handle resolution)
  ServiceStats stats_;
  obs::TraceRing traces_;
  obs::AccuracyTracker accuracy_;
  /// Flight-data members, in dependency order: the tenant table caches
  /// flight intern ids, the time-series store scrapes obs_, the SLO
  /// engine reads the time-series (reverse destruction unwinds safely).
  std::unique_ptr<obs::FlightRecorder> flight_;
  TenantTable tenants_;
  std::unique_ptr<obs::TimeSeriesStore> timeseries_;
  std::unique_ptr<obs::SloEngine> slo_;
  /// ObsTick's scrape-time diffing state: last seen epoch / rebuild
  /// state per synopsis (guarded by tick_mu_, which also serializes
  /// concurrent ticks).
  std::mutex tick_mu_;
  std::map<std::string, uint64_t> tick_epochs_;
  std::map<std::string, MaintenanceState> tick_states_;
  std::atomic<size_t> inflight_{0};
  /// Set by the destructor body before member destruction starts: the
  /// pool's drain may still run shadow tasks that schedule rebuilds,
  /// and those must run inline rather than Submit to a pool that has
  /// begun shutting down.
  std::atomic<bool> draining_{false};
  /// Constructed in the constructor body (its executor captures pool_)
  /// but declared before pool_ on purpose: queued rebuild tasks touch
  /// the manager, so the pool's destructor must drain before the
  /// manager dies.
  std::unique_ptr<MaintenanceManager> maint_;
  /// Declared last on purpose: the pool's destructor drains queued
  /// shadow and rebuild tasks, which touch accuracy_, registry_, obs_
  /// and maint_ — those must still be alive while the drain runs.
  ThreadPool pool_;
};

/// Classifies a canonicalized query into its accuracy label dimensions
/// (obs::QueryClass): order vs '//' vs child-only axis mix, chain vs
/// branch shape, predicate presence, node-count depth. Exposed so tests
/// can compute the class a query's shadow samples land under.
obs::QueryClass ClassifyQuery(const xpath::Query& canonical);

}  // namespace xee::service

#endif  // XEE_SERVICE_SERVICE_H_
