#include "service/service.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/fault.h"
#include "estimator/estimator.h"
#include "xpath/analyze.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xee::service {
namespace {

using Clock = std::chrono::steady_clock;
using obs::Stage;

/// Bookkeeping charged per answer-cache entry (list and map nodes, the
/// shared_ptr block). An exact-string alias pays only this and its key.
constexpr size_t kEntryBytes = 64;

uint64_t NsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Appends a cache key's namespace, "<kind><epoch>:" (see MakeKey).
void AppendKeyPrefix(char kind, uint64_t epoch, std::string* key) {
  key->push_back(kind);
  char digits[20];
  key->append(digits,
              std::to_chars(digits, digits + sizeof digits, epoch).ptr);
  key->push_back(':');
}

/// The canonicalize stage, timed in two segments — canonicalization,
/// then (after a canonical-key miss) the analyzer — and recorded once,
/// when the request leaves the stage's scope.
class SplitStageTimer {
 public:
  SplitStageTimer(obs::TraceSpans* spans, obs::Histogram* hist, Stage stage,
                  bool enabled)
      : spans_(spans), hist_(hist), stage_(stage), enabled_(enabled) {}
  ~SplitStageTimer() {
    if (!enabled_ || !ran_) return;
    spans_->stage_ns[static_cast<size_t>(stage_)] += ns_;
    hist_->Record(ns_);
  }
  SplitStageTimer(const SplitStageTimer&) = delete;
  SplitStageTimer& operator=(const SplitStageTimer&) = delete;

  void Start() {
    if (enabled_) start_ = Clock::now();
  }
  void Stop() {
    if (!enabled_) return;
    ns_ += NsSince(start_);
    ran_ = true;
  }

 private:
  obs::TraceSpans* spans_;
  obs::Histogram* hist_;
  Stage stage_;
  bool enabled_;
  bool ran_ = false;
  uint64_t ns_ = 0;
  Clock::time_point start_;
};

obs::AccuracyOptions MakeAccuracyOptions(const ServiceOptions& o) {
  obs::AccuracyOptions a;
  a.sample = o.accuracy_sample;
  a.seed = o.accuracy_seed;
  a.drift_qerror_limit = o.drift_qerror_limit;
  a.drift_min_samples = o.drift_min_samples;
  a.max_pending = o.accuracy_max_pending < 1 ? 1 : o.accuracy_max_pending;
  a.offender_capacity = o.accuracy_offenders;
  return a;
}

/// The flight recorder stores outcomes as small codes, not strings (no
/// allocation on the record path). The mapping is append-only: codes
/// are part of the dump surface tooling reads.
uint64_t FlightOutcomeCode(std::string_view label) {
  if (label == "exact-hit") return 1;
  if (label == "canonical-hit") return 2;
  // 3 was a retired outcome; codes are never reused.
  if (label == "miss") return 4;
  if (label == "pruned") return 5;
  if (label == "deadline") return 6;
  if (label == "quarantined") return 7;
  if (label == "not-found") return 8;
  if (label == "stale") return 9;
  if (label == "parse-error") return 10;
  if (label == "unsupported") return 11;
  if (label == "shed") return 12;
  return 0;  // "error" and anything future
}

}  // namespace

std::vector<obs::SloSpec> DefaultSloSpecs(double availability_objective,
                                          uint64_t p99_objective_ns,
                                          double qerror_objective) {
  std::vector<obs::SloSpec> specs;
  if (availability_objective > 0) {
    obs::SloSpec s;
    s.name = "availability";
    s.kind = obs::SloKind::kAvailability;
    s.objective = availability_objective;
    s.total_series = "service.requests";
    s.bad_series = {"service.outcome{reason=shed}",
                    "service.outcome{reason=deadline_exceeded}"};
    specs.push_back(std::move(s));
  }
  if (p99_objective_ns > 0) {
    obs::SloSpec s;
    s.name = "latency-p99";
    s.kind = obs::SloKind::kLatency;
    s.objective = static_cast<double>(p99_objective_ns);
    s.value_series = "service.request_ns.p99";
    s.fast_burn = 1.0;
    s.slow_burn = 1.0;
    specs.push_back(std::move(s));
  }
  if (qerror_objective > 0) {
    obs::SloSpec s;
    s.name = "accuracy-qerror";
    s.kind = obs::SloKind::kThreshold;
    // The gauge carries milli-q-error (integer gauges), so scale the
    // objective to match.
    s.objective = qerror_objective * 1000.0;
    s.value_series = "service.accuracy.worst_ewma_qerror_milli";
    s.fast_burn = 1.0;
    s.slow_burn = 1.0;
    specs.push_back(std::move(s));
  }
  return specs;
}

ServiceOptions ObsMinimal(ServiceOptions opt) {
  opt.trace_sample = 0;
  opt.trace_capacity = 0;
  opt.tail_retention = false;
  opt.accuracy_sample = 0;
  opt.ts_interval_us = 0;  // no store, so no SLO engine either
  opt.tenant_max = 0;
  opt.flight_bytes = 0;
  return opt;
}

namespace {
/// Monotonic id source for TenantTable::gen_ (memo invalidation).
std::atomic<uint64_t> g_tenant_table_gen{1};
}  // namespace

TenantTable::TenantTable(obs::Registry* registry, size_t max)
    : registry_(registry),
      max_(max),
      gen_(g_tenant_table_gen.fetch_add(1, std::memory_order_relaxed)) {}

TenantTable::Slots* TenantTable::MakeSlots(const std::string& label_name,
                                           obs::FlightRecorder* flight) {
  auto s = std::make_unique<Slots>();
  const std::string label = "tenant=" + label_name;
  // The registry rows read through to the lanes; the lanes live in the
  // Slots, which this table never erases, so the callbacks stay valid
  // as long as the table does (the service destroys the table before
  // the registry and nothing reads the registry after that).
  Slots* raw = s.get();
  registry_->RegisterDerivedCounter("tenant.requests", label, [raw] {
    return raw->counts.Sum(&Counts::requests);
  });
  registry_->RegisterDerivedCounter("tenant.shed", label, [raw] {
    return raw->counts.Sum(&Counts::shed);
  });
  registry_->RegisterDerivedCounter("tenant.errors", label, [raw] {
    return raw->counts.Sum(&Counts::errors);
  });
  registry_->RegisterDerivedCounter("tenant.plan_hits", label, [raw] {
    return raw->counts.Sum(&Counts::plan_hits);
  });
  s->request_ns = &registry_->GetHistogram("tenant.request_ns", label);
  if (flight != nullptr) s->flight_id = flight->Intern(label_name);
  return s.release();
}

TenantTable::Handle TenantTable::Get(const std::string& tenant,
                                     obs::FlightRecorder* flight) {
  if (max_ == 0) return {};
  // Warm path: the last answer this thread got from this table. Slots
  // are heap-allocated and never erased, so a memoized handle stays
  // valid for the table's lifetime; gen_ fences off hits against a
  // different (or reincarnated) table. One string compare versus a
  // shared-mutex lock plus a hashed map probe plus the lane claim —
  // the difference is measurable at serving rates (see bench
  // "service_obs2").
  struct LastLookup {
    uint64_t gen = 0;
    std::string tenant;
    Handle handle;
  };
  thread_local LastLookup last;
  if (last.gen == gen_ && last.tenant == tenant) return last.handle;
  Slots* found = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = slots_.find(tenant);
    if (it != slots_.end()) {
      found = it->second.get();
    } else if (slots_.size() >= max_ && overflow_ != nullptr) {
      found = overflow_.get();
    }
  }
  if (found == nullptr) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = slots_.find(tenant);
    if (it != slots_.end()) {
      found = it->second.get();
    } else if (slots_.size() >= max_) {
      if (overflow_ == nullptr) {
        overflow_.reset(MakeSlots("__other__", flight));
      }
      found = overflow_.get();
    } else {
      found = MakeSlots(tenant, flight);
      slots_.emplace(tenant, std::unique_ptr<Slots>(found));
    }
  }
  // Claim (or re-find) this thread's lane: an owned lane makes every
  // later increment a plain load/store. Threads past the lane count keep
  // a null lane and write through the shared fetch_add fallback.
  CountLanes::Lane* lane = found->counts.Claim();
  last.gen = gen_;
  last.tenant = tenant;
  last.handle = Handle{found, lane};
  return last.handle;
}

size_t TenantTable::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return slots_.size();
}

EstimationService::EstimationService(ServiceOptions options)
    : options_(options),
      cache_(options.plan_cache_bytes,
             options.cache_shards < 1 ? 1 : options.cache_shards),
      stats_(&obs_),
      traces_(options.trace_capacity < 1 ? 1 : options.trace_capacity,
              options.slow_trace_ns),
      accuracy_(&obs_, MakeAccuracyOptions(options)),
      tenants_(&obs_, options.tenant_max),
      pool_(options.ResolvedThreads()) {
  if (options.flight_bytes > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(options.flight_bytes);
    // Fault fires land in the black box next to the requests they
    // perturbed. One observer process-wide, last service wins; the
    // destructor unhooks only its own installation.
    FaultInjector::Global().SetFireObserver(&FlightFaultObserver, this);
  }
  if (options.ts_interval_us > 0) {
    obs::TimeSeriesOptions tso;
    tso.interval_us = options.ts_interval_us;
    tso.retention = options.ts_retention;
    tso.max_series = options.ts_max_series;
    timeseries_ = std::make_unique<obs::TimeSeriesStore>(&obs_, tso);
    timeseries_->WatchCounter("service.requests");
    timeseries_->WatchCounterPrefix("service.outcome");
    timeseries_->WatchCounterPrefix("service.shed");
    timeseries_->WatchCounterPrefix("service.trace.tail");
    timeseries_->WatchCounterPrefix("service.plan_cache");
    timeseries_->WatchCounterPrefix("tenant.");
    timeseries_->WatchCounterPrefix("slo.alert");
    timeseries_->WatchGauge("service.inflight");
    timeseries_->WatchGauge("service.accuracy.worst_ewma_qerror_milli");
    timeseries_->WatchHistogram("service.request_ns", &stats_.request_ns);
    if (!options.slos.empty()) {
      slo_ = std::make_unique<obs::SloEngine>(timeseries_.get(), &obs_,
                                              options.slos);
      slo_->SetTransitionHook([this](const obs::SloSpec& spec,
                                     obs::AlertState from, obs::AlertState to,
                                     uint64_t now_us) {
        if (flight_ != nullptr) {
          flight_->Record(obs::FlightEventType::kAlert,
                          flight_->Intern(spec.name),
                          static_cast<uint64_t>(to),
                          static_cast<uint64_t>(from), now_us);
        }
      });
    }
  }
  MaintenanceManager::Options maint;
  maint.error_budget = options.patch_error_budget;
  maint.histo_patch_tolerance = options.patch_tolerance;
  maint.attach_truth = options.live_truth;
  maint.max_retries = options.rebuild_max_retries;
  maint.max_restarts = options.rebuild_max_restarts;
  maint.backoff.initial_ms = options.rebuild_backoff_ms;
  // Constructed in the body, not the init list: the executor captures
  // pool_, which is the last-declared member.
  maint_ = std::make_unique<MaintenanceManager>(
      &registry_, &obs_, maint, [this](std::function<void()> task) {
        if (draining_.load(std::memory_order_acquire)) {
          task();  // pool is shutting down; run on the caller
        } else {
          pool_.Submit(std::move(task));
        }
      });
}

EstimationService::~EstimationService() {
  // Unhook the fault observer first: fires from pool tasks draining
  // below must not reach a flight recorder that is about to die. The
  // ctx check means a newer service's installation is left alone.
  FaultInjector::Global().ClearFireObserver(this);
  // Runs before member destruction: from here on, rebuild schedules
  // (e.g. from shadow tasks the pool drains) execute inline instead of
  // submitting to the dying pool.
  draining_.store(true, std::memory_order_release);
}

uint64_t EstimationService::RegisterLive(
    const std::string& name, xml::Document doc,
    const estimator::SynopsisOptions& build) {
  return maint_->RegisterLive(name, std::move(doc), build);
}

Result<ApplyOutcome> EstimationService::ApplyDelta(
    const std::string& name, const delta::DocumentDelta& delta) {
  Result<ApplyOutcome> out = maint_->ApplyDelta(name, delta);
  if (out.ok() && out.value().budget_exhausted && options_.auto_rebuild) {
    maint_->ScheduleRebuild(name, "budget");
  }
  return out;
}

std::string EstimationService::MakeKey(char kind, uint64_t epoch,
                                       std::string_view body) {
  std::string key;
  key.reserve(2 + 20 + body.size());
  AppendKeyPrefix(kind, epoch, &key);
  key += body;
  return key;
}

size_t EstimationService::ExactKeyInto(uint64_t epoch, std::string_view xpath,
                                       std::string* key) {
  key->clear();
  AppendKeyPrefix('x', epoch, key);
  const size_t body_at = key->size();
  xpath::AppendStripped(xpath, key);
  return body_at;
}

size_t EstimationService::CanonicalKeyInto(uint64_t epoch,
                                           const xpath::Query& canonical,
                                           std::string* key) {
  key->clear();
  AppendKeyPrefix('c', epoch, key);
  const size_t body_at = key->size();
  xpath::AppendSerializedKey(canonical, key);
  return body_at;
}

void EstimationService::CacheAnswer(
    const std::string& key, size_t hash, const std::string* alias,
    size_t alias_hash, std::shared_ptr<const CachedAnswer> answer) {
  const size_t answer_bytes =
      sizeof(CachedAnswer) +
      (answer->estimate.ok() ? 0 : answer->estimate.status().message().size());
  cache_.Put(key, hash, answer, key.size() + answer_bytes + kEntryBytes);
  if (alias != nullptr) {
    cache_.Put(*alias, alias_hash, std::move(answer),
               alias->size() + kEntryBytes);
  }
}

size_t EstimationService::TryAdmit(size_t want) {
  if (want == 0) return 0;
  // Unbounded mode tracks nothing: the inflight gauge mirrors the
  // admission budget, and with no budget there is nothing to observe
  // (and no reason to pay two atomics per request for it).
  if (options_.max_inflight == 0) return want;
  size_t cur = inflight_.load(std::memory_order_relaxed);
  while (true) {
    if (cur >= options_.max_inflight) return 0;
    const size_t grant = std::min(want, options_.max_inflight - cur);
    if (inflight_.compare_exchange_weak(cur, cur + grant,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      stats_.inflight.Add(static_cast<int64_t>(grant));
      return grant;
    }
  }
}

void EstimationService::Release(size_t slots) {
  if (slots == 0 || options_.max_inflight == 0) return;
  inflight_.fetch_sub(slots, std::memory_order_release);
  stats_.inflight.Sub(static_cast<int64_t>(slots));
}

EstimateOutcome EstimationService::ShedOutcome(const QueryRequest& req,
                                               size_t depth, bool batch) {
  stats_.shed.Inc();
  (batch ? stats_.shed_batch : stats_.shed_single).Inc();
  EstimateOutcome out;
  out.shed = true;
  // Escalate the hint with the shed depth: the more of one batch we had
  // to refuse, the deeper the overload, the longer clients should wait.
  uint64_t hint =
      static_cast<uint64_t>(options_.retry_after_ms) * (depth + 1);
  hint = std::clamp<uint64_t>(hint, 1, 1000);
  out.retry_after_ms = static_cast<uint32_t>(hint);
  stats_.retry_after_ms.Record(hint);
  out.estimate =
      Status(StatusCode::kOverloaded,
             "shed by admission control (" +
                 std::to_string(options_.max_inflight) +
                 " requests in flight); retry after " +
                 std::to_string(out.retry_after_ms) + "ms");
  // A shed is exactly the kind of request tail-based retention exists
  // for: it never reaches the timed pipeline, so record it here. The
  // per-tenant requests counter is bumped too — the caller only counts
  // the aggregate.
  const TenantTable::Handle tenant = tenants_.Get(req.synopsis, flight_.get());
  if (tenant) {
    tenant.Inc(&TenantTable::Counts::requests);
    tenant.Inc(&TenantTable::Counts::shed);
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventType::kShed,
                    tenant ? tenant.slots->flight_id
                           : obs::FlightRecorder::kOverflowId,
                    batch ? 1 : 0, hint);
  }
  if (options_.tail_retention) {
    RecordTrace(req, "shed", out, obs::TraceSpans{}, /*total_ns=*/0, "shed");
  }
  return out;
}

EstimateOutcome EstimationService::Estimate(const QueryRequest& request) {
  if (TryAdmit(1) == 0) {
    Count(&RequestCounts::requests);
    return ShedOutcome(request, 0, /*batch=*/false);
  }
  EstimateOutcome out = EstimateAdmitted(request, /*resolved=*/nullptr);
  Release(1);
  return out;
}

bool EstimationService::ShouldTime(RequestLanes::Lane* lane) {
  const size_t n = options_.trace_sample;
  if (n == 1) return true;
  if (n == 0) return false;
  return stats_.lanes.Bump(lane, &RequestCounts::trace_tick) % n == 0;
}

EstimateOutcome EstimationService::EstimateAdmitted(
    const QueryRequest& req, const NameLookup* resolved, uint64_t lookup_ns) {
  // Every per-request count and sampling tick below lands in this
  // thread's lane: a warm hit writes no line another thread writes.
  RequestLanes::Lane* const lane = stats_.lanes.Mine();
  // One sampling decision gates every clock read this request would
  // make; the unsampled path costs only a handful of lane stores (see
  // ServiceOptions::trace_sample).
  const bool timed = ShouldTime(lane);
  Clock::time_point t_request;
  if (timed) t_request = Clock::now();
  const uint64_t batch_lookup_ns = resolved != nullptr ? lookup_ns : 0;
  stats_.lanes.Bump(lane, &RequestCounts::requests);
  // The per-tenant dimension keys on the synopsis name: a per-thread
  // memo answers the warm path, stable slot pointers after.
  const TenantTable::Handle tenant = tenants_.Get(req.synopsis, flight_.get());
  if (tenant) tenant.Inc(&TenantTable::Counts::requests);

  // The request's trace: stage timers and the estimator's work counters
  // accumulate here; timed requests land in the trace ring.
  obs::TraceSpans spans;
  const char* outcome_label = "error";

  // The version this request answers from, once acquired (the shadow
  // pipeline reads its oracle and epoch), and whether the stale-
  // downgrade policy tainted this answer.
  const SynopsisSnapshot* snap = nullptr;
  bool stale_taint = false;

  EstimateOutcome out = [&]() -> EstimateOutcome {
    EstimateOutcome out;

    // Rung 0 — deadline gate. A request arriving expired costs one
    // clock read: no snapshot, no parse, no join.
    if (!req.deadline.infinite() && req.deadline.HasExpired()) {
      outcome_label = "deadline";
      out.estimate = Status(StatusCode::kDeadlineExceeded,
                            "deadline expired before estimation began");
      return out;
    }

    // Rung 1 — quarantine gate and snapshot acquire: a name whose last
    // load was rejected is deliberately out of service until a good
    // version arrives. A batch member brings its batch's lookup (and the
    // tenant's first member that lookup's time); a single call reads the
    // registry through this thread's cached view.
    if (resolved == nullptr) {
      Clock::time_point start;
      if (timed) start = Clock::now();
      resolved = &registry_.Lookup(req.synopsis);
      if (timed) lookup_ns = NsSince(start);
    }
    if (timed) {
      spans.stage_ns[static_cast<size_t>(Stage::kSnapshot)] += lookup_ns;
      stats_.StageHist(Stage::kSnapshot)->Record(lookup_ns);
    }
    if (resolved->quarantined.has_value()) {
      outcome_label = "quarantined";
      out.estimate = Status(StatusCode::kUnavailable,
                            "synopsis quarantined: " +
                                std::string(resolved->quarantined->message()));
      return out;
    }
    if (!resolved->snapshot.has_value()) {
      outcome_label = "not-found";
      out.estimate =
          Status(StatusCode::kNotFound, "unknown synopsis: " + req.synopsis);
      return out;
    }
    snap = &*resolved->snapshot;

    // Stale escalation (ServiceOptions::stale_downgrade): once shadow
    // sampling has convicted this version of drifting, its answers are
    // no longer trustworthy at full fidelity. Report-only mode leaves
    // answers alone; enforcement mode applies PR 3's degradation
    // contract — tag permissive requests degraded, refuse strict ones.
    if (options_.stale_downgrade &&
        snap->health == SynopsisHealth::kStale) {
      if (!req.allow_degraded) {
        outcome_label = "stale";
        out.estimate = Status(
            StatusCode::kUnavailable,
            "synopsis stale: shadow-sampled q-error over drift limit for: " +
                req.synopsis);
        return out;
      }
      stale_taint = true;
    }

    // Exact-string probe: a warm repeat of the very same request text
    // skips the parse as well as the estimate. The key is built in a
    // per-thread buffer and the answer copied out by value, so a hit
    // allocates nothing and touches no refcount. Degraded answers only
    // satisfy requests that accept them.
    thread_local std::string exact_key;
    const size_t body_at = ExactKeyInto(snap->epoch, req.xpath, &exact_key);
    size_t exact_hash;  // carried to the alias Put on a miss
    {
      CachedAnswer hit;
      bool found;
      {
        obs::ScopedStageTimer t(&spans, Stage::kCacheLookup,
                                stats_.StageHist(Stage::kCacheLookup), timed);
        exact_hash = AnswerCache::HashOf(exact_key);
        found = cache_.Copy(exact_key, exact_hash, &hit);
      }
      if (found && (!hit.degraded || req.allow_degraded)) {
        outcome_label = "exact-hit";
        stats_.lanes.Bump(lane, &RequestCounts::exact_hits);
        if (hit.pruned) stats_.analyzer_pruned.Inc();
        return hit.Outcome();
      }
    }

    // Parse + canonicalize, then probe under the canonical key where
    // all spellings of this query meet.
    Result<xpath::Query> parsed = [&] {
      obs::ScopedStageTimer t(&spans, Stage::kParse,
                              stats_.StageHist(Stage::kParse), timed);
      return xpath::ParseXPath(std::string_view(exact_key).substr(body_at));
    }();
    if (!parsed.ok()) {  // unbounded garbage: uncached
      outcome_label = "parse-error";
      out.estimate = parsed.status();
      return out;
    }

    SplitStageTimer canonicalize_stage(
        &spans, stats_.StageHist(Stage::kCanonicalize), Stage::kCanonicalize,
        timed);
    canonicalize_stage.Start();
    const xpath::Query canonical =
        xpath::Canonicalize(std::move(parsed).value());
    thread_local std::string canonical_key;
    const size_t canonical_body_at =
        CanonicalKeyInto(snap->epoch, canonical, &canonical_key);
    canonicalize_stage.Stop();

    // Hashes `key` into `*hash` and probes under it.
    auto probe = [&](const std::string& key, size_t* hash) {
      obs::ScopedStageTimer t(&spans, Stage::kCacheLookup,
                              stats_.StageHist(Stage::kCacheLookup), timed);
      *hash = AnswerCache::HashOf(key);
      return cache_.Get(key, *hash);
    };
    // A hit under a canonical ('c') or degraded ('d') key: another
    // spelling already computed — or pruned — this answer. `alias` also
    // files it under this request's exact string.
    auto serve_hit = [&](std::shared_ptr<const CachedAnswer> hit,
                         bool alias) {
      outcome_label = "canonical-hit";
      stats_.lanes.Bump(lane, &RequestCounts::canonical_hits);
      if (hit->pruned) stats_.analyzer_pruned.Inc();
      EstimateOutcome o = hit->Outcome();
      if (alias) {
        cache_.Put(exact_key, exact_hash, std::move(hit),
                   exact_key.size() + kEntryBytes);
      }
      return o;
    };

    // Rung 2 precondition — missing order statistics (synopsis built
    // without them, or dropped by salvage). Such a query never has a
    // full-fidelity answer on this version, so it skips the canonical
    // probe (and can never be pruned, see below).
    const bool wants_order = !canonical.orders.empty();
    const bool missing_order = wants_order && !snap->synopsis->has_order();
    size_t canonical_hash = 0;
    if (!missing_order) {
      if (std::shared_ptr<const CachedAnswer> hit =
              probe(canonical_key, &canonical_hash)) {
        return serve_hit(std::move(hit), /*alias=*/true);
      }
    }

    // Satisfiability pruning (DESIGN.md §15) after the canonical miss,
    // inside the canonicalize stage. A prune-safe unsatisfiability proof
    // answers 0 below without a join. The prune gate requires the
    // estimator to have answered exactly 0.0 itself — wildcard-order and
    // missing-order-statistics shapes keep their kUnsupported / degraded
    // surface, bit-for-bit.
    canonicalize_stage.Start();
    stats_.analyzer_checked.Inc();
    const estimator::Synopsis& syn = *snap->synopsis;
    const xpath::Analysis analysis = xpath::AnalyzeSatisfiability(
        canonical, {&syn.join_index(), &syn.tag_ids(), syn.root_tag()});
    const bool prune_now = analysis.verdict == xpath::SatVerdict::kUnsat &&
                           analysis.prune_safe && !missing_order;
    canonicalize_stage.Stop();

    // Pruned fast path: serve 0 and cache it under the epoch-scoped
    // keys (a synopsis swap re-validates the verdict).
    if (prune_now) {
      outcome_label = "pruned";
      stats_.analyzer_pruned.Inc();
      auto zero = std::make_shared<const CachedAnswer>(
          CachedAnswer{0.0, /*degraded=*/false, /*pruned=*/true});
      CacheAnswer(canonical_key, canonical_hash, &exact_key, exact_hash, zero);
      return zero->Outcome();
    }

    // Rung 2 — degrade to the order-free formulas when the request
    // permits; otherwise fail honestly. A salvaged version only affects
    // queries that carry order constraints: order-free answers are
    // bit-identical to an intact synopsis's.
    if (missing_order && !req.allow_degraded) {
      const bool order_quarantined = snap->order_quarantined;
      outcome_label = order_quarantined ? "quarantined" : "unsupported";
      out.estimate =
          order_quarantined
              ? Status(StatusCode::kUnavailable,
                       "order statistics quarantined for synopsis: " +
                           req.synopsis)
              : Status(StatusCode::kUnsupported,
                       "synopsis was built without order statistics");
      return out;
    }

    // Estimates the `kind` ('c' full fidelity / 'd' order-free degraded)
    // answer for `canonical` under the request deadline and caches it
    // under `key` — errors included, except a deadline error, which is
    // not a property of the query. `alias` also files the answer under
    // the exact request string; it is off only for a deadline-forced
    // degradation, so a later, slower request can still get the full
    // answer.
    auto compute = [&](char kind, const std::string& key, size_t key_hash,
                       bool alias) -> EstimateOutcome {
      EstimateOutcome o;
      o.degraded = kind == 'd';
      if (FaultFires(estimator::Estimator::kAllocFaultSite)) {
        o.estimate =  // transient: uncached, outcome "error"
            Status(StatusCode::kInternal, "injected allocation failure");
        return o;
      }
      xpath::Query order_free;
      if (o.degraded) {
        order_free = canonical;
        order_free.orders.clear();
      }
      const estimator::EstimateLimits limits{req.deadline, &spans, timed};
      const uint64_t join_before = spans.StageNs(Stage::kJoin);
      Clock::time_point start;
      if (timed) start = Clock::now();
      o.estimate = estimator::Estimator(*snap->synopsis)
                       .Estimate(o.degraded ? order_free : canonical, limits);
      if (timed) {
        // The estimator timed its own joins into the span; the rest of
        // the call is the formulas (Theorem 4.1, Eqs. 2-5, rewrites).
        const uint64_t join_ns = spans.StageNs(Stage::kJoin) - join_before;
        const uint64_t formula_ns = NsSince(start) - join_ns;
        spans.stage_ns[static_cast<size_t>(Stage::kFormula)] += formula_ns;
        stats_.StageHist(Stage::kJoin)->Record(join_ns);
        stats_.StageHist(Stage::kFormula)->Record(formula_ns);
      }
      if (o.estimate.status().code() == StatusCode::kDeadlineExceeded) {
        outcome_label = "deadline";
        return o;
      }
      outcome_label = "miss";
      stats_.lanes.Bump(lane, &RequestCounts::misses);
      auto answer = std::make_shared<const CachedAnswer>(
          CachedAnswer{o.estimate, o.degraded, /*pruned=*/false});
      CacheAnswer(key, key_hash, alias ? &exact_key : nullptr, exact_hash,
                  std::move(answer));
      return o;
    };
    // The order-free answer, from the cache or computed.
    auto serve_degraded = [&](bool alias) -> EstimateOutcome {
      const std::string key =
          MakeKey('d', snap->epoch,
                  std::string_view(canonical_key).substr(canonical_body_at));
      size_t key_hash;
      if (std::shared_ptr<const CachedAnswer> hit = probe(key, &key_hash)) {
        return serve_hit(std::move(hit), alias);
      }
      return compute('d', key, key_hash, alias);
    };

    if (missing_order) return serve_degraded(/*alias=*/true);
    EstimateOutcome full =
        compute('c', canonical_key, canonical_hash, /*alias=*/true);
    // Rung 3 — deadline-forced fallback: the full computation did not
    // fit, but the (much cheaper) order-free one might still make it.
    if (full.estimate.status().code() == StatusCode::kDeadlineExceeded &&
        req.allow_degraded && wants_order && !req.deadline.HasExpired()) {
      return serve_degraded(/*alias=*/false);
    }
    return full;
  }();

  // "Degraded" describes an answer actually served; failures are just
  // failures.
  out.degraded = out.degraded && out.estimate.ok();
  // Shadow eligibility is judged before the stale taint lands: a taint
  // changes the answer's labeling, not its numbers, and the one synopsis
  // already convicted of drifting is the one that must keep being
  // audited (otherwise enforcement mode would freeze its own evidence).
  const bool shadow_eligible = out.estimate.ok() && !out.degraded;
  if (stale_taint && out.estimate.ok()) out.degraded = true;
  switch (out.estimate.status().code()) {
    case StatusCode::kDeadlineExceeded:
      stats_.deadline_exceeded.Inc();
      break;
    case StatusCode::kUnavailable:
      stats_.quarantined.Inc();
      break;
    default:
      break;
  }
  if (out.degraded) stats_.degraded.Inc();
  const std::string_view ol = outcome_label;
  if (tenant) {
    if (!out.estimate.ok()) {
      tenant.Inc(&TenantTable::Counts::errors);
    } else if (ol == "exact-hit" || ol == "canonical-hit") {
      tenant.Inc(&TenantTable::Counts::plan_hits);
    }
  }
  // Tail-based retention (DESIGN.md §16): the keep decision runs at
  // completion, when the outcome is known. One class per request, in
  // precedence order; "slow" needs the wall time, so it is judged
  // below, only for timed requests.
  const char* tail_class = nullptr;
  if (options_.tail_retention) {
    if (out.estimate.status().code() == StatusCode::kDeadlineExceeded) {
      tail_class = "deadline";
    } else if (!out.estimate.ok()) {
      tail_class = "error";
    } else if (out.pruned) {
      tail_class = "pruned";
    } else if (out.degraded) {
      tail_class = "degraded";
    }
  }
  uint64_t total_ns = 0;
  if (timed) {
    // A batch's lookup ran on this request's behalf before its clock
    // started: count it in the wall time as in the snapshot stage.
    total_ns = NsSince(t_request) + batch_lookup_ns;
    stats_.request_ns.Record(total_ns);
    if (tenant) tenant.slots->request_ns->Record(total_ns);
    if (tail_class == nullptr && options_.tail_retention &&
        traces_.IsSlow(total_ns)) {
      tail_class = "slow";
    }
  }
  if (timed || tail_class != nullptr) {
    RecordTrace(req, outcome_label, out, spans, total_ns, tail_class);
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventType::kRequest,
                    tenant ? tenant.slots->flight_id
                           : obs::FlightRecorder::kOverflowId,
                    FlightOutcomeCode(ol), total_ns);
  }
  if (shadow_eligible) MaybeShadow(req, out, *snap, lane);
  return out;
}

void EstimationService::MaybeShadow(const QueryRequest& req,
                                    const EstimateOutcome& out,
                                    const SynopsisSnapshot& snap,
                                    RequestLanes::Lane* lane) {
  if (!accuracy_.enabled()) return;
  // The sampling tick advances once per *eligible* request (full-
  // fidelity success), so "1-in-N" means 1-in-N auditable answers.
  if (!accuracy_.ShouldSample(
          stats_.lanes.Bump(lane, &RequestCounts::shadow_tick))) {
    return;
  }
  if (snap.truth == nullptr) {
    accuracy_.SkipNoDocument();
    return;
  }
  if (!accuracy_.TryBeginShadow()) return;  // counted backlog_suppressed
  // Everything the shadow needs is captured by value / shared_ptr: the
  // task may outlive the request, the snapshot, and even the synopsis's
  // registration. EndShadow is balanced on every exit path of the task.
  pool_.Submit([this, synopsis = req.synopsis, xpath = req.xpath,
                deadline = req.deadline, truth = snap.truth,
                epoch = snap.epoch, estimate = out.estimate.value()]() {
    ShadowEvaluate(synopsis, xpath, deadline, truth, epoch, estimate);
    accuracy_.EndShadow();
  });
}

void EstimationService::ShadowEvaluate(
    const std::string& synopsis, const std::string& xpath,
    const Deadline& deadline, const std::shared_ptr<const GroundTruth>& truth,
    uint64_t epoch, double estimate) {
  // The caller's answer has long been returned; the deadline check here
  // implements the contract that no work attributable to a request runs
  // past its deadline (and bounds shadow debt under a backlog).
  if (!deadline.infinite() && deadline.HasExpired()) {
    accuracy_.SuppressDeadline();
    return;
  }
  // Re-parse off the hot path rather than copying the canonical query
  // into every request on the 255-in-256 chance it is not sampled (the
  // hot path for a warm exact-hit never parses at all).
  Result<xpath::Query> parsed =
      xpath::ParseXPath(xpath::StripWhitespace(xpath));
  if (!parsed.ok()) {
    accuracy_.SkipEvalError();
    return;
  }
  const xpath::Query canonical = xpath::Canonicalize(parsed.value());
  Result<uint64_t> truth_count = truth->evaluator.Count(canonical);
  if (!truth_count.ok()) {
    accuracy_.SkipEvalError();
    return;
  }
  const obs::SynopsisAccuracy drift = accuracy_.Record(
      synopsis, epoch, ClassifyQuery(canonical), xpath, estimate,
      static_cast<double>(truth_count.value()));
  // Below the sample gate the verdict stays kUnknown — flapping to
  // "healthy" off one lucky sample would be as wrong as flapping to
  // "stale" off one unlucky one.
  if (drift.samples >= accuracy_.options().drift_min_samples) {
    const bool applied =
        registry_.MarkHealth(synopsis, epoch,
                             drift.stale ? SynopsisHealth::kStale
                                         : SynopsisHealth::kHealthy);
    // Self-healing: a drift conviction of the *current* version of a
    // live synopsis schedules its rebuild (no-op for names not
    // registered live; repeat convictions coalesce into the in-flight
    // rebuild).
    if (applied && drift.stale && options_.auto_rebuild) {
      maint_->ScheduleRebuild(synopsis, "drift");
    }
  }
}

bool EstimationService::DrainShadow(uint64_t timeout_ms) const {
  const auto give_up =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (accuracy_.pending() != 0) {
    if (Clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

obs::QueryClass ClassifyQuery(const xpath::Query& canonical) {
  obs::QueryClass cls;
  cls.order = !canonical.orders.empty();
  cls.depth = static_cast<int>(canonical.nodes.size());
  // A root-anywhere query starts with an implicit '//' step.
  cls.descendant = canonical.root_mode == xpath::RootMode::kAnywhere;
  for (size_t i = 0; i < canonical.nodes.size(); ++i) {
    const xpath::QueryNode& node = canonical.nodes[i];
    if (i != 0 && node.axis == xpath::StructAxis::kDescendant) {
      cls.descendant = true;
    }
    if (node.children.size() >= 2) cls.branched = true;
    if (node.value_filter.has_value()) cls.predicate = true;
  }
  return cls;
}

void EstimationService::RecordTrace(const QueryRequest& req,
                                    const char* outcome,
                                    const EstimateOutcome& out,
                                    const obs::TraceSpans& spans,
                                    uint64_t total_ns,
                                    const char* tail_class) {
  if (options_.trace_capacity == 0) return;
  // The class counter is bumped exactly when a record enters the tail
  // ring (capacity gate above, routing in TraceRing::Record), so
  // traces().tail_recorded() == sum of the class counters — the
  // conservation tail_retention_test pins.
  if (tail_class != nullptr) stats_.TailCounter(tail_class).Inc();
  obs::TraceRecord rec;
  rec.total_ns = total_ns;
  rec.spans = spans;
  rec.synopsis = req.synopsis;
  rec.query = req.xpath;
  rec.outcome = outcome;
  rec.degraded = out.degraded;
  if (tail_class != nullptr) rec.tail_class = tail_class;
  traces_.Record(std::move(rec));
}

void EstimationService::FlightFaultObserver(void* ctx, std::string_view site,
                                            uint64_t schedule_now) {
  auto* self = static_cast<EstimationService*>(ctx);
  self->flight_->Record(obs::FlightEventType::kFaultFire,
                        self->flight_->Intern(site), schedule_now, 0);
}

void EstimationService::ObsTick(uint64_t now_us) {
  std::lock_guard<std::mutex> lock(tick_mu_);
  if (flight_ != nullptr) {
    // Epoch bumps and rebuild transitions, detected by diffing the
    // registry / maintenance views against the last tick. Transitions
    // between ticks coalesce to the latest state — the black box
    // records the trajectory at scrape granularity, the ledger counters
    // in healthz stay exact.
    for (const SynopsisHealthRow& row : registry_.HealthRows()) {
      uint64_t& last = tick_epochs_[row.name];
      if (row.epoch != last) {
        flight_->Record(obs::FlightEventType::kEpochBump,
                        flight_->Intern(row.name), row.epoch, last, now_us);
        last = row.epoch;
      }
    }
    for (const MaintenanceRow& row : maint_->Rows()) {
      MaintenanceState& last = tick_states_[row.name];
      if (row.state != last) {
        flight_->Record(obs::FlightEventType::kRebuild,
                        flight_->Intern(row.name),
                        static_cast<uint64_t>(row.state), row.epoch, now_us);
        last = row.state;
      }
    }
  }
  if (timeseries_ == nullptr) return;
  // Refresh the gauge the accuracy-threshold SLO reads (milli-q-error:
  // gauges are integral). Worst across synopses: one drifting tenant
  // should burn the SLO even when the fleet average looks fine.
  double worst = 0;
  for (const obs::SynopsisAccuracy& s : accuracy_.Synopses()) {
    worst = std::max(worst, s.ewma_qerror);
  }
  obs_.GetGauge("service.accuracy.worst_ewma_qerror_milli")
      .Set(static_cast<int64_t>(worst * 1000.0));
  if (timeseries_->Sample(now_us) && slo_ != nullptr) {
    slo_->Evaluate(now_us);
  }
}

std::string EstimationService::TszJson() const {
  if (timeseries_ == nullptr) {
    return "{\"enabled\":false,\"samples\":0,\"series\":{}}";
  }
  return timeseries_->ToJson();
}

std::string EstimationService::AlertzJson() const {
  if (slo_ == nullptr) {
    return "{\"enabled\":false,\"evaluations\":0,\"alerts\":[]}";
  }
  return slo_->ToJson();
}

std::string EstimationService::FlightzJson() const {
  if (flight_ == nullptr) {
    return "{\"enabled\":false,\"recorded\":0,\"capacity\":0,\"events\":[]}";
  }
  return flight_->ToJson();
}

std::string EstimationService::StatszJson() {
  // The LRU keeps its own counters; mirror them into gauges at export
  // time so STATSZ is one self-contained document.
  const LruStats cache = cache_.stats();
  obs_.GetGauge("service.plan_cache.entries")
      .Set(static_cast<int64_t>(cache.entries));
  obs_.GetGauge("service.plan_cache.bytes")
      .Set(static_cast<int64_t>(cache.bytes));
  obs_.GetGauge("service.plan_cache.evictions")
      .Set(static_cast<int64_t>(cache.evictions));
  // Splice the accuracy section in as a fourth top-level key, keeping
  // the registry's counters/gauges/histograms rendering untouched.
  std::string j = obs_.ToJson();
  std::string spliced = ",\"accuracy\":";
  spliced += accuracy_.ToJson();
  j.insert(j.size() - 1, spliced);
  return j;
}

std::string EstimationService::HealthzJson() const {
  const std::vector<SynopsisHealthRow> rows = registry_.HealthRows();
  const std::vector<std::pair<std::string, Status>> quarantined =
      registry_.QuarantinedNames();

  bool any_stale = false;
  for (const SynopsisHealthRow& row : rows) {
    if (row.health == SynopsisHealth::kStale) any_stale = true;
  }
  std::string j = "{\"status\":\"";
  j += any_stale ? "stale" : "ok";
  j += "\",\"synopses\":{";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SynopsisHealthRow& row = rows[i];
    if (i != 0) j += ",";
    j += "\"";
    j += obs::JsonEscape(row.name);
    j += "\":{\"epoch\":";
    j += std::to_string(row.epoch);
    j += ",\"health\":\"";
    j += SynopsisHealthName(row.health);
    j += "\",\"order_quarantined\":";
    j += row.order_quarantined ? "true" : "false";
    j += ",\"has_truth\":";
    j += row.has_truth ? "true" : "false";
    j += "}";
  }
  j += "},\"quarantined\":[";
  for (size_t i = 0; i < quarantined.size(); ++i) {
    if (i != 0) j += ",";
    j += "\"";
    j += obs::JsonEscape(quarantined[i].first);
    j += "\"";
  }
  j += "],\"maintenance\":{";
  const std::vector<MaintenanceRow> maint = maint_->Rows();
  for (size_t i = 0; i < maint.size(); ++i) {
    const MaintenanceRow& row = maint[i];
    if (i != 0) j += ",";
    j += "\"";
    j += obs::JsonEscape(row.name);
    j += "\":{\"state\":\"";
    j += MaintenanceStateName(row.state);
    j += "\",\"epoch\":";
    j += std::to_string(row.epoch);
    j += ",\"patch_error\":";
    j += std::to_string(row.patch_error);
    j += ",\"budget_exhausted\":";
    j += row.budget_exhausted ? "true" : "false";
    j += ",\"deltas_applied\":";
    j += std::to_string(row.deltas_applied);
    j += ",\"deltas_rejected\":";
    j += std::to_string(row.deltas_rejected);
    j += ",\"rebuilds\":{\"scheduled\":";
    j += std::to_string(row.rebuilds_scheduled);
    j += ",\"completed\":";
    j += std::to_string(row.rebuilds_completed);
    j += ",\"retried\":";
    j += std::to_string(row.rebuilds_retried);
    j += ",\"restarted\":";
    j += std::to_string(row.rebuilds_restarted);
    j += ",\"abandoned\":";
    j += std::to_string(row.rebuilds_abandoned);
    j += ",\"coalesced\":";
    j += std::to_string(row.rebuilds_coalesced);
    j += "}}";
  }
  // The SLO alert roll-up: operators watching healthz see burn-rate
  // state without fetching .alertz.
  j += "},\"alerts\":[";
  if (slo_ != nullptr) {
    const std::vector<obs::AlertStatus> alerts = slo_->Alerts();
    for (size_t i = 0; i < alerts.size(); ++i) {
      const obs::AlertStatus& a = alerts[i];
      if (i != 0) j += ",";
      j += "{\"slo\":\"";
      j += obs::JsonEscape(a.slo);
      j += "\",\"state\":\"";
      j += obs::AlertStateName(a.state);
      j += "\",\"fired\":";
      j += std::to_string(a.fired);
      j += ",\"resolved\":";
      j += std::to_string(a.resolved);
      j += "}";
    }
  }
  j += "]}";
  return j;
}

std::vector<EstimateOutcome> EstimationService::EstimateBatch(
    std::span<const QueryRequest> requests) {
  stats_.batches.Inc();
  const size_t n = requests.size();
  std::vector<EstimateOutcome> results(n);

  // Admission is decided for the whole batch up front: the in-flight
  // budget admits a prefix, the rest shed immediately with escalating
  // retry hints. Deciding before any work runs keeps shedding
  // deterministic (it cannot depend on how fast admitted members
  // finish) and never blocks admitted work behind refused work.
  const size_t admitted = TryAdmit(n);
  for (size_t i = admitted; i < n; ++i) {
    Count(&RequestCounts::requests);
    results[i] = ShedOutcome(requests[i], i - admitted, /*batch=*/true);
  }
  if (admitted == 0) return results;

  // One registry lookup per (batch, tenant), on the caller: every member
  // of a tenant answers from the same version, so a concurrent swap can
  // never split one tenant's members across epochs, and the members
  // themselves touch no registry state. Each lookup's time is charged
  // to its tenant's first member in batch order (two clock reads per
  // tenant), so the snapshot stage of a timed batch is not lost.
  std::vector<NameLookup> lookups;
  std::vector<uint32_t> lookup_of(admitted);
  std::vector<uint64_t> lookup_ns(admitted, 0);
  {
    std::unordered_map<std::string_view, uint32_t> index;
    for (size_t i = 0; i < admitted; ++i) {
      const std::string& name = requests[i].synopsis;
      if (i != 0 && name == requests[i - 1].synopsis) {
        lookup_of[i] = lookup_of[i - 1];
        continue;
      }
      const auto [it, fresh] =
          index.try_emplace(name, static_cast<uint32_t>(lookups.size()));
      if (fresh) {
        const Clock::time_point start = Clock::now();
        lookups.push_back(registry_.Lookup(name));
        lookup_ns[i] = NsSince(start);
      }
      lookup_of[i] = it->second;
    }
  }
  auto run = [&](size_t i) {
    results[i] =
        EstimateAdmitted(requests[i], &lookups[lookup_of[i]], lookup_ns[i]);
  };
  if (admitted <= 1 || pool_.size() <= 1) {
    for (size_t i = 0; i < admitted; ++i) run(i);
  } else {
    pool_.ParallelFor(admitted, run);
  }
  Release(admitted);
  return results;
}

}  // namespace xee::service
