// The four workloads of the xee benchmark. All of them drive one
// EstimationService under default ServiceOptions with three tenants (the
// ssplays, dblp and xmark synopses), and every request is a query of the
// paper's Section 7 workload of its tenant's dataset, sent under its own
// spelling or under an axis-expanded respelling. Where a workload models
// traffic, its mix is read from the repository's own simulator scenarios
// (src/sim/scenario.cc), not chosen here:
//
//   warm_zipf     poisson_steady's mix: tenants Zipf-skewed, queries
//                 Zipf-popular within a tenant, a share respelled; one
//                 client, closed loop, on warm caches.
//   cold_compile  one client, closed loop; every request is a cache miss
//                 (each pass over the query set runs against a freshly
//                 registered synopsis epoch), so every request parses,
//                 canonicalizes, joins and evaluates the formulas.
//   batch_fanout  EstimateBatch calls over one tenant's whole query set,
//                 tenants in turn, on warm caches: the shape of the
//                 warm-batch phase of bench/bench_service_throughput.
//   live_churn    live_update_churn's mix: live synopses, and between
//                 requests a delta batch at the scenario's rate (its
//                 delete share, sibling clones otherwise).
//
// The simulator's garbage, unknown-tenant and pre-expired-deadline shares
// are left out: those requests fail by design, and no request of the
// benchmark may fail.
//
// Single-client requests are timed on the client thread's CPU clock, one
// request at a time; checking the answer is outside the timed interval.
// A traced run (--trace 1) sets trace_sample = 1 and reads each layer's
// cost from the service's own accounting: the per-stage histograms
// (service.stage.*_ns), the delta-apply histogram, and the estimator work
// counters carried by the service's trace records.

#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "datagen/datagen.h"
#include "delta/document_delta.h"
#include "estimator/estimator.h"
#include "estimator/synopsis.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "service/service.h"
#include "sim/scenario.h"
#include "sim/traffic.h"
#include "workload/workload.h"
#include "xpath/parser.h"

namespace xee::perfbench {
namespace {

constexpr const char* kDatasets[] = {"ssplays", "dblp", "xmark"};
// The documents and the query set are fixed; --seed varies the traffic
// over them (popularity ranks, respellings, pass order, delta targets).
// A seed-dependent corpus would move the cost of an average query by
// more than any bound worth enforcing.
constexpr uint64_t kCorpusSeed = 42;
constexpr double kScale = 1.0;              // datagen size multiplier
constexpr size_t kQueriesPerClass = 400;    // generated before dedup
constexpr size_t kSegments = 4;             // fresh services per run
constexpr size_t kSetUpsPerSegment = 4;     // set-up samples per segment
constexpr size_t kStreamLength = 1 << 18;   // request stream, cycled
// live_churn starts again from the pristine documents after this many
// deltas, so document size (and the cost of a delta) stays level however
// many deltas a run manages. The simulator's scenario lasts 8 s and
// needs no reset.
constexpr size_t kDeltasPerEpisode = 120;
constexpr size_t kLiveWarmup = 4096;
constexpr size_t kLiveCheckEvery = 4;       // served-vs-direct sampling
constexpr size_t kEpisodeChecks = 32;       // queries checked vs rebuild
// A traced run keeps every request's trace; the rings must hold what
// arrives between two sweeps (one batch of up to ~1,100 requests).
constexpr size_t kTraceCapacity = 4096;
// Latency windows (see WindowedLatency). live_churn completes about 1,200
// requests a second, ApplyDelta taking the rest, so its windows are
// longer, to hold some 600 samples each.
constexpr std::chrono::milliseconds kWindow{250};
constexpr std::chrono::milliseconds kLiveWindow{500};

struct Tenant {
  std::string name;
  std::unique_ptr<delta::LiveDocument> source;  // pristine document
  std::shared_ptr<const estimator::Synopsis> synopsis;  // built on source
};

/// One distinct request string with its direct-estimator answer on the
/// tenant's initial synopsis. A respelling shares its original's parsed
/// query and answer: the service must answer both bit-identically.
struct Entry {
  uint32_t tenant = 0;
  service::QueryRequest request;
  xpath::Query query;
  double reference = 0;
};

/// The simulator's request mix (sim::TrafficModel) restricted to what
/// this benchmark sends.
struct Mix {
  double tenant_zipf_s = 0;
  double query_zipf_s = 0;
  double alias_prob = 0;
};

Mix MixOf(const sim::Scenario& s) {
  return Mix{s.traffic.tenant_zipf_s, s.traffic.query_zipf_s,
             s.traffic.alias_prob};
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// The service's own accounting of what each layer did, summed over the
/// measured parts of a run. Histograms and counters are read as deltas
/// between sweeps; trace records are read by sequence number.
struct LayerTally {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t request_ns = 0;
  uint64_t request_count = 0;
  uint64_t stage_ns[obs::kStageCount] = {};
  uint64_t apply_ns = 0;
  uint64_t applies = 0;
  uint64_t traces = 0;  // trace records read
  uint64_t containment_tests = 0;
  uint64_t join_probes = 0;
  uint64_t fixpoint_rounds = 0;
};

class Bench {
 public:
  explicit Bench(const RunOptions& options)
      : opt_(options),
        rng_(options.seed * 0x9e3779b97f4a7c15ull + 1),
        lat_(options.workload == "live_churn" ? kLiveWindow : kWindow) {}

  RunResult Run() {
    MakeTenants();
    MakeEntries();
    // The run is cut into segments, each on a freshly set-up service, and
    // the latency windows of all segments pool, so one unlucky heap
    // layout cannot decide a whole run.
    const size_t segments = opt_.trace ? 1 : kSegments;
    const double seconds = opt_.seconds / static_cast<double>(segments);
    for (size_t seg = 0; seg < segments && result_.correct; ++seg) {
      for (size_t i = 0; i < kSetUpsPerSegment; ++i) SetUp();
      if (opt_.workload == "warm_zipf") {
        RunWarmZipf(seconds);
      } else if (opt_.workload == "cold_compile") {
        RunColdCompile(seconds);
      } else if (opt_.workload == "batch_fanout") {
        RunBatchFanout(seconds);
      } else {
        RunLiveChurn(seconds);
      }
    }
    if (result_.attempted == 0) result_.attempted = 1;  // nothing ran
    Report();
    return std::move(result_);
  }

 private:
  // ------------------------------------------------------------ inputs

  void MakeTenants() {
    for (size_t k = 0; k < std::size(kDatasets); ++k) {
      datagen::GenOptions gen;
      gen.seed = kCorpusSeed + k;
      gen.scale = kScale;
      Result<xml::Document> doc = datagen::GenerateByName(kDatasets[k], gen);
      XEE_CHECK_MSG(doc.ok(), doc.status().ToString().c_str());
      Tenant t{kDatasets[k],
               std::make_unique<delta::LiveDocument>(std::move(doc).value()),
               nullptr};
      t.synopsis = std::make_shared<const estimator::Synopsis>(
          estimator::Synopsis::Build(t.source->doc(), {}));
      tenants_.push_back(std::move(t));
    }
  }

  service::ServiceOptions ServiceOpts() const {
    service::ServiceOptions o;  // defaults, except that a traced run
    if (opt_.trace) {           // times and keeps every request
      o.trace_sample = 1;
      o.trace_capacity = kTraceCapacity;
    }
    return o;
  }

  /// Replaces the service with a fresh one and registers every tenant on
  /// it — a synopsis built from the document, or for live_churn a live
  /// document whose synopsis the service builds. The CPU time this takes,
  /// over all threads, is one set-up sample.
  void SetUp() {
    svc_.reset();
    const bool live = opt_.workload == "live_churn";
    std::vector<xml::Document> copies;
    if (live) {
      for (const Tenant& t : tenants_) {
        copies.push_back(t.source->Materialize());
      }
    }
    const uint64_t c0 = ProcessCpuNs();
    svc_ = std::make_unique<service::EstimationService>(ServiceOpts());
    for (size_t k = 0; k < tenants_.size(); ++k) {
      if (live) {
        svc_->RegisterLive(tenants_[k].name, std::move(copies[k]));
      } else {
        svc_->registry().Register(
            tenants_[k].name,
            std::make_shared<const estimator::Synopsis>(
                estimator::Synopsis::Build(tenants_[k].source->doc(), {})));
      }
    }
    setup_secs_.push_back(static_cast<double>(ProcessCpuNs() - c0) / 1e9);
    // The accounting of the new service starts from zero.
    request_window_ = apply_window_ = obs::HistogramWindow();
    for (obs::HistogramWindow& w : stage_windows_) w = obs::HistogramWindow();
    last_requests_ = last_hits_ = last_seq_ = 0;
  }

  /// The query families of each tenant: its generated workload queries,
  /// in their original spelling. Queries the estimator rejects are left
  /// out.
  void MakeEntries() {
    families_.resize(tenants_.size());
    for (uint32_t k = 0; k < tenants_.size(); ++k) {
      const Tenant& t = tenants_[k];
      const estimator::Estimator est(*t.synopsis);
      workload::WorkloadOptions wo;
      wo.seed = kCorpusSeed + 100 + k;
      wo.simple_count = kQueriesPerClass;
      wo.branch_count = kQueriesPerClass;
      const workload::Workload wl =
          workload::GenerateWorkload(t.source->doc(), wo);
      for (const auto* cls : {&wl.simple, &wl.branch, &wl.order_branch_target,
                              &wl.order_trunk_target}) {
        for (const workload::WorkloadQuery& wq : *cls) {
          const std::string text = wq.query.ToString();
          if (index_.count(Key(k, text)) != 0) continue;
          Result<xpath::Query> q = xpath::ParseXPath(text);
          if (!q.ok()) continue;
          const Result<double> ref = est.Estimate(q.value());
          if (!ref.ok()) continue;
          const uint32_t idx = static_cast<uint32_t>(entries_.size());
          Entry e;
          e.tenant = k;
          e.request.synopsis = t.name;
          e.request.xpath = text;
          e.query = std::move(q).value();
          e.reference = ref.value();
          entries_.push_back(std::move(e));
          index_.emplace(Key(k, text), idx);
          families_[k].push_back(idx);
        }
      }
      XEE_CHECK(!families_[k].empty());
    }
  }

  static std::string Key(uint32_t tenant, const std::string& text) {
    return std::to_string(tenant) + '\n' + text;
  }

  /// The entry for `text` as a spelling of `original`'s query.
  uint32_t SpellingOf(uint32_t original, const std::string& text) {
    const Entry& o = entries_[original];
    const auto [it, added] = index_.emplace(
        Key(o.tenant, text), static_cast<uint32_t>(entries_.size()));
    if (added) {
      Entry e;
      e.tenant = o.tenant;
      e.request.synopsis = o.request.synopsis;
      e.request.xpath = text;
      e.query = o.query;
      e.reference = o.reference;
      entries_.push_back(std::move(e));
    }
    return it->second;
  }

  /// The request stream of `mix`, drawn as sim::TrafficSource::Make
  /// draws it: a Zipf-ranked tenant (rank 1 = ssplays), a Zipf-popular
  /// family of that tenant (ranks a seeded permutation), and with
  /// probability alias_prob a fresh respelling.
  void MakeStream(const Mix& mix) {
    std::vector<std::vector<uint32_t>> rank_to_family(tenants_.size());
    std::vector<ZipfSampler> zipf;
    for (uint32_t k = 0; k < tenants_.size(); ++k) {
      std::vector<uint32_t>& perm = rank_to_family[k];
      perm = families_[k];
      for (size_t i = perm.size() - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng_.UniformInt(0, i)]);
      }
      zipf.emplace_back(perm.size(), mix.query_zipf_s);
    }
    stream_.clear();
    stream_.reserve(kStreamLength);
    for (size_t i = 0; i < kStreamLength; ++i) {
      const size_t k = rng_.Zipf(tenants_.size(), mix.tenant_zipf_s) - 1;
      const uint32_t f = rank_to_family[k][zipf[k].Draw(rng_)];
      uint32_t idx = f;
      if (rng_.Bernoulli(mix.alias_prob)) {
        idx = SpellingOf(f, sim::TrafficSource::AliasSpelling(
                                rng_, entries_[f].request.xpath));
      }
      stream_.push_back(idx);
    }
    pos_ = 0;
  }

  const Entry& Next() {
    const Entry& e = entries_[stream_[pos_]];
    pos_ = (pos_ + 1) % stream_.size();
    return e;
  }

  // ------------------------------------------------------------ checks

  /// Books one served answer: a failed request, or a value that differs
  /// from `expected` in any bit, makes the run incorrect.
  void Check(const Entry& e, const service::EstimateOutcome& out,
             double expected) {
    ++result_.attempted;
    if (!out.ok()) {
      ++result_.failed;
      result_.Fail(e.request.xpath + ": " + out.status().ToString());
    } else if (!SameBits(out.value(), expected)) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), ": served %.17g, expected %.17g",
                    out.value(), expected);
      result_.Fail(e.request.xpath + buf);
    }
  }

  /// Books one served answer that is not compared (only its status is).
  void CheckOk(const Entry& e, const service::EstimateOutcome& out) {
    ++result_.attempted;
    if (!out.ok()) {
      ++result_.failed;
      result_.Fail(e.request.xpath + ": " + out.status().ToString());
    }
  }

  /// Direct estimate on the synopsis version `e`'s tenant serves now.
  double DirectEstimate(const Entry& e) const {
    const auto snap = svc_->registry().Snapshot(e.request.synopsis);
    XEE_CHECK(snap.has_value());
    const Result<double> r =
        estimator::Estimator(*snap->synopsis).Estimate(e.query);
    return r.ok() ? r.value() : -1.0;
  }

  // ------------------------------------------------------------ workloads

  /// One timed single-client request: its CPU time is one latency sample.
  service::EstimateOutcome Timed(const Entry& e) {
    const uint64_t c0 = ThreadCpuNs();
    service::EstimateOutcome out = svc_->Estimate(e.request);
    const uint64_t ns = ThreadCpuNs() - c0;
    lat_.Record(ns, 1, ns);
    return out;
  }

  /// Every 256 booked requests: closes a latency window whose time is up,
  /// sweeps the traced service's accounting, and says whether the run's
  /// time is up.
  bool Tick(Clock::time_point end) {
    if ((result_.attempted & 255) != 0) return false;
    const Clock::time_point now = Clock::now();
    if (lat_.Roll(now)) cpus_.Next();
    if (opt_.trace) Sweep(true);
    return now >= end;
  }

  static Clock::time_point EndAfter(double seconds) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  }

  void RunWarmZipf(double seconds) {
    MakeStream(MixOf(sim::PoissonSteady()));
    for (size_t i = 0; i < stream_.size(); ++i) {
      (void)svc_->Estimate(Next().request);
    }
    BeginMeasure();
    const Clock::time_point end = EndAfter(seconds);
    do {
      const Entry& e = Next();
      Check(e, Timed(e), e.reference);
    } while (!Tick(end));
    EndMeasure();
  }

  void RunColdCompile(double seconds) {
    // Each pass visits every query once, in a fresh order, after the
    // synopses are re-registered: a new epoch keys every cache anew.
    std::vector<uint32_t> order;
    for (const std::vector<uint32_t>& f : families_) {
      order.insert(order.end(), f.begin(), f.end());
    }
    auto new_pass = [&] {
      for (const Tenant& t : tenants_) {
        svc_->registry().Register(t.name, t.synopsis);
      }
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng_.UniformInt(0, i)]);
      }
    };
    // One untimed pass first: code, allocator and branch predictors warm.
    new_pass();
    for (uint32_t idx : order) (void)svc_->Estimate(entries_[idx].request);
    BeginMeasure();
    const Clock::time_point end = EndAfter(seconds);
    for (bool done = false; !done;) {
      Untallied([&] { new_pass(); });
      for (size_t i = 0; i < order.size() && !done; ++i) {
        const Entry& e = entries_[order[i]];
        Check(e, Timed(e), e.reference);
        done = Tick(end);
      }
    }
    EndMeasure();
  }

  void RunBatchFanout(double seconds) {
    std::vector<std::vector<service::QueryRequest>> batches;
    for (const std::vector<uint32_t>& f : families_) {
      batches.emplace_back();
      for (uint32_t idx : f) batches.back().push_back(entries_[idx].request);
    }
    for (const auto& batch : batches) (void)svc_->EstimateBatch(batch);
    BeginMeasure();
    const Clock::time_point end = EndAfter(seconds);
    lat_.Start(Clock::now());
    for (size_t b = 0; Clock::now() < end; b = (b + 1) % batches.size()) {
      // The batch fans out over the worker pool: its latency is wall
      // time, of which the client thread's CPU clock sees only a part.
      const Clock::time_point t0 = Clock::now();
      const std::vector<service::EstimateOutcome> outs =
          svc_->EstimateBatch(batches[b]);
      const Clock::time_point t1 = Clock::now();
      const uint64_t ns = NsBetween(t0, t1);
      lat_.Record(ns, outs.size(), ns);
      for (size_t i = 0; i < outs.size(); ++i) {
        const Entry& e = entries_[families_[b][i]];
        Check(e, outs[i], e.reference);
      }
      lat_.Roll(t1);
      if (opt_.trace) Sweep(true);
    }
    EndMeasure();
  }

  /// One delta batch as the simulator's live_update_churn draws it
  /// (sim/simulator.cc): each op a subtree delete with the burst's
  /// delete probability, a sibling clone of a uniformly drawn node
  /// otherwise.
  delta::DocumentDelta ChurnDelta(const sim::DeltaBurst& burst,
                                  const std::string& name) {
    delta::DocumentDelta d;
    const size_t nodes = svc_->maintenance().LiveNodeCount(name);
    for (size_t i = 0; i < burst.ops_per_delta; ++i) {
      const double r = rng_.UniformDouble();
      const uint32_t rank =
          static_cast<uint32_t>(rng_.UniformInt(1, nodes - 1));
      if (r < burst.delete_prob && nodes > 8) {
        delta::DeltaOp op;
        op.kind = delta::DeltaOp::Kind::kDelete;
        op.target = rank;
        d.ops.push_back(std::move(op));
      } else {
        Result<delta::DeltaOp> clone = svc_->maintenance().CloneOp(name, rank);
        XEE_CHECK(clone.ok());
        d.ops.push_back(std::move(clone).value());
      }
    }
    return d;
  }

  /// Applies `d` to `mirror` the way LiveSynopsis::Apply applies it to
  /// the service's document: ops whose target an earlier op removed are
  /// skipped.
  static void ApplyToMirror(const delta::DocumentDelta& d,
                            delta::LiveDocument* mirror) {
    Result<std::vector<xml::NodeId>> at = mirror->ResolveTargets(d);
    XEE_CHECK(at.ok());
    for (size_t i = 0; i < d.ops.size(); ++i) {
      const xml::NodeId target = at.value()[i];
      if (mirror->detached(target)) continue;
      if (d.ops[i].kind == delta::DeltaOp::Kind::kInsert) {
        mirror->InsertSubtree(target, d.ops[i].subtree);
      } else {
        mirror->DeleteSubtree(target);
      }
    }
  }

  /// Served answers of `tenant` against a synopsis built from scratch
  /// over the mirrored document.
  void CheckAgainstRebuild(uint32_t tenant, const delta::LiveDocument& mirror) {
    const estimator::Synopsis scratch =
        estimator::Synopsis::Build(mirror.Materialize(), {});
    const estimator::Estimator est(scratch);
    size_t checked = 0;
    for (uint32_t idx : families_[tenant]) {
      const Entry& e = entries_[idx];
      const Result<double> want = est.Estimate(e.query);
      const service::EstimateOutcome got = svc_->Estimate(e.request);
      if (!want.ok() || !got.ok() || !SameBits(want.value(), got.value())) {
        result_.Fail(e.request.xpath + ": patched synopsis differs from a "
                     "rebuild");
      }
      if (++checked == kEpisodeChecks) break;
    }
    ++rebuild_checks_;
  }

  void RunLiveChurn(double seconds) {
    const sim::Scenario scenario = sim::LiveUpdateChurn();
    // Phase one of the scenario: the patch-friendly churn. Its rate of
    // requests per delta batch follows from the arrival rate and the
    // burst period (250 qps, one batch per 100 ms: 25).
    const sim::DeltaBurst& burst = scenario.deltas.front();
    XEE_CHECK(burst.novel_prob == 0.0);
    const size_t requests_per_delta = static_cast<size_t>(
        scenario.arrival.rate_qps * static_cast<double>(burst.period_us) /
            1e6 +
        0.5);
    MakeStream(MixOf(scenario));

    BeginMeasure();
    const Clock::time_point end = EndAfter(seconds);
    std::vector<std::unique_ptr<delta::LiveDocument>> mirrors;
    std::vector<double> charged(tenants_.size());
    for (size_t episode = 0; Clock::now() < end; ++episode) {
      Untallied([&] {
        mirrors.clear();
        for (uint32_t k = 0; k < tenants_.size(); ++k) {
          if (episode > 0) {
            svc_->RegisterLive(tenants_[k].name,
                               tenants_[k].source->Materialize());
          }
          mirrors.push_back(std::make_unique<delta::LiveDocument>(
              tenants_[k].source->Materialize()));
          charged[k] = 0;
        }
        for (size_t i = 0; i < kLiveWarmup; ++i) {
          (void)svc_->Estimate(Next().request);
        }
      });
      bool done = false;
      for (size_t d = 0; d < kDeltasPerEpisode && !done; ++d) {
        const uint32_t k = static_cast<uint32_t>(d % tenants_.size());
        const std::string& name = tenants_[k].name;
        const delta::DocumentDelta delta = ChurnDelta(burst, name);
        const uint64_t c0 = ThreadCpuNs();
        const Result<service::ApplyOutcome> applied =
            svc_->ApplyDelta(name, delta);
        lat_.AddBusy(ThreadCpuNs() - c0);
        ++result_.attempted;
        if (!applied.ok()) {
          ++result_.failed;
          result_.Fail("delta: " + applied.status().ToString());
          return;
        }
        charged[k] += applied.value().apply.charged_nodes;
        ApplyToMirror(delta, mirrors[k].get());
        if (mirrors[k]->live_nodes() !=
            svc_->maintenance().LiveNodeCount(name)) {
          result_.Fail(name + ": live document and mirror disagree");
        }
        // A clone-only delta charges no patch error, and then the patched
        // synopsis must equal a scratch build bit for bit (a delete
        // charges for staleness a rebuild would resolve). Checked on one
        // tenant's first delta of each episode: a scratch build costs
        // about as much as the episode's measured traffic.
        if (d == episode % tenants_.size() && charged[k] == 0) {
          Untallied([&] { CheckAgainstRebuild(k, *mirrors[k]); });
        }

        for (size_t i = 0; i < requests_per_delta; ++i) {
          const Entry& e = Next();
          const service::EstimateOutcome out = Timed(e);
          if (i % kLiveCheckEvery == 0) {
            Check(e, out, DirectEstimate(e));
          } else {
            CheckOk(e, out);
          }
          done = Tick(end) || done;
        }
      }
    }
    EndMeasure();
  }

  // ------------------------------------------------------------ layers

  /// Starts the measured part of a segment. A single client moves to
  /// the next CPU with every latency window.
  void BeginMeasure() {
    Sweep(false);
    if (opt_.workload != "batch_fanout") cpus_.Next();
    lat_.Start(Clock::now());
  }

  void EndMeasure() {
    lat_.Finish(Clock::now());
    cpus_.Release();
    Sweep(true);
  }

  /// Runs service calls that are not measured traffic (re-warming,
  /// checks): what they do is swept away, not tallied.
  template <typename Fn>
  void Untallied(Fn fn) {
    Sweep(true);
    fn();
    Sweep(false);
  }

  /// Reads what the service accounted since the last sweep and, when
  /// `keep`, adds it to the tally.
  void Sweep(bool keep) {
    obs::Registry& r = svc_->obs();
    auto take = [&](obs::HistogramWindow* w, const char* name) {
      return w->Advance(r.GetHistogram(name));
    };
    const uint64_t requests = r.CounterValue("service.requests");
    const uint64_t hits =
        r.CounterValue("service.plan_cache", "outcome=exact_hit") +
        r.CounterValue("service.plan_cache", "outcome=canonical_hit") +
        r.CounterValue("service.estimate_memo", "outcome=hit");
    const obs::HistogramSnapshot req = take(&request_window_,
                                            "service.request_ns");
    const obs::HistogramSnapshot apply = take(&apply_window_,
                                              "service.delta.apply_ns");
    uint64_t stage_ns[obs::kStageCount];
    for (size_t s = 0; s < obs::kStageCount; ++s) {
      const std::string name =
          "service.stage." +
          std::string(obs::StageName(static_cast<obs::Stage>(s))) + "_ns";
      stage_ns[s] = take(&stage_windows_[s], name.c_str()).sum;
    }
    // Trace records (a traced run keeps every request's), newest past
    // the last sweep; sequence numbers run across both rings.
    uint64_t traces = 0, containment = 0, probes = 0, rounds = 0;
    uint64_t seq = last_seq_;
    if (opt_.trace) {
      const obs::TraceRing& ring = svc_->traces();
      for (const auto& records : {ring.Recent(), ring.Tail()}) {
        for (const obs::TraceRecord& rec : records) {
          if (rec.seq <= last_seq_) continue;
          seq = std::max(seq, rec.seq);
          ++traces;
          containment += rec.spans.containment_tests;
          probes += rec.spans.join_probes;
          rounds += rec.spans.fixpoint_rounds;
        }
      }
      if (keep) lost_traces_ += ring.recorded() - last_seq_ - traces;
    }
    last_seq_ = seq;
    if (keep) {
      tally_.requests += requests - last_requests_;
      tally_.hits += hits - last_hits_;
      tally_.request_ns += req.sum;
      tally_.request_count += req.count;
      for (size_t s = 0; s < obs::kStageCount; ++s) {
        tally_.stage_ns[s] += stage_ns[s];
      }
      tally_.apply_ns += apply.sum;
      tally_.applies += apply.count;
      tally_.traces += traces;
      tally_.containment_tests += containment;
      tally_.join_probes += probes;
      tally_.fixpoint_rounds += rounds;
    }
    last_requests_ = requests;
    last_hits_ = hits;
  }

  // ------------------------------------------------------------ report

  void Report() {
    std::vector<Metric>& m = result_.metrics;
    const LayerTally& t = tally_;
    const double hit_ratio =
        t.requests ? static_cast<double>(t.hits) / t.requests : 0.0;
    if (!opt_.trace) {
      m.push_back({"p50_us", lat_.p50_ns() / 1e3, "us"});
      m.push_back({"p90_us", lat_.p90_ns() / 1e3, "us"});
      m.push_back({"throughput_qps", lat_.rate(), "1/s"});
      m.push_back({"setup_s", Quantile(setup_secs_, 0.5), "s"});
      std::fprintf(stderr,
                   "%s: %llu latency samples in %zu windows, %zu distinct "
                   "request strings, cache hit ratio %.4f, %zu set-ups, "
                   "%zu rebuild checks\n",
                   opt_.workload.c_str(),
                   static_cast<unsigned long long>(lat_.samples()),
                   lat_.windows(), entries_.size(), hit_ratio,
                   setup_secs_.size(), rebuild_checks_);
      return;
    }
    const double n = t.requests ? static_cast<double>(t.requests) : 1.0;
    const double traced = t.traces ? static_cast<double>(t.traces) : 1.0;
    auto per_request_us = [&](uint64_t ns) { return ns / n / 1e3; };
    auto stage_us = [&](obs::Stage s) {
      return per_request_us(t.stage_ns[static_cast<size_t>(s)]);
    };
    m.push_back({"service_us",
                 t.request_count ? t.request_ns / 1e3 / t.request_count : 0.0,
                 "us"});
    m.push_back({"snapshot_us", stage_us(obs::Stage::kSnapshot), "us"});
    m.push_back({"cache_lookup_us", stage_us(obs::Stage::kCacheLookup), "us"});
    m.push_back({"parse_us", stage_us(obs::Stage::kParse), "us"});
    m.push_back(
        {"canonicalize_us", stage_us(obs::Stage::kCanonicalize), "us"});
    m.push_back({"join_us", stage_us(obs::Stage::kJoin), "us"});
    m.push_back({"formula_us", stage_us(obs::Stage::kFormula), "us"});
    m.push_back({"containment_tests", t.containment_tests / traced, "count"});
    m.push_back({"join_probes", t.join_probes / traced, "count"});
    m.push_back({"fixpoint_rounds", t.fixpoint_rounds / traced, "count"});
    m.push_back({"cache_hit_ratio", hit_ratio, "ratio"});
    m.push_back({"apply_delta_us",
                 t.applies ? t.apply_ns / 1e3 / t.applies : 0.0, "us"});
    std::fprintf(stderr,
                 "%s: %llu requests, %llu trace records read, %llu lost to "
                 "ring overflow; the service's latest traces:\n%s\n",
                 opt_.workload.c_str(),
                 static_cast<unsigned long long>(t.requests),
                 static_cast<unsigned long long>(t.traces),
                 static_cast<unsigned long long>(lost_traces_),
                 svc_->traces().ToJson(4).c_str());
  }

  RunOptions opt_;
  Rng rng_;
  std::vector<Tenant> tenants_;
  std::unique_ptr<service::EstimationService> svc_;
  std::vector<double> setup_secs_;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, uint32_t> index_;  // Key() -> entry
  std::vector<std::vector<uint32_t>> families_;       // per tenant
  std::vector<uint32_t> stream_;
  size_t pos_ = 0;

  RunResult result_;
  WindowedLatency lat_;
  CpuRotation cpus_;
  size_t rebuild_checks_ = 0;

  LayerTally tally_;
  obs::HistogramWindow request_window_, apply_window_;
  obs::HistogramWindow stage_windows_[obs::kStageCount];
  uint64_t last_requests_ = 0, last_hits_ = 0, last_seq_ = 0;
  uint64_t lost_traces_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "warm_zipf", "cold_compile", "batch_fanout", "live_churn"};
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  return Bench(options).Run();
}

}  // namespace xee::perfbench
