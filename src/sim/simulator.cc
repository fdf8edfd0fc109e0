#include "sim/simulator.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>

#include "common/check.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "datagen/datagen.h"
#include "delta/document_delta.h"
#include "estimator/synopsis.h"
#include "obs/window.h"
#include "service/service.h"
#include "sim/engine.h"
#include "xpath/canonical.h"

namespace xee::sim {
namespace {

std::string Format(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

std::string HistJson(const obs::HistogramSnapshot& h) {
  return Format("{\"count\":%llu,\"p50\":%llu,\"p90\":%llu,\"p99\":%llu,"
                "\"max\":%llu}",
                static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.p50),
                static_cast<unsigned long long>(h.p90),
                static_cast<unsigned long long>(h.p99),
                static_cast<unsigned long long>(h.max));
}

/// Exponential draw with mean `mean_us`, clamped to >= 1.
uint64_t ExpUs(Rng& rng, uint64_t mean_us) {
  if (mean_us == 0) return 1;
  const double u = 1.0 - rng.UniformDouble();
  const double v = -std::log(u) * static_cast<double>(mean_us);
  return v < 1.0 ? 1 : static_cast<uint64_t>(v);
}

/// Files `out` into exactly one outcome bucket of both ledgers.
void Classify(const service::EstimateOutcome& out, SimTotals* totals,
              WindowRow* window) {
  uint64_t SimTotals::* t = nullptr;
  uint64_t WindowRow::* w = nullptr;
  if (out.shed) {
    t = &SimTotals::shed;
    w = &WindowRow::shed;
  } else if (out.ok()) {
    t = out.degraded ? &SimTotals::ok_degraded : &SimTotals::ok_full;
    w = out.degraded ? &WindowRow::ok_degraded : &WindowRow::ok_full;
  } else {
    switch (out.status().code()) {
      case StatusCode::kDeadlineExceeded:
        t = &SimTotals::deadline_exceeded;
        w = &WindowRow::deadline_exceeded;
        break;
      case StatusCode::kNotFound:
        t = &SimTotals::not_found;
        w = &WindowRow::not_found;
        break;
      case StatusCode::kUnavailable:
        t = &SimTotals::unavailable;
        w = &WindowRow::unavailable;
        break;
      default:
        t = &SimTotals::errored;
        w = &WindowRow::errored;
        break;
    }
  }
  ++(totals->*t);
  ++(window->*w);
}

void AppendU64(std::string* s, uint64_t v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%llx,", static_cast<unsigned long long>(v));
  *s += buf;
}

}  // namespace

std::string WindowRow::ToJson(const std::string& scenario) const {
  std::string out = Format(
      "{\"bench\":\"simulate\",\"scenario\":\"%s\",\"t_ms\":%llu,"
      "\"arrivals\":%llu,\"ok\":%llu,\"degraded\":%llu,\"shed\":%llu,"
      "\"deadline\":%llu,\"not_found\":%llu,\"unavailable\":%llu,"
      "\"errored\":%llu,\"vqueue\":%llu",
      scenario.c_str(), static_cast<unsigned long long>(t_end_us / 1000),
      static_cast<unsigned long long>(arrivals),
      static_cast<unsigned long long>(ok_full),
      static_cast<unsigned long long>(ok_degraded),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(not_found),
      static_cast<unsigned long long>(unavailable),
      static_cast<unsigned long long>(errored),
      static_cast<unsigned long long>(vqueue));
  out += Format(",\"deltas\":%llu,\"delta_rejects\":%llu,\"rebuilds\":%llu",
                static_cast<unsigned long long>(deltas_applied),
                static_cast<unsigned long long>(deltas_rejected),
                static_cast<unsigned long long>(rebuilds_done));
  out += Format(
      ",\"alerts_fired\":%llu,\"alerts_resolved\":%llu,"
      "\"alerts_burning\":%llu",
      static_cast<unsigned long long>(alerts_fired),
      static_cast<unsigned long long>(alerts_resolved),
      static_cast<unsigned long long>(alerts_burning));
  if (!fault_fires.empty() || !background_fires.empty()) {
    out += ",\"fault_fires\":{";
    bool first = true;
    for (const auto& list : {&fault_fires, &background_fires}) {
      for (const auto& [site, fires] : *list) {
        if (!first) out += ",";
        first = false;
        out += Format("\"%s\":%llu", site.c_str(),
                      static_cast<unsigned long long>(fires));
      }
    }
    out += "}";
  }
  out += ",\"request_ns\":" + HistJson(request_ns);
  out += ",\"retry_after_ms\":" + HistJson(retry_after_ms);
  out += Format(
      ",\"shadow_recorded\":%llu,\"analyzer_pruned\":%llu}",
      static_cast<unsigned long long>(shadow_recorded),
      static_cast<unsigned long long>(analyzer_pruned));
  return out;
}

uint64_t TrajectoryFingerprint(const std::vector<WindowRow>& trajectory,
                               const SimTotals& totals) {
  // Serialize the deterministic columns into a canonical byte string
  // and hash once: cheap, order-sensitive, and easy to reason about.
  std::string bytes;
  bytes.reserve(trajectory.size() * 96);
  for (const WindowRow& r : trajectory) {
    AppendU64(&bytes, r.t_end_us);
    AppendU64(&bytes, r.arrivals);
    AppendU64(&bytes, r.ok_full);
    AppendU64(&bytes, r.ok_degraded);
    AppendU64(&bytes, r.shed);
    AppendU64(&bytes, r.deadline_exceeded);
    AppendU64(&bytes, r.not_found);
    AppendU64(&bytes, r.unavailable);
    AppendU64(&bytes, r.errored);
    AppendU64(&bytes, r.vqueue);
    AppendU64(&bytes, r.deltas_applied);
    AppendU64(&bytes, r.deltas_rejected);
    AppendU64(&bytes, r.alerts_fired);
    AppendU64(&bytes, r.alerts_resolved);
    AppendU64(&bytes, r.alerts_burning);
    for (const auto& [site, fires] : r.fault_fires) {
      bytes += site;
      AppendU64(&bytes, fires);
    }
    bytes += ";";
  }
  AppendU64(&bytes, totals.arrivals);
  AppendU64(&bytes, totals.Accounted());
  AppendU64(&bytes, totals.holds);
  AppendU64(&bytes, totals.releases);
  AppendU64(&bytes, totals.reloads);
  AppendU64(&bytes, totals.deltas_attempted);
  AppendU64(&bytes, totals.deltas_applied);
  AppendU64(&bytes, totals.deltas_rejected);
  // stale_marks and epoch values are rebuild-timing-dependent (a
  // background publish resets the patch-error ledger whenever it lands)
  // and stay out of the fingerprint.
  return xpath::StableHash64(bytes);
}

std::string SimResult::SummaryJson() const {
  std::string out = Format(
      "{\"bench\":\"simulate\",\"scenario\":\"%s\",\"summary\":true,"
      "\"seed\":%llu,\"duration_ms\":%llu,\"windows\":%zu,"
      "\"arrivals\":%llu,\"ok\":%llu,\"degraded\":%llu,\"shed\":%llu,"
      "\"deadline\":%llu,\"not_found\":%llu,\"unavailable\":%llu,"
      "\"errored\":%llu,\"reloads\":%llu,"
      "\"deltas\":%llu,\"delta_rejects\":%llu,\"stale_marks\":%llu,"
      "\"fingerprint\":\"%016llx\",\"invariants_ok\":%s,\"invariants\":",
      scenario.name.c_str(), static_cast<unsigned long long>(scenario.seed),
      static_cast<unsigned long long>(scenario.duration_us / 1000),
      trajectory.size(), static_cast<unsigned long long>(totals.arrivals),
      static_cast<unsigned long long>(totals.ok_full),
      static_cast<unsigned long long>(totals.ok_degraded),
      static_cast<unsigned long long>(totals.shed),
      static_cast<unsigned long long>(totals.deadline_exceeded),
      static_cast<unsigned long long>(totals.not_found),
      static_cast<unsigned long long>(totals.unavailable),
      static_cast<unsigned long long>(totals.errored),
      static_cast<unsigned long long>(totals.reloads),
      static_cast<unsigned long long>(totals.deltas_applied),
      static_cast<unsigned long long>(totals.deltas_rejected),
      static_cast<unsigned long long>(totals.stale_marks),
      static_cast<unsigned long long>(fingerprint),
      invariants.ok() ? "true" : "false");
  out += invariants.ToJson();
  out += "}";
  return out;
}

SimResult RunScenario(const Scenario& sc) {
  FaultInjector& faults = FaultInjector::Global();
  faults.Reset();

  SimResult result;
  result.scenario = sc;

  service::ServiceOptions opt;
  opt.plan_cache_bytes = sc.plan_cache_bytes;
  opt.max_inflight = sc.max_inflight;
  opt.accuracy_sample = sc.accuracy_sample;
  opt.auto_rebuild = sc.auto_rebuild;
  opt.patch_error_budget = sc.patch_error_budget;
  opt.drift_min_samples = sc.drift_min_samples;
  // Flight-data scraping is driver-clocked: the scenario's cadence, fed
  // from the virtual clock below. 0 disables store and SLO engine.
  opt.ts_interval_us = sc.ts_interval_us;
  opt.slos = sc.slos;
  // workers == 0 still needs a (small) pool: shadow evaluation runs
  // there. The determinism analysis in DESIGN.md §12 covers why pool
  // threads cannot perturb the fingerprint in the shipped scenarios.
  opt.threads = sc.workers == 0 ? 1 : sc.workers;
  service::EstimationService svc(opt);

  // Seed plan: one child stream per stochastic component, so e.g. a
  // different arrival model cannot shift which queries the traffic
  // source generates.
  Rng root(sc.seed);
  Rng arrival_rng = root.Split();
  Rng traffic_rng = root.Split();
  Rng service_rng = root.Split();

  // Dataset, synopsis, tenants. All tenants share one synopsis version
  // lineage (same blob), which is what the reload/bitrot machinery
  // stresses; tenant identity still matters for cache keys, Zipf skew,
  // and quarantine blast radius.
  datagen::GenOptions gopt;
  gopt.seed = sc.seed ^ 0xda7a5e3dull;
  gopt.scale = sc.dataset_scale;
  auto doc_result = datagen::GenerateByName(sc.dataset, gopt);
  XEE_CHECK(doc_result.ok());
  auto doc =
      std::make_shared<xml::Document>(std::move(doc_result).value());

  estimator::Synopsis built =
      estimator::Synopsis::Build(*doc, estimator::SynopsisOptions{});
  const std::string blob = built.Serialize();
  auto synopsis =
      std::make_shared<const estimator::Synopsis>(std::move(built));

  std::vector<std::string> tenants;
  tenants.reserve(sc.tenants);
  for (size_t i = 0; i < sc.tenants; ++i) {
    tenants.push_back(Format("%s-t%zu", sc.dataset.c_str(), i));
  }
  for (const std::string& name : tenants) {
    if (sc.live) {
      // Each live tenant owns its document, so regenerate a private
      // copy (Document is move-only by design). RegisterLive builds the
      // synopsis, attaches the materialized ground truth, and publishes
      // the first epoch.
      auto tdoc = datagen::GenerateByName(sc.dataset, gopt);
      XEE_CHECK(tdoc.ok());
      svc.RegisterLive(name, std::move(tdoc).value());
    } else {
      svc.registry().Register(name, synopsis, doc);
    }
  }

  std::vector<std::string> tags;
  tags.reserve(doc->TagCount());
  for (size_t t = 0; t < doc->TagCount(); ++t) {
    tags.push_back(doc->TagNameOf(static_cast<xml::TagId>(t)));
  }

  TrafficModel tm = sc.traffic;
  if (tm.semantic_alias_prob > 0) {
    // Semantic aliasing anchors "//x..." under the document root; the
    // root tag is a dataset property, so fill it here rather than in
    // the scenario table.
    tm.root_name = doc->TagNameOf(doc->Tag(doc->root()));
  }
  TrafficSource traffic(tm, tenants, tags, traffic_rng);
  ArrivalProcess arrivals(sc.arrival, arrival_rng);

  // Chaos arms after the initial registrations: the schedule clock is
  // still 0, so windowed faults stay dormant until the engine advances
  // into their window.
  for (const ChaosWindow& w : sc.chaos) faults.Arm(w.site, w.config);

  Engine eng;
  eng.on_time_advance = [&faults](uint64_t t) { faults.AdvanceTime(t); };

  SimTotals totals;
  uint64_t vqueue = 0;
  WindowRow acc;  // deterministic deltas since the last window close
  std::mutex mu;  // guards totals/acc in workers > 0 mode
  std::optional<ThreadPool> pool;
  if (sc.workers > 0) pool.emplace(sc.workers);

  // Windowed scrape cursors over the service's obs registry.
  obs::Histogram& req_hist = svc.obs().GetHistogram("service.request_ns");
  obs::Histogram& retry_hist =
      svc.obs().GetHistogram("service.retry_after_ms");
  obs::Counter& recorded_ctr =
      svc.obs().GetCounter("accuracy.samples", "phase=recorded");
  obs::Counter& pruned_ctr =
      svc.obs().GetCounter("service.analyzer", "outcome=pruned");
  obs::HistogramWindow req_win, retry_win;
  obs::CounterWindow recorded_win, pruned_win;
  std::vector<uint64_t> fire_prev(sc.chaos.size(), 0);
  uint64_t rebuilds_prev = 0;
  uint64_t alerts_fired_prev = 0, alerts_resolved_prev = 0;

  auto close_window = [&](uint64_t t_end) {
    WindowRow row;
    {
      std::unique_lock<std::mutex> lock(mu, std::defer_lock);
      if (pool) lock.lock();
      row = acc;
      acc = WindowRow{};
    }
    row.t_end_us = t_end;
    row.vqueue = vqueue;
    for (size_t i = 0; i < sc.chaos.size(); ++i) {
      const uint64_t cum = faults.FireCount(sc.chaos[i].site);
      auto& dest =
          sc.chaos[i].background ? row.background_fires : row.fault_fires;
      dest.emplace_back(sc.chaos[i].site, cum - fire_prev[i]);
      fire_prev[i] = cum;
    }
    if (svc.slo() != nullptr) {
      // Deterministic columns: the SLO engine only moves on ObsTick
      // events, which run at virtual times over counter-derived series.
      const uint64_t fired = svc.slo()->TotalFired();
      const uint64_t resolved = svc.slo()->TotalResolved();
      row.alerts_fired = fired - alerts_fired_prev;
      row.alerts_resolved = resolved - alerts_resolved_prev;
      row.alerts_burning = svc.slo()->BurningCount();
      alerts_fired_prev = fired;
      alerts_resolved_prev = resolved;
    }
    row.request_ns = req_win.Advance(req_hist);
    row.retry_after_ms = retry_win.Advance(retry_hist);
    row.shadow_recorded = recorded_win.Advance(recorded_ctr.value());
    row.analyzer_pruned = pruned_win.Advance(pruned_ctr.value());
    if (sc.live) {
      uint64_t cum = 0;
      for (const service::MaintenanceRow& r : svc.maintenance().Rows()) {
        cum += r.rebuilds_completed;
      }
      row.rebuilds_done = cum - rebuilds_prev;
      rebuilds_prev = cum;
    }
    result.trajectory.push_back(std::move(row));
  };

  // Flight-data scrape ticks at the scenario's cadence, scheduled
  // before the window closes so a tick sharing a window boundary lands
  // in that window's row (FIFO within a timestamp). Each tick samples
  // the time-series and evaluates the SLOs at the virtual instant.
  if (sc.ts_interval_us > 0) {
    for (uint64_t t = sc.ts_interval_us; t <= sc.duration_us;
         t += sc.ts_interval_us) {
      eng.At(t, [&svc, t] { svc.ObsTick(t); });
    }
  }

  // Window closes, scheduled up front so they dispatch before any
  // same-instant arrival (FIFO within a timestamp).
  for (uint64_t t = sc.window_us;; t += sc.window_us) {
    const uint64_t end = t < sc.duration_us ? t : sc.duration_us;
    eng.At(end, [&close_window, end] { close_window(end); });
    if (end == sc.duration_us) break;
  }

  // Reload cadence: re-register tenants round-robin from the serialized
  // blob (epoch bump, cache invalidation by key epoch; bitrot chaos
  // corrupts the blob in flight when its window is open), then re-attach
  // the ground-truth oracle (a reload would otherwise drop it).
  if (sc.reload_period_us > 0) {
    size_t k = 0;
    for (uint64_t t = sc.reload_period_us; t <= sc.duration_us;
         t += sc.reload_period_us, ++k) {
      const size_t tenant = k % tenants.size();
      eng.At(t, [&svc, &tenants, &blob, &doc, &totals, tenant] {
        svc.registry().RegisterSerialized(tenants[tenant], blob);
        svc.registry().AttachDocument(tenants[tenant], doc);
        ++totals.reloads;
      });
    }
  }

  // Delta bursts (live scenarios): batched mutations applied on the
  // driving thread at virtual times, round-robin across tenants. All
  // draws come from a dedicated stream, and only this thread mutates
  // the live documents, so the applied/rejected trajectory is
  // deterministic even while background rebuilds race the bursts.
  Rng delta_rng = root.Split();
  std::vector<uint64_t> last_epoch(tenants.size(), 0);
  size_t novel_counter = 0;
  auto apply_delta = [&](size_t burst_idx, size_t tenant_idx) {
    const DeltaBurst& b = sc.deltas[burst_idx];
    const std::string& name = tenants[tenant_idx];
    delta::DocumentDelta dd;
    const size_t nodes = svc.maintenance().LiveNodeCount(name);
    for (size_t i = 0; i < b.ops_per_delta; ++i) {
      const double r = delta_rng.UniformDouble();
      if (r < b.novel_prob || nodes < 2) {
        // A chain of tags the base synopsis has never seen: always
        // applies, always charges patch error.
        delta::DeltaOp op;
        op.kind = delta::DeltaOp::Kind::kInsert;
        op.target = nodes < 2 ? 0
                              : static_cast<uint32_t>(
                                    delta_rng.UniformInt(0, nodes - 1));
        const size_t chain = 1 + delta_rng.UniformInt(0, 1);
        for (size_t c = 0; c < chain; ++c) {
          op.subtree.tags.push_back(Format("sim%zu", novel_counter++));
          op.subtree.parent.push_back(static_cast<int32_t>(c) - 1);
        }
        dd.ops.push_back(std::move(op));
      } else if (r < b.novel_prob + b.delete_prob && nodes > 8) {
        delta::DeltaOp op;
        op.kind = delta::DeltaOp::Kind::kDelete;
        op.target =
            static_cast<uint32_t>(delta_rng.UniformInt(1, nodes - 1));
        dd.ops.push_back(std::move(op));
      } else {
        // Sibling clone: the canonical exactly-patchable mutation.
        auto clone = svc.maintenance().CloneOp(
            name,
            static_cast<uint32_t>(delta_rng.UniformInt(1, nodes - 1)));
        if (clone.ok()) dd.ops.push_back(std::move(clone).value());
      }
    }
    const auto out = svc.ApplyDelta(name, dd);
    {
      std::unique_lock<std::mutex> lock(mu, std::defer_lock);
      if (pool) lock.lock();
      ++totals.deltas_attempted;
      if (out.ok()) {
        ++totals.deltas_applied;
        ++acc.deltas_applied;
        if (out.value().budget_exhausted) ++totals.stale_marks;
        if (out.value().epoch <= last_epoch[tenant_idx]) {
          ++totals.epoch_regressions;
        }
        last_epoch[tenant_idx] = out.value().epoch;
      } else {
        ++totals.deltas_rejected;
        ++acc.deltas_rejected;
      }
    }
  };
  if (sc.live) {
    size_t k = 0;
    for (size_t bi = 0; bi < sc.deltas.size(); ++bi) {
      const DeltaBurst& b = sc.deltas[bi];
      for (size_t j = 0; j < b.count; ++j, ++k) {
        const uint64_t t = b.start_us + j * b.period_us;
        if (t > sc.duration_us) break;
        const size_t tenant = k % tenants.size();
        eng.At(t, [&apply_delta, bi, tenant] { apply_delta(bi, tenant); });
      }
    }
  }

  // The open-loop arrival chain: each arrival schedules its successor
  // from the arrival process alone before doing any work, so offered
  // load never depends on service behavior.
  std::function<void()> arrive = [&] {
    const uint64_t now = eng.now_us();
    const uint64_t next = arrivals.Next(now);
    if (next < sc.duration_us) eng.At(next, [&arrive] { arrive(); });

    service::QueryRequest req = traffic.Make();
    // Drawn for every arrival (not just admitted ones) so the stream
    // stays aligned no matter how outcomes fall.
    const uint64_t service_us =
        sc.service_min_us + ExpUs(service_rng, sc.service_exp_us);

    if (!pool) {
      ++totals.arrivals;
      ++acc.arrivals;
      const service::EstimateOutcome out = svc.Estimate(req);
      Classify(out, &totals, &acc);
      if (out.ok()) {
        // The request's *virtual* residency: hold a real admission slot
        // until the completion event, so later arrivals see the load.
        if (svc.HoldInflightSlot()) {
          ++totals.holds;
          ++vqueue;
          eng.At(now + service_us, [&svc, &totals, &vqueue] {
            svc.ReleaseInflightSlot();
            ++totals.releases;
            --vqueue;
          });
        }
      }
    } else {
      // Concurrent mode (TSan): real thread concurrency, no virtual
      // residency, fingerprint not stable — invariants still must hold.
      {
        std::lock_guard<std::mutex> lock(mu);
        ++totals.arrivals;
        ++acc.arrivals;
      }
      pool->Submit([&svc, &mu, &totals, &acc, req] {
        const service::EstimateOutcome out = svc.Estimate(req);
        std::lock_guard<std::mutex> lock(mu);
        Classify(out, &totals, &acc);
      });
    }
  };
  const uint64_t first = arrivals.Next(0);
  if (first < sc.duration_us) eng.At(first, [&arrive] { arrive(); });

  eng.Run(sc.duration_us);
  eng.Drain();  // completions past the arrival horizon
  pool.reset();  // joins the workers; all concurrent tallies are in
  // Shadow first: a late drift verdict may still schedule a rebuild,
  // which the maintenance drain then waits out (retries included).
  svc.DrainShadow();
  if (sc.live) svc.DrainMaintenance(60'000);

  result.totals = totals;
  result.fingerprint = TrajectoryFingerprint(result.trajectory, totals);
  result.invariants = CheckDrainInvariants(totals, svc, sc, eng.pending());
  if (!result.invariants.ok() && svc.flight() != nullptr &&
      svc.flight()->enabled()) {
    // Post-mortem: a violated drain invariant dumps the black-box
    // flight recorder — the event ring right up to the failure — as one
    // parseable JSON line on stderr next to the invariant report.
    std::fprintf(stderr, "flight-recorder dump (%s): %s\n", sc.name.c_str(),
                 svc.FlightzJson().c_str());
  }
  faults.Reset();
  return result;
}

}  // namespace xee::sim
