#include "sim/invariants.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/fault.h"

namespace xee::sim {
namespace {

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

void Check(InvariantReport* report, std::string name, bool ok,
           std::string detail) {
  report->properties.push_back(
      Property{std::move(name), ok, std::move(detail)});
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += Format("\\u%04x", c);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string InvariantReport::Summary() const {
  size_t passed = 0;
  for (const Property& p : properties) passed += p.ok ? 1 : 0;
  std::string out = Format("%zu/%zu ok", passed, properties.size());
  for (const Property& p : properties) {
    if (!p.ok) out += Format("; FAIL %s: %s", p.name.c_str(),
                             p.detail.c_str());
  }
  return out;
}

std::string InvariantReport::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < properties.size(); ++i) {
    const Property& p = properties[i];
    if (i) out += ",";
    out += Format("{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}",
                  JsonEscape(p.name).c_str(), p.ok ? "true" : "false",
                  JsonEscape(p.detail).c_str());
  }
  out += "]";
  return out;
}

InvariantReport CheckDrainInvariants(const SimTotals& totals,
                                     service::EstimationService& service,
                                     const Scenario& scenario,
                                     size_t engine_pending) {
  InvariantReport report;

  // 1. Request conservation: every arrival landed in exactly one
  // outcome bucket. The cornerstone — a lost or double-counted request
  // breaks it no matter which path mis-tallied.
  Check(&report, "request-conservation",
        totals.arrivals == totals.Accounted(),
        Format("arrivals=%" PRIu64 " accounted=%" PRIu64 " (ok=%" PRIu64
               " degraded=%" PRIu64 " shed=%" PRIu64 " deadline=%" PRIu64
               " not_found=%" PRIu64 " unavailable=%" PRIu64
               " errored=%" PRIu64 ")",
               totals.arrivals, totals.Accounted(), totals.ok_full,
               totals.ok_degraded, totals.shed, totals.deadline_exceeded,
               totals.not_found, totals.unavailable, totals.errored));

  // 2. Virtual-slot balance: every held admission slot was released by
  // its completion event.
  Check(&report, "slot-balance", totals.holds == totals.releases,
        Format("holds=%" PRIu64 " releases=%" PRIu64, totals.holds,
               totals.releases));

  // 3. The engine has no queued events: drain was complete.
  Check(&report, "engine-drained", engine_pending == 0,
        Format("pending=%zu", engine_pending));

  const service::ServiceStatsSnapshot stats = service.Stats();

  // 4. In-flight gauge at zero: admission slots (real and virtual) all
  // returned.
  Check(&report, "inflight-zero", stats.inflight == 0,
        Format("inflight=%" PRId64, stats.inflight));

  // 5. Obs cross-checks: the service's counters agree with the
  // simulator's independent ledger.
  Check(&report, "obs-requests", stats.requests == totals.arrivals,
        Format("service.requests=%" PRIu64 " arrivals=%" PRIu64,
               stats.requests, totals.arrivals));
  Check(&report, "obs-shed",
        stats.shed == totals.shed &&
            stats.shed == stats.shed_single + stats.shed_batch,
        Format("service.shed=%" PRIu64 " (single=%" PRIu64 " batch=%" PRIu64
               ") sim.shed=%" PRIu64,
               stats.shed, stats.shed_single, stats.shed_batch, totals.shed));
  Check(&report, "obs-degraded", stats.degraded == totals.ok_degraded,
        Format("service.degraded=%" PRIu64 " sim.degraded=%" PRIu64,
               stats.degraded, totals.ok_degraded));
  // Each request lands in at most one answer-cache outcome (errors
  // before or outside the cache land in none).
  Check(&report, "obs-cache-outcomes",
        stats.exact_hits + stats.canonical_hits + stats.misses <=
            stats.requests,
        Format("exact=%" PRIu64 " canonical=%" PRIu64 " miss=%" PRIu64
               " requests=%" PRIu64,
               stats.exact_hits, stats.canonical_hits, stats.misses,
               stats.requests));

  // 6. Accuracy-sample conservation: every started sample reached
  // exactly one terminal counter, and the shadow backlog is empty.
  if (scenario.accuracy_sample > 0) {
    obs::Registry& reg = service.obs();
    const uint64_t started =
        reg.GetCounter("accuracy.samples", "phase=started").value();
    const uint64_t closed =
        reg.GetCounter("accuracy.samples", "phase=recorded").value() +
        reg.GetCounter("accuracy.samples", "phase=skipped_no_document")
            .value() +
        reg.GetCounter("accuracy.samples", "phase=deadline_suppressed")
            .value() +
        reg.GetCounter("accuracy.samples", "phase=backlog_suppressed")
            .value() +
        reg.GetCounter("accuracy.samples", "phase=eval_error").value();
    Check(&report, "accuracy-conservation",
          started == closed && service.accuracy().pending() == 0,
          Format("started=%" PRIu64 " closed=%" PRIu64 " pending=%" PRIu64,
                 started, closed, service.accuracy().pending()));
  }

  // 7. Alert conservation (scenarios with SLOs): over the whole run,
  // every fired alert either resolved or is still burning at drain —
  // the state machine cannot lose or double-count a transition. The
  // per-alert registry counters must agree with the engine's own
  // tallies.
  if (!scenario.slos.empty() && service.slo() != nullptr) {
    const uint64_t fired = service.slo()->TotalFired();
    const uint64_t resolved = service.slo()->TotalResolved();
    const uint64_t burning = service.slo()->BurningCount();
    bool counters_agree = true;
    obs::Registry& reg = service.obs();
    for (const obs::AlertStatus& a : service.slo()->Alerts()) {
      counters_agree =
          counters_agree &&
          reg.CounterValue("slo.alert", "slo=" + a.slo +
                                            ",transition=fired") == a.fired &&
          reg.CounterValue("slo.alert", "slo=" + a.slo +
                                            ",transition=resolved") ==
              a.resolved;
    }
    Check(&report, "alert-conservation",
          fired == resolved + burning && counters_agree,
          Format("fired=%" PRIu64 " resolved=%" PRIu64 " burning=%" PRIu64
                 " counters_agree=%d",
                 fired, resolved, burning, counters_agree ? 1 : 0));
  }

  // 8. Chaos budgets: no armed site fired more than its max_fires, and
  // never more often than it was hit.
  FaultInjector& faults = FaultInjector::Global();
  for (const ChaosWindow& w : scenario.chaos) {
    const uint64_t fires = faults.FireCount(w.site);
    const uint64_t hits = faults.HitCount(w.site);
    Check(&report, "chaos-budget:" + w.site,
          fires <= w.config.max_fires && fires <= hits,
          Format("fires=%" PRIu64 " hits=%" PRIu64 " max_fires=%" PRIu64,
                 fires, hits, w.config.max_fires));
  }

  // 9. Live-maintenance ledgers (after DrainMaintenance).
  if (scenario.live) {
    uint64_t applied = 0, rejected = 0, scheduled = 0, completed = 0,
             abandoned = 0;
    bool drained = true;   // no row still mid-rebuild
    bool settled = true;   // no row left stale (self-heal ran)
    for (const service::MaintenanceRow& r : service.maintenance().Rows()) {
      applied += r.deltas_applied;
      rejected += r.deltas_rejected;
      scheduled += r.rebuilds_scheduled;
      completed += r.rebuilds_completed;
      abandoned += r.rebuilds_abandoned;
      drained = drained && r.state != service::MaintenanceState::kRebuilding;
      settled = settled && r.state != service::MaintenanceState::kStale;
    }

    // Delta conservation: the simulator's own attempt ledger matches
    // the applied + rejected split, and the manager counted the same
    // events.
    Check(&report, "delta-conservation",
          totals.deltas_attempted ==
                  totals.deltas_applied + totals.deltas_rejected &&
              applied == totals.deltas_applied &&
              rejected == totals.deltas_rejected,
          Format("attempted=%" PRIu64 " applied=%" PRIu64 " rejected=%" PRIu64
                 " maint.applied=%" PRIu64 " maint.rejected=%" PRIu64,
                 totals.deltas_attempted, totals.deltas_applied,
                 totals.deltas_rejected, applied, rejected));

    // Rebuild conservation: every non-coalesced schedule terminated —
    // completed or abandoned — and nothing is still in flight after
    // the drain. Retries and restarts are intermediate states, not
    // terminal ones, so they don't appear in the balance.
    Check(&report, "rebuild-ledger",
          drained && scheduled == completed + abandoned,
          Format("scheduled=%" PRIu64 " completed=%" PRIu64
                 " abandoned=%" PRIu64 " drained=%d",
                 scheduled, completed, abandoned, drained ? 1 : 0));

    // Epoch monotonicity: every ApplyDelta publish strictly advanced
    // the tenant's epoch — an estimate can never have been answered
    // from a retired snapshot's cache namespace.
    Check(&report, "epoch-monotonic", totals.epoch_regressions == 0,
          Format("regressions=%" PRIu64, totals.epoch_regressions));

    // Self-healing closed the loop: if any batch exhausted the budget
    // (healthy -> stale), at least one rebuild published and no tenant
    // is still stale at drain. Only meaningful under the auto_rebuild
    // policy — report-only scenarios legitimately end stale.
    if (scenario.auto_rebuild) {
      Check(&report, "self-heal",
            totals.stale_marks == 0 || (completed >= 1 && settled),
            Format("stale_marks=%" PRIu64 " completed=%" PRIu64
                   " settled=%d",
                   totals.stale_marks, completed, settled ? 1 : 0));
    }
  }

  return report;
}

}  // namespace xee::sim
