#include "sim/scenario.h"

#include <cmath>

#include "common/deadline.h"
#include "delta/document_delta.h"
#include "estimator/estimator.h"
#include "service/maintenance.h"
#include "service/service.h"
#include "service/synopsis_registry.h"

namespace xee::sim {
namespace {

uint64_t ScaleUs(uint64_t us, double factor) {
  const double scaled = static_cast<double>(us) * factor;
  if (scaled < 1.0) return us == 0 ? 0 : 1;
  return static_cast<uint64_t>(scaled);
}

}  // namespace

Scenario ScaledScenario(Scenario s, double factor) {
  s.duration_us = ScaleUs(s.duration_us, factor);
  s.window_us = ScaleUs(s.window_us, factor);
  s.arrival.mean_on_us = ScaleUs(s.arrival.mean_on_us, factor);
  s.arrival.mean_off_us = ScaleUs(s.arrival.mean_off_us, factor);
  s.arrival.period_us = ScaleUs(s.arrival.period_us, factor);
  s.reload_period_us = ScaleUs(s.reload_period_us, factor);
  s.ts_interval_us = ScaleUs(s.ts_interval_us, factor);
  for (obs::SloSpec& spec : s.slos) {
    spec.fast_window_us = ScaleUs(spec.fast_window_us, factor);
    spec.slow_window_us = ScaleUs(spec.slow_window_us, factor);
  }
  for (DeltaBurst& b : s.deltas) {
    b.start_us = ScaleUs(b.start_us, factor);
    b.period_us = ScaleUs(b.period_us, factor);
  }
  for (ChaosWindow& w : s.chaos) {
    w.config.window_start = ScaleUs(w.config.window_start, factor);
    if (w.config.window_end != UINT64_MAX) {
      w.config.window_end = ScaleUs(w.config.window_end, factor);
    }
  }
  return s;
}

Scenario PoissonSteady() {
  Scenario s;
  s.name = "poisson_steady";
  s.seed = 601;
  s.duration_us = 10'000'000;
  s.window_us = 1'000'000;

  s.arrival.kind = ArrivalModel::Kind::kPoisson;
  s.arrival.rate_qps = 400.0;

  // Offered virtual concurrency ~= 400 qps * 20ms = 8 slots on average,
  // far under the budget: the healthy baseline. A trickle of garbage,
  // aliases, and pre-expired deadlines keeps every outcome counter
  // nonzero without changing the steady-state story.
  s.tenants = 4;
  s.dataset = "ssplays";
  s.dataset_scale = 0.05;
  s.max_inflight = 64;
  s.accuracy_sample = 4;
  s.service_min_us = 1'000;
  s.service_exp_us = 19'000;

  s.traffic.tenant_zipf_s = 1.1;
  s.traffic.families_per_tenant = 48;
  s.traffic.query_zipf_s = 1.0;
  s.traffic.alias_prob = 0.10;
  s.traffic.garbage_prob = 0.02;
  s.traffic.unknown_tenant_prob = 0.01;
  s.traffic.p_infinite = 0.85;
  s.traffic.p_expired = 0.02;
  s.traffic.finite_ms = 1'000;
  return s;
}

Scenario BurstyOverloadChaos() {
  Scenario s;
  s.name = "bursty_overload_chaos";
  s.seed = 602;
  s.duration_us = 12'000'000;
  s.window_us = 500'000;

  s.arrival.kind = ArrivalModel::Kind::kBursty;
  s.arrival.rate_qps = 100.0;
  s.arrival.burst_rate_qps = 3'000.0;
  s.arrival.mean_on_us = 800'000;
  s.arrival.mean_off_us = 1'200'000;

  // Virtual capacity ~= 8 slots / 30ms = 266 qps: bursts at 3000 qps
  // must shed hard, the off-phases drain. Shadow sampling stays off —
  // shadow evaluation calls Deadline::HasExpired from pool threads,
  // which would consume deadline.expire probability draws in
  // thread-timing order and break the fingerprint.
  s.tenants = 3;
  s.dataset = "dblp";
  s.dataset_scale = 0.05;
  s.max_inflight = 8;
  s.accuracy_sample = 0;
  s.service_min_us = 2'000;
  s.service_exp_us = 28'000;

  s.traffic.tenant_zipf_s = 1.0;
  s.traffic.families_per_tenant = 32;
  s.traffic.query_zipf_s = 1.1;
  s.traffic.alias_prob = 0.05;
  s.traffic.garbage_prob = 0.05;
  s.traffic.unknown_tenant_prob = 0.02;
  s.traffic.p_infinite = 0.80;
  s.traffic.p_expired = 0.02;
  s.traffic.finite_ms = 2'000;

  // Mid-run chaos: deadlines start lying (every 4th check expires
  // spuriously) for the middle third, with an allocation-failure streak
  // overlapping it. Both sites are only reached from the main thread
  // here, so the draw order — and the fingerprint — stay deterministic.
  {
    ChaosWindow w;
    w.site = std::string(Deadline::kFaultSite);
    w.config.probability = 0.25;
    w.config.seed = 71;
    w.config.window_start = 4'000'000;
    w.config.window_end = 8'000'000;
    s.chaos.push_back(w);
  }
  {
    ChaosWindow w;
    w.site = std::string(estimator::Estimator::kAllocFaultSite);
    // The alloc site is only hit on answer-cache misses — rare once the
    // cache warms — so the probability is high to make the window
    // visible in the fire trajectory.
    w.config.probability = 0.35;
    w.config.seed = 72;
    w.config.max_fires = 200;
    w.config.window_start = 5'000'000;
    w.config.window_end = 7'000'000;
    s.chaos.push_back(w);
  }
  return s;
}

Scenario DiurnalAliasStorm() {
  Scenario s;
  s.name = "diurnal_alias_storm";
  s.seed = 603;
  s.duration_us = 12'000'000;
  s.window_us = 1'000'000;

  s.arrival.kind = ArrivalModel::Kind::kDiurnal;
  s.arrival.rate_qps = 300.0;
  s.arrival.amplitude = 0.8;
  s.arrival.period_us = 6'000'000;  // two compressed "days"

  // The cache-adversarial mix: 70% of requests respell their family
  // under a fresh exact key against a deliberately small answer cache,
  // periodic reloads bump epochs (every cached key dies with its
  // epoch), and a bitrot window corrupts two of the reloads — one
  // tenant rides the salvage/quarantine path while traffic continues.
  s.tenants = 8;
  s.dataset = "xmark";
  s.dataset_scale = 0.05;
  s.max_inflight = 128;
  s.plan_cache_bytes = 256 << 10;
  s.accuracy_sample = 8;
  s.service_min_us = 500;
  s.service_exp_us = 4'500;
  s.reload_period_us = 1'500'000;

  s.traffic.tenant_zipf_s = 1.2;
  s.traffic.families_per_tenant = 96;
  s.traffic.query_zipf_s = 1.0;
  s.traffic.alias_prob = 0.70;
  s.traffic.garbage_prob = 0.01;
  s.traffic.unknown_tenant_prob = 0.0;
  s.traffic.p_infinite = 0.90;
  s.traffic.p_expired = 0.01;
  s.traffic.finite_ms = 2'000;

  {
    // registry.bitrot is reached only from the main thread's reload
    // events, so it is fingerprint-safe. probability 1: every reload
    // inside the window ingests a corrupted blob.
    ChaosWindow w;
    w.site = std::string(service::SynopsisRegistry::kBitrotFaultSite);
    w.config.probability = 1.0;
    w.config.seed = 73;
    w.config.window_start = 6'000'000;
    w.config.window_end = 9'000'000;
    s.chaos.push_back(w);
  }
  return s;
}

Scenario LiveUpdateChurn() {
  Scenario s;
  s.name = "live_update_churn";
  s.seed = 604;
  s.duration_us = 8'000'000;
  s.window_us = 1'000'000;

  s.arrival.kind = ArrivalModel::Kind::kPoisson;
  s.arrival.rate_qps = 250.0;

  // Two live tenants under moderate steady traffic: the story here is
  // maintenance, not admission control. Shadow sampling stays on so the
  // drift pipeline audits the *patched* estimates end to end.
  s.tenants = 2;
  s.dataset = "ssplays";
  s.dataset_scale = 0.02;
  s.max_inflight = 64;
  s.accuracy_sample = 4;
  s.service_min_us = 1'000;
  s.service_exp_us = 15'000;

  s.traffic.tenant_zipf_s = 1.0;
  s.traffic.families_per_tenant = 32;
  s.traffic.query_zipf_s = 1.0;
  s.traffic.alias_prob = 0.05;
  s.traffic.garbage_prob = 0.01;
  s.traffic.unknown_tenant_prob = 0.01;
  s.traffic.p_infinite = 0.90;
  s.traffic.p_expired = 0.01;
  s.traffic.finite_ms = 1'000;

  s.live = true;
  s.auto_rebuild = true;
  // A handful of novel-tag chains (each charging ~3 units against a
  // few-thousand-node baseline) exhausts this, flipping the tenant
  // stale and triggering the self-heal rebuild mid-skew.
  s.patch_error_budget = 0.004;
  s.drift_min_samples = 16;

  // Phase one: patch-friendly churn — sibling clones (charge zero,
  // bit-exact patches) with a trickle of deletes. The synopsis rides
  // healthy -> patched and back without ever going stale.
  {
    DeltaBurst b;
    b.start_us = 500'000;
    b.period_us = 100'000;
    b.count = 25;
    b.ops_per_delta = 2;
    b.delete_prob = 0.15;
    s.deltas.push_back(b);
  }
  // Phase two: novel-tag skew — the document grows structure the base
  // synopsis has never seen, patch error accumulates past the budget,
  // and auto-rebuild kicks in while the alloc fault window fails the
  // first attempts. The quiet tail after ~5.3s lets the retries land
  // and health return before drain.
  {
    DeltaBurst b;
    b.start_us = 3'500'000;
    b.period_us = 150'000;
    b.count = 12;
    b.ops_per_delta = 2;
    b.novel_prob = 0.7;
    b.delete_prob = 0.1;
    s.deltas.push_back(b);
  }

  {
    // One torn batch: delta.corrupt fires exactly once inside the clone
    // churn, and the batch must be rejected without moving the
    // document (the deltas_rejected ledger column comes from here).
    ChaosWindow w;
    w.site = std::string(delta::LiveDocument::kCorruptFaultSite);
    w.config.probability = 1.0;
    w.config.seed = 74;
    w.config.max_fires = 1;
    w.config.window_start = 1'000'000;
    w.config.window_end = 2'000'000;
    s.chaos.push_back(w);
  }
  {
    // Fail the first rebuild attempts in the publish path: the patched
    // synopsis keeps serving while the backoff retries run.
    ChaosWindow w;
    w.site = std::string(service::MaintenanceManager::kAllocFaultSite);
    w.config.probability = 1.0;
    w.config.seed = 75;
    w.config.max_fires = 2;
    w.config.window_start = 3'500'000;
    w.background = true;
    s.chaos.push_back(w);
  }
  {
    // Stall rebuild attempts 2ms each, widening the window in which
    // estimates must keep serving from the patched snapshot.
    ChaosWindow w;
    w.site = std::string(service::MaintenanceManager::kSlowFaultSite);
    w.config.probability = 1.0;
    w.config.payload = 2;
    w.config.seed = 76;
    w.config.max_fires = 2;
    w.config.window_start = 3'500'000;
    w.background = true;
    s.chaos.push_back(w);
  }
  return s;
}

Scenario IntelAliasStorm() {
  Scenario s;
  s.name = "intel_alias_storm";
  s.seed = 605;
  s.duration_us = 10'000'000;
  s.window_us = 1'000'000;

  s.arrival.kind = ArrivalModel::Kind::kPoisson;
  s.arrival.rate_qps = 350.0;

  // The cache-pressure stress: a long-tail family table (shallow Zipf over
  // 128 families) against a small answer cache, with *semantic*
  // respellings on top of the syntactic ones. Every "//x..." family has
  // up to three live spellings — itself, an axis-expanded alias, and the
  // root-anchored "/SITE//x..." form. The first two share a canonical
  // key by construction; the third is a different canonical query with
  // its own cache entry, so each family can hold two canonical entries
  // against the small cache.
  s.tenants = 4;
  s.dataset = "xmark";
  s.dataset_scale = 0.05;
  s.max_inflight = 128;
  s.plan_cache_bytes = 256 << 10;
  s.accuracy_sample = 0;
  s.service_min_us = 500;
  s.service_exp_us = 4'500;

  s.traffic.tenant_zipf_s = 1.0;
  s.traffic.families_per_tenant = 128;
  s.traffic.query_zipf_s = 0.6;  // long tail: cold families keep coming
  s.traffic.alias_prob = 0.30;
  s.traffic.semantic_alias_prob = 0.50;
  s.traffic.garbage_prob = 0.01;
  s.traffic.unknown_tenant_prob = 0.0;
  s.traffic.p_infinite = 0.90;
  s.traffic.p_expired = 0.01;
  s.traffic.finite_ms = 2'000;
  return s;
}

Scenario SloBurn() {
  Scenario s;
  s.name = "slo_burn";
  s.seed = 606;
  s.duration_us = 12'000'000;
  s.window_us = 500'000;

  s.arrival.kind = ArrivalModel::Kind::kBursty;
  s.arrival.rate_qps = 80.0;
  s.arrival.burst_rate_qps = 3'000.0;
  s.arrival.mean_on_us = 900'000;
  s.arrival.mean_off_us = 1'800'000;

  // The overload shape from bursty_overload_chaos, pointed at the SLO
  // engine: bursts shed hard against 8 virtual slots, the shed +
  // deadline failures feed the availability spec's bad series, and the
  // long off-phases let the fast window recover so the alert resolves
  // inside the horizon (conservation then proves the full loop ran).
  // Shadow sampling stays off for the same fingerprint reason as the
  // chaos scenario; so does per-request timing dependence — the
  // availability spec reads only exact counters.
  s.tenants = 3;
  s.dataset = "dblp";
  s.dataset_scale = 0.05;
  s.max_inflight = 8;
  s.accuracy_sample = 0;
  s.service_min_us = 2'000;
  s.service_exp_us = 28'000;

  s.traffic.tenant_zipf_s = 1.0;
  s.traffic.families_per_tenant = 32;
  s.traffic.query_zipf_s = 1.1;
  s.traffic.alias_prob = 0.05;
  s.traffic.garbage_prob = 0.03;
  s.traffic.unknown_tenant_prob = 0.01;
  s.traffic.p_infinite = 0.85;
  s.traffic.p_expired = 0.02;
  s.traffic.finite_ms = 2'000;

  // Scrape every half second; the availability SLO (and only it — see
  // Scenario::slos on why measured specs are excluded) pages when both
  // the 1.5s and the 6s window burn the 0.1% error budget at 14x/6x.
  // A burst's ~90% failure ratio burns at ~900x, so the alert fires on
  // the first scrape inside a burst and resolves once the fast window
  // is all off-phase.
  s.ts_interval_us = 500'000;
  s.slos = service::DefaultSloSpecs(0.999, 0, 0.0);
  s.slos[0].fast_window_us = 1'500'000;
  s.slos[0].slow_window_us = 6'000'000;
  return s;
}

std::vector<std::string> ScenarioNames() {
  return {"poisson_steady",    "bursty_overload_chaos",
          "diurnal_alias_storm", "live_update_churn",
          "intel_alias_storm", "slo_burn"};
}

bool ScenarioByName(const std::string& name, Scenario* out) {
  if (name == "poisson_steady") {
    *out = PoissonSteady();
  } else if (name == "bursty_overload_chaos") {
    *out = BurstyOverloadChaos();
  } else if (name == "diurnal_alias_storm") {
    *out = DiurnalAliasStorm();
  } else if (name == "live_update_churn") {
    *out = LiveUpdateChurn();
  } else if (name == "intel_alias_storm") {
    *out = IntelAliasStorm();
  } else if (name == "slo_burn") {
    *out = SloBurn();
  } else {
    return false;
  }
  return true;
}

}  // namespace xee::sim
