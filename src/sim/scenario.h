#ifndef XEE_SIM_SCENARIO_H_
#define XEE_SIM_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "obs/slo.h"
#include "sim/arrivals.h"
#include "sim/traffic.h"

namespace xee::sim {

/// A chaos entry: arm `site` with `config` for the whole run. The
/// window_start / window_end fields of the config are in *virtual
/// microseconds* — the simulator feeds the engine clock to
/// FaultInjector::AdvanceTime, so the fault can only fire while the
/// virtual clock is inside the window.
struct ChaosWindow {
  std::string site;
  FaultConfig config;
  /// The site fires from a background thread (rebuild workers), so its
  /// per-window fire attribution is wall-clock-dependent: reported in
  /// the trajectory but excluded from the determinism fingerprint.
  /// Sites reached only from the driving thread leave this false.
  bool background = false;
};

/// A periodic stream of delta batches against the live tenants
/// (round-robin across batches), applied on the driving thread at
/// virtual times. Each batch draws ops_per_delta mutations: a
/// novel-tag subtree insert with probability novel_prob (charges patch
/// error — the knob that drives the budget toward exhaustion), a
/// subtree delete with probability delete_prob, a sibling clone
/// otherwise (exactly patchable, charges nothing).
struct DeltaBurst {
  uint64_t start_us = 0;
  uint64_t period_us = 100'000;
  size_t count = 0;
  size_t ops_per_delta = 1;
  double novel_prob = 0.0;
  double delete_prob = 0.0;
};

/// Everything that defines one reproducible simulation run. Two runs of
/// the same Scenario produce the same arrival sequence, the same
/// queries, the same shed/degrade decisions, and the same trajectory
/// fingerprint (workers == 0; see Scenario::workers).
struct Scenario {
  std::string name;
  uint64_t seed = 1;

  /// Arrival horizon; completions past it still drain.
  uint64_t duration_us = 10'000'000;
  /// Trajectory sampling period (one WindowRow per window).
  uint64_t window_us = 1'000'000;

  ArrivalModel arrival;
  TrafficModel traffic;

  // --- service shape ---
  size_t tenants = 4;
  std::string dataset = "ssplays";  ///< datagen dataset per tenant
  double dataset_scale = 0.05;
  size_t max_inflight = 64;
  size_t plan_cache_bytes = 8ull << 20;
  size_t accuracy_sample = 0;  ///< 0 = shadow sampling off

  /// Virtual service time of an admitted, successful request:
  /// service_min_us plus an exponential with mean service_exp_us. This
  /// is how long the request *holds its admission slot* in virtual
  /// time; the real single-threaded Estimate() call is instantaneous
  /// as far as the virtual clock is concerned.
  uint64_t service_min_us = 1'000;
  uint64_t service_exp_us = 19'000;

  /// Re-register each tenant from its serialized blob every period (0 =
  /// never): exercises epoch bumps, cache invalidation by epoch key,
  /// and — with a registry.bitrot chaos window — the salvage /
  /// quarantine paths mid-traffic.
  uint64_t reload_period_us = 0;

  // --- live maintenance (DESIGN.md §14) ---
  /// Register every tenant as a *live document* through the maintenance
  /// manager (RegisterLive) instead of a frozen blob: delta bursts
  /// patch the synopsis incrementally under traffic and background
  /// rebuilds restore exactness. Do not combine with reload_period_us —
  /// a blob reload would replace the live snapshot lineage.
  bool live = false;
  /// Self-healing policy for live tenants (ServiceOptions fields of the
  /// same names): a stale verdict — budget exhaustion or drift
  /// conviction — auto-schedules a background rebuild.
  bool auto_rebuild = false;
  double patch_error_budget = 0.05;
  uint64_t drift_min_samples = 32;
  std::vector<DeltaBurst> deltas;

  // --- flight-data observability (DESIGN.md §16) ---
  /// Virtual-time scrape cadence of the service's time-series store
  /// (ServiceOptions::ts_interval_us). When > 0 the simulator schedules
  /// ObsTick events on the engine at this cadence, so the scraped
  /// series — and every SLO alert transition computed over them — are a
  /// pure function of the scenario and replay bit-for-bit. 0 keeps
  /// flight-data scraping off (the historical scenarios).
  uint64_t ts_interval_us = 0;
  /// Declarative SLOs evaluated at each scrape. Only counter-derived
  /// specs (availability) are deterministic under virtual time; latency
  /// and q-error specs read wall-clock-measured series and would make
  /// the alert trajectory — which IS fingerprinted — timing-dependent.
  std::vector<obs::SloSpec> slos;

  std::vector<ChaosWindow> chaos;

  /// 0 = deterministic single-threaded virtual-time mode (the default;
  /// fingerprints are stable). > 0 = dispatch real Estimate() calls to
  /// a thread pool of this size — virtual slot-holding is skipped, the
  /// fingerprint is not stable, but drain invariants must still hold.
  /// This is the TSan mode.
  size_t workers = 0;
};

/// Multiplies every duration-like knob (duration, window, arrival
/// phases/period, chaos windows, reload period) by `factor`, keeping
/// rates and sizes fixed — a 0.1-scaled scenario is the same shape, ten
/// times shorter. Used by --duration-ms and the smoke test.
Scenario ScaledScenario(Scenario s, double factor);

/// The named scenario families: Poisson steady-state, bursty overload
/// with a chaos window, diurnal ramp with an alias storm, live
/// documents under delta churn with drift-triggered self-healing, and
/// the long-tail semantic-alias storm.
Scenario PoissonSteady();
Scenario BurstyOverloadChaos();
Scenario DiurnalAliasStorm();
Scenario LiveUpdateChurn();
/// A long-tail workload (shallow Zipf over many families) where half
/// the requests respell their family semantically ("/ROOT//..." for
/// "//...", its own answer-cache key), against a deliberately small
/// answer cache, with impossible tag edges that the analyzer prunes.
Scenario IntelAliasStorm();
/// Bursty overload through the flight-data pipeline: the burst's
/// shed + deadline failures burn the availability SLO's error budget,
/// the multi-window alert fires mid-burst and resolves in the off
/// phase, and the whole alert trajectory (fired/resolved/burning per
/// window) is part of the determinism fingerprint. The drain invariant
/// pins alert conservation: fired == resolved + still-burning.
Scenario SloBurn();

std::vector<std::string> ScenarioNames();

/// Scenario by name, or false when unknown.
bool ScenarioByName(const std::string& name, Scenario* out);

}  // namespace xee::sim

#endif  // XEE_SIM_SCENARIO_H_
