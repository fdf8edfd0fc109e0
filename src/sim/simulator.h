#ifndef XEE_SIM_SIMULATOR_H_
#define XEE_SIM_SIMULATOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/invariants.h"
#include "sim/scenario.h"

namespace xee::sim {

/// One trajectory sample: what happened between the previous window
/// close and t_end_us. The *deterministic* columns (arrival and outcome
/// tallies, virtual queue depth, chaos fire counts) are a pure function
/// of the scenario and feed the fingerprint; the *measured* columns
/// (latency quantiles, shadow activity) are scraped from the obs
/// registry for the trajectory report but excluded from the fingerprint
/// — they depend on the wall clock and thread timing.
struct WindowRow {
  uint64_t t_end_us = 0;

  // Deterministic (fingerprinted).
  uint64_t arrivals = 0;
  uint64_t ok_full = 0;
  uint64_t ok_degraded = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t not_found = 0;
  uint64_t unavailable = 0;
  uint64_t errored = 0;
  uint64_t vqueue = 0;  ///< virtual slots held at window close
  /// Delta batches applied / rejected this window (live scenarios;
  /// driving-thread events at virtual times, so deterministic).
  uint64_t deltas_applied = 0;
  uint64_t deltas_rejected = 0;
  /// SLO alert transitions this window and alerts burning at window
  /// close (scenarios with Scenario::slos). Deterministic: ObsTick runs
  /// at virtual times over counter-derived series, so the whole alert
  /// trajectory replays bit-for-bit and is fingerprinted.
  uint64_t alerts_fired = 0;
  uint64_t alerts_resolved = 0;
  uint64_t alerts_burning = 0;
  /// Chaos fires per armed driving-thread site, delta over this window.
  std::vector<std::pair<std::string, uint64_t>> fault_fires;

  // Measured (reported, not fingerprinted).
  obs::HistogramSnapshot request_ns;      ///< timed-request latency, delta
  obs::HistogramSnapshot retry_after_ms;  ///< shed retry hints, delta
  uint64_t shadow_recorded = 0;           ///< accuracy samples, delta
  /// Requests answered 0 by the analyzer's unsat proof, delta. Reported,
  /// not fingerprinted: the served outcomes already fix the answers, and
  /// folding the label in would move every recorded fingerprint.
  uint64_t analyzer_pruned = 0;
  uint64_t rebuilds_done = 0;  ///< background rebuilds published, delta;
                               ///< wall-clock timing, hence not
                               ///< fingerprinted
  /// Fires of ChaosWindow::background sites (rebuild workers): window
  /// attribution is wall-clock timing, hence not fingerprinted.
  std::vector<std::pair<std::string, uint64_t>> background_fires;

  /// One BENCH-style JSON object (bench "simulate").
  std::string ToJson(const std::string& scenario) const;
};

/// A finished run: the trajectory, the drain-time ledger, the invariant
/// verdicts, and the determinism fingerprint.
struct SimResult {
  Scenario scenario;
  std::vector<WindowRow> trajectory;
  SimTotals totals;
  InvariantReport invariants;
  /// StableHash64 over the deterministic trajectory columns and the
  /// final totals. Two runs of the same scenario (workers == 0) must
  /// produce the same fingerprint; the determinism test pins this.
  uint64_t fingerprint = 0;

  bool ok() const { return invariants.ok(); }
  /// The run's summary JSON row (totals + fingerprint + invariants).
  std::string SummaryJson() const;
};

/// Fingerprint helper, exposed for the determinism test.
uint64_t TrajectoryFingerprint(const std::vector<WindowRow>& trajectory,
                               const SimTotals& totals);

/// Runs `scenario` to completion: builds the dataset and service,
/// registers the tenants, arms the chaos schedule, drives the virtual
/// clock through arrivals / completions / reloads / window closes,
/// drains, and checks the drain invariants. Resets the global
/// FaultInjector on entry and exit.
SimResult RunScenario(const Scenario& scenario);

}  // namespace xee::sim

#endif  // XEE_SIM_SIMULATOR_H_
