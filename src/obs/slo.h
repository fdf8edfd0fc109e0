#ifndef XEE_OBS_SLO_H_
#define XEE_OBS_SLO_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"

/// Declarative SLO engine with multi-window burn-rate alerting
/// (DESIGN.md §16). Each SloSpec names the time-series it reads and an
/// objective; Evaluate() computes a fast-window and a slow-window burn
/// rate and drives a deterministic per-SLO alert state machine:
///
///   inactive -> firing -> active -> resolved -> inactive
///
/// The burn rate is error_rate / error_budget for availability-style
/// SLOs (budget = 1 - objective) and worst_value / objective for
/// threshold-style SLOs (latency p99, q-error gauges), so "burn 1.0"
/// always means "exactly consuming the objective". An alert needs the
/// fast AND the slow window over their thresholds to fire — the classic
/// multi-window guard: the fast window gives low detection latency, the
/// slow window keeps one bad scrape from paging — and it resolves as
/// soon as either window recovers. Transitions conserve: over any run,
/// fired == resolved + currently-burning, which the simulator checks as
/// a drain invariant.
///
/// Everything is driver-clocked through the TimeSeriesStore, so a
/// virtual-time trajectory produces bit-identical alert transitions.
namespace xee::obs {

enum class SloKind : uint8_t {
  /// 1 - bad/total over the window must stay >= objective.
  /// Reads total_series and bad_series (delta series, summed).
  kAvailability = 0,
  /// The worst value_series point in the window must stay <= objective
  /// (per-interval p99 sub-series, units of the series).
  kLatency = 1,
  /// Like kLatency for an arbitrary level series (q-error gauges).
  kThreshold = 2,
};

inline std::string_view SloKindName(SloKind k) {
  switch (k) {
    case SloKind::kAvailability: return "availability";
    case SloKind::kLatency: return "latency";
    case SloKind::kThreshold: return "threshold";
  }
  return "unknown";
}

struct SloSpec {
  std::string name;  ///< alert identity, e.g. "availability"
  SloKind kind = SloKind::kAvailability;
  /// Availability target in [0,1) for kAvailability; the value ceiling
  /// (series units) for kLatency/kThreshold.
  double objective = 0.999;
  /// kAvailability inputs: total events and bad events per interval.
  std::string total_series;
  std::vector<std::string> bad_series;
  /// kLatency/kThreshold input.
  std::string value_series;
  /// The two windows and their burn thresholds. Threshold-style SLOs
  /// express "value over objective" as a burn ratio too, so 1.0 means
  /// "at the objective"; availability defaults follow the standard
  /// fast-page/slow-page split.
  uint64_t fast_window_us = 5'000'000;
  uint64_t slow_window_us = 30'000'000;
  double fast_burn = 14.0;
  double slow_burn = 6.0;
};

enum class AlertState : uint8_t {
  kInactive = 0,
  kFiring = 1,    ///< burn condition just became true
  kActive = 2,    ///< still true on a later evaluation
  kResolved = 3,  ///< condition cleared; decays to inactive next eval
};

inline std::string_view AlertStateName(AlertState s) {
  switch (s) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kFiring: return "firing";
    case AlertState::kActive: return "active";
    case AlertState::kResolved: return "resolved";
  }
  return "unknown";
}

/// Point-in-time view of one SLO's alert.
struct AlertStatus {
  std::string slo;
  SloKind kind = SloKind::kAvailability;
  AlertState state = AlertState::kInactive;
  double objective = 0;
  double fast_burn = 0;  ///< last evaluated burn rates
  double slow_burn = 0;
  uint64_t fired = 0;    ///< cumulative inactive/resolved -> firing
  uint64_t resolved = 0; ///< cumulative firing/active -> resolved
  uint64_t since_us = 0; ///< evaluation time of the last state change
};

/// Thread-safety: Evaluate and the read-side methods may be called from
/// any thread; one mutex guards the alert table.
class SloEngine {
 public:
  /// `ts` and `registry` must outlive the engine. Transition counters
  /// register as "slo.alert{slo=NAME,transition=fired|resolved}".
  SloEngine(const TimeSeriesStore* ts, Registry* registry,
            std::vector<SloSpec> specs);

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Observes every state transition (flight-recorder wiring). Called
  /// under the engine mutex — keep it cheap and non-reentrant.
  using TransitionHook = std::function<void(
      const SloSpec&, AlertState from, AlertState to, uint64_t now_us)>;
  void SetTransitionHook(TransitionHook hook);

  /// Re-evaluates every SLO against the time-series at `now_us`.
  /// Deterministic: equal series content and equal evaluation times
  /// produce equal transitions.
  void Evaluate(uint64_t now_us);

  uint64_t evaluations() const;
  std::vector<AlertStatus> Alerts() const;
  /// Sum over SLOs, for conservation checks: fired == resolved + the
  /// number of alerts currently firing or active.
  uint64_t TotalFired() const;
  uint64_t TotalResolved() const;
  uint64_t BurningCount() const;

  /// The .alertz rendering: evaluations plus one object per SLO with
  /// spec, live burn rates, state, and transition counters.
  std::string ToJson() const;

 private:
  struct AlertSlot {
    SloSpec spec;
    AlertState state = AlertState::kInactive;
    double fast_burn = 0;
    double slow_burn = 0;
    uint64_t fired = 0;
    uint64_t resolved = 0;
    uint64_t since_us = 0;
    Counter* fired_counter = nullptr;
    Counter* resolved_counter = nullptr;
  };

  double BurnOver(const SloSpec& spec, uint64_t window_us,
                  uint64_t now_us) const;
  void Transition(AlertSlot* slot, AlertState to, uint64_t now_us);

  const TimeSeriesStore* ts_;

  mutable std::mutex mu_;
  std::vector<AlertSlot> alerts_;  // guarded by mu_
  uint64_t evaluations_ = 0;       // guarded by mu_
  TransitionHook hook_;            // guarded by mu_
};

}  // namespace xee::obs

#endif  // XEE_OBS_SLO_H_
