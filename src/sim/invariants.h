#ifndef XEE_SIM_INVARIANTS_H_
#define XEE_SIM_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/service.h"
#include "sim/scenario.h"

namespace xee::sim {

/// The simulator's own ground-truth tallies, bumped once per event on
/// the driving thread (mutex-guarded in workers>0 mode). These are the
/// primary conservation ledger; the service's obs counters are checked
/// *against* them, not trusted instead of them — a service with its
/// obs surfaces switched off still verifies conservation.
struct SimTotals {
  uint64_t arrivals = 0;

  // Every arrival lands in exactly one bucket below.
  uint64_t ok_full = 0;      ///< answered, full fidelity
  uint64_t ok_degraded = 0;  ///< answered with the degraded tag
  uint64_t shed = 0;         ///< kOverloaded from admission control
  uint64_t deadline_exceeded = 0;
  uint64_t not_found = 0;    ///< unknown tenant
  uint64_t unavailable = 0;  ///< quarantined synopsis / fidelity refusal
  uint64_t errored = 0;      ///< parse errors, injected alloc failures, rest

  // Virtual-load slot ledger (workers == 0 mode): every successful
  // HoldInflightSlot must be balanced by one ReleaseInflightSlot.
  uint64_t holds = 0;
  uint64_t releases = 0;

  uint64_t reloads = 0;  ///< RegisterSerialized reload events executed

  // Live-maintenance ledger (all zero unless Scenario::live). Every
  // attempted delta batch is either applied or cleanly rejected;
  // stale_marks counts applied batches that exhausted the patch-error
  // budget (each one is an auto-rebuild trigger under auto_rebuild);
  // epoch_regressions counts ApplyDelta outcomes whose published epoch
  // failed to strictly increase — always a bug, never load-dependent.
  uint64_t deltas_attempted = 0;
  uint64_t deltas_applied = 0;
  uint64_t deltas_rejected = 0;
  uint64_t stale_marks = 0;
  uint64_t epoch_regressions = 0;

  uint64_t Answered() const { return ok_full + ok_degraded; }
  uint64_t Accounted() const {
    return Answered() + shed + deadline_exceeded + not_found + unavailable +
           errored;
  }
};

/// One named conservation property, checked at drain.
struct Property {
  std::string name;
  bool ok = false;
  std::string detail;  ///< the numbers, for the failure message / JSON
};

struct InvariantReport {
  std::vector<Property> properties;

  bool ok() const {
    for (const Property& p : properties) {
      if (!p.ok) return false;
    }
    return true;
  }
  /// "8/8 ok" or "7/8 ok; FAIL request-conservation: ...".
  std::string Summary() const;
  std::string ToJson() const;
};

/// Checks every drain invariant: request conservation, slot balance, a
/// drained engine, obs-counter cross-checks,
/// accuracy-sample conservation, SLO alert conservation (fired ==
/// resolved + still-burning, for scenarios with SLOs), and per-site
/// chaos budgets. Call only
/// after Engine::Drain() and DrainShadow() — the properties assume a
/// quiesced system.
InvariantReport CheckDrainInvariants(const SimTotals& totals,
                                     service::EstimationService& service,
                                     const Scenario& scenario,
                                     size_t engine_pending);

}  // namespace xee::sim

#endif  // XEE_SIM_INVARIANTS_H_
