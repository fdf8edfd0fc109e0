#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under ThreadSanitizer and
# runs the service-layer tests, so data races in the serving path are
# caught mechanically rather than by luck. Part of the tier-2 checks;
# run from the repository root:
#
#   scripts/check_tsan.sh [extra ctest -R regex]
#
# Uses a dedicated build tree (build-tsan) so the regular build stays
# sanitizer-free.
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-ServiceTest|EstimateOptDiff|CanonicalTest|EstimatorTest|ObsTest|AccuracyTrackerTest|ShadowSamplingTest|MaintenanceTest|ServiceIntel|FlightRecorderTest|TimeSeriesTest|SloEngineTest|ServiceFlightTest}"

cmake -B build-tsan -S . -DXEE_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$(nproc)" \
  --target service_test canonical_test estimator_test obs_test \
  estimate_opt_diff_test maintenance_test analyze_test \
  accuracy_obs_test accuracy_shadow_test flight_test simulate
(cd build-tsan && ctest -R "$FILTER" --output-on-failure)

# One simulator scenario in concurrent mode: real Estimate() calls
# racing across a worker pool against reloads, shadow evaluation, and
# admission control (fingerprints are not stable here; the run still
# must hold every drain invariant, and TSan must stay quiet).
build-tsan/bench/simulate --scenario=bursty_overload_chaos \
  --workers=4 --duration-ms=2000 >/dev/null
# The live-churn scenario in concurrent mode: deltas and background
# rebuild publishes racing real Estimate() traffic (the maintenance
# tentpole's data-race surface).
build-tsan/bench/simulate --scenario=live_update_churn \
  --workers=2 --duration-ms=2000 >/dev/null
# The analyzer alias storm in concurrent mode: workers racing to probe
# and insert shared pruned answers, against a small cache that
# keeps evicting them (the query-intelligence data-race surface;
# ServiceIntel's concurrent-batch test covers the same paths in-process).
build-tsan/bench/simulate --scenario=intel_alias_storm \
  --workers=4 --duration-ms=2000 >/dev/null
# The SLO-burn scenario in concurrent mode: overload sheds and deadline
# failures racing ObsTick scrapes, alert transitions, and flight-ring
# appends across a worker pool (the flight-data observability
# tentpole's data-race surface).
build-tsan/bench/simulate --scenario=slo_burn \
  --workers=4 --duration-ms=2000 >/dev/null
echo "TSan checks passed."
