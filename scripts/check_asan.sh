#!/usr/bin/env bash
# Builds the robustness-sensitive targets under AddressSanitizer +
# UndefinedBehaviorSanitizer and runs the serving tests plus the
# fixed-seed fuzz and chaos smokes, so memory errors on the degraded /
# fault-injected paths are caught mechanically, plus the estimator
# differentials (both join schedules, mid-join deadline expiry). Part
# of the tier-2 checks; run from the repository root:
#
#   scripts/check_asan.sh [extra ctest -R regex]
#
# Uses a dedicated build tree (build-asan) so the regular build stays
# sanitizer-free.
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-ServiceTest|ThreadPool|ShardedLru|SynopsisSalvage|FuzzHarness|fuzz_smoke|chaos_smoke|export_fuzz_smoke|prune_fuzz_smoke|ShadowSamplingTest|MaintenanceTest|LiveDocumentTest|LiveSynopsisTest|AnalyzeSat|ServiceIntel|FlightRecorderTest|TimeSeriesTest|SloEngineTest|ServiceFlightTest|EstimateOptDiff|EstimatorJoinMode}"

cmake -B build-asan -S . -DXEE_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j"$(nproc)" \
  --target service_test common_test serialize_test fuzz_test fuzz_driver \
  accuracy_shadow_test delta_test maintenance_test analyze_test \
  flight_test estimate_opt_diff_test estimator_test
(cd build-asan && ctest -R "$FILTER" --output-on-failure)
echo "ASan/UBSan checks passed."
