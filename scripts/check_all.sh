#!/usr/bin/env bash
# The full pre-merge battery, in increasing order of cost:
#
#   1. tier-1 build + ctest (unit, accuracy, smoke, live, intel, flight
#      labels — includes the formula-tail differential suites, the live-
#      document maintenance suite, the flight-data observability suite
#      (time-series store, SLO burn-rate engine, flight recorder,
#      tail-based trace retention), and the query-intelligence suite:
#      analyze_test pins the prune soundness contract against exact
#      counts and bitwise differentials, prune_fuzz_smoke runs the
#      30k-iteration prune-soundness oracle)
#   2. quality slice: the accuracy-observability suite (shadow-sampling
#      correctness, drift detection, export schema + export fuzz;
#      ctest label `quality`)
#   3. ThreadSanitizer slice   (scripts/check_tsan.sh)
#   4. ASan/UBSan slice        (scripts/check_asan.sh)
#   5. perfbench smoke: each benchmark workload (perfbench/run.py) for
#      2 s with tracing on; fails unless every result reports
#      "correct": true and "failed": 0. The benchmark is its own CMake
#      project over ../src and reads service counter names, so a src/
#      change can break it without failing any of the stages above.
#
# The fuzz, chaos, and simulator smokes run inside step 1 via their
# ctest entries (label `smoke`; simulate_smoke runs every scenario
# family — live_update_churn and intel_alias_storm included — time-
# scaled and fails on any drain-invariant violation),
# and the fuzz/chaos/prune smokes plus the live maintenance and
# analyzer tests run again under ASan in step 4; the TSan slice also
# drives simulator scenarios in concurrent mode: the live-churn
# scenario with rebuilds racing traffic, and the analyzer alias storm
# with shared pruned answers probed across a worker pool. Run from the
# repository root:
#
#   scripts/check_all.sh            # everything
#   scripts/check_all.sh --fast     # tier-1 only, skip stages 3-5
#
# Exits non-zero on the first failing stage.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then fast=1; fi

echo "== [1/5] tier-1 build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
(cd build && ctest -LE quality --output-on-failure)

echo "== [2/5] quality slice (accuracy observability) =="
(cd build && ctest -L quality --output-on-failure)

if [[ "$fast" == "1" ]]; then
  echo "check_all: tier-1 passed (sanitizers and perfbench skipped with --fast)."
  exit 0
fi

echo "== [3/5] ThreadSanitizer slice =="
scripts/check_tsan.sh

echo "== [4/5] ASan/UBSan slice =="
scripts/check_asan.sh

echo "== [5/5] perfbench smoke =="
for workload in warm_zipf cold_compile batch_fanout live_churn; do
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
             --seconds 2 --trace 1 | tail -n 1)
  python3 -c '
import json, sys
r = json.loads(sys.argv[2])
ok = r.get("correct") is True and r.get("failed") == 0
print("%s: correct=%s failed=%s" % (sys.argv[1], r.get("correct"), r.get("failed")))
sys.exit(0 if ok else 1)' "$workload" "$result"
done

echo "check_all: all stages passed."
