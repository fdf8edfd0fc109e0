#!/usr/bin/env bash
# Records the serving-layer benchmark trajectory as machine-readable
# JSON at the repository root, so PRs can diff throughput and shadow-
# sampling cost instead of eyeballing stdout. One combined file carries
# bench_service_throughput (qps + delta-scraped per-stage latency + the
# accuracy-sampling sweep + the service_obs2 instrumentation
# on/obs-minimal overhead contrast),
# bench_update_throughput (incremental delta maintenance vs the
# rebuild-per-delta and position-histogram baselines, plus estimate
# latency quantiles with background rebuilds in flight), and the
# simulator trajectories (every scenario family at its pinned seed,
# live_update_churn, intel_alias_storm, and the slo_burn
# SLO/flight-recorder scenario included: per-window rows plus one
# summary row each):
#
#   {"bench_file_version":2,"recorded":{...config...},"rows":[...]}
#
# Usage, from the repository root (flags pass through to the bench):
#
#   scripts/record_bench.sh                         # -> BENCH_pr10.json
#   OUT=BENCH_tmp.json scripts/record_bench.sh --scale=0.1
#
# The environment knobs: OUT (output path, default BENCH_pr10.json),
# BUILD (build tree, default build). Numbers are machine-dependent —
# compare rows recorded on the same box only. Stage rows measured with
# more threads than cores carry "oversubscribed":true; exclude them
# from latency trend comparisons.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_pr10.json}"
BUILD="${BUILD:-build}"
ARGS=("$@")
if [[ "${#ARGS[@]}" -eq 0 ]]; then
  # The recorded configuration: modest scale so the run stays in
  # seconds, fixed seed so the workload (and therefore the row set) is
  # reproducible.
  ARGS=(--scale=0.25 --queries=400 --seed=42)
fi

cmake --build "$BUILD" -j"$(nproc)" --target bench_service_throughput \
  >/dev/null
cmake --build "$BUILD" -j"$(nproc)" --target bench_update_throughput \
  >/dev/null
cmake --build "$BUILD" -j"$(nproc)" --target simulate >/dev/null

raw="$("$BUILD"/bench/bench_service_throughput "${ARGS[@]}")"
update_raw="$("$BUILD"/bench/bench_update_throughput "${ARGS[@]}")"
sim_raw="$("$BUILD"/bench/simulate --scenario=all)"

{
  printf '{"bench_file_version":3,"recorded":{"bench":"service_throughput+update_throughput+simulate","args":"%s","sim_args":"--scenario=all"},"rows":[\n' \
    "${ARGS[*]}"
  # Keep only the JSON rows; the benches interleave human-readable text.
  first=1
  while IFS= read -r line; do
    [[ "$line" == \{\"bench\"* ]] || continue
    if [[ "$first" == 1 ]]; then first=0; else printf ',\n'; fi
    printf '%s' "$line"
  done <<<"$raw"$'\n'"$update_raw"$'\n'"$sim_raw"
  printf '\n]}\n'
} >"$OUT"

rows="$(grep -c '"bench"' "$OUT" || true)"
echo "record_bench: wrote $OUT ($rows rows)"
