#!/usr/bin/env bash
# CI proof of the always-on sweep service: a 3-worker long-poll fleet drains
# a queue holding two runs of different job kinds (scenario grid + demand
# campaign) while one worker is SIGKILL'd mid-run; both merged results must
# be byte-identical to their single-process oracles, the drained fleet must
# leave no claims or .tmp orphans, and re-submitting an identical manifest
# must be served from the fingerprint-memoized result cache without touching
# a single cell — proven by deleting every run directory first.
#
# Usage: tools/ci_service_sweep.sh SWEEP_BINARY [WORK_DIR]
#   SWEEP_BINARY  path to a built reldiv_sweep
#   WORK_DIR      scratch directory (default: ./service-ci); the service
#                 root inside it is what CI uploads as an artifact
set -euo pipefail
shopt -s nullglob

sweep="$(readlink -f "$1")"
work_dir="${2:-service-ci}"
repo_root="$(readlink -f "$(dirname "$0")/..")"

rm -rf "$work_dir"
mkdir -p "$work_dir"
cd "$work_dir"

seed=20260809
# Budgets sized so the fleet needs a couple of seconds: room for the SIGKILL
# to land mid-run without slowing the job down.
scn_args=(--spec "$repo_root/examples/specs/scenario_smoke.spec" --seed "$seed"
          --budget 150000)
dem_args=(--spec "$repo_root/examples/specs/demand_smoke.spec" --seed "$seed")

echo "=== single-process oracles ==="
"$sweep" single "${scn_args[@]}" --quiet --out-csv oracle_scn.csv --out-json oracle_scn.json
"$sweep" single "${dem_args[@]}" --quiet --out-csv oracle_dem.csv --out-json oracle_dem.json

echo
echo "=== submit two runs of different kinds ==="
"$sweep" submit --root svc "${scn_args[@]}" --name a_scenario
"$sweep" submit --root svc "${dem_args[@]}" --name b_demand

echo
echo "=== status before serving: exact cell counts, nothing done ==="
"$sweep" status --root svc | tee status_before.json
grep -q '"cells_done": 0,' status_before.json
grep -q '"cells_total": 32,' status_before.json  # 16 grid cells + 16 windows

echo
echo "=== 3 long-poll workers; SIGKILL one mid-run ==="
pids=()
for _ in 1 2 3; do
  "$sweep" serve --root svc --workers 0 --poll-min-ms 20 --poll-max-ms 200 &
  pids+=($!)
done

count_states() {
  local files=(svc/runs/*/cells/*.state)
  echo "${#files[@]}"
}
for _ in $(seq 1 600); do
  if [[ "$(count_states)" -ge 2 ]]; then break; fi
  sleep 0.1
done
echo "SIGKILL worker ${pids[0]} with $(count_states) of 32 cells on disk"
kill -9 "${pids[0]}"

echo
echo "=== merge both runs (long-poll wait), diff vs oracles ==="
# The surviving workers reap the killed worker's claim (its pid is provably
# dead on this host) and finish whatever cell it was computing.
"$sweep" merge --root svc --name a_scenario --wait --out-csv dist_scn.csv --out-json dist_scn.json
"$sweep" merge --root svc --name b_demand --wait --out-csv dist_dem.csv --out-json dist_dem.json
cmp oracle_scn.csv dist_scn.csv
cmp oracle_scn.json dist_scn.json
cmp oracle_dem.csv dist_dem.csv
cmp oracle_dem.json dist_dem.json

echo
echo "=== drain the fleet ==="
"$sweep" drain --root svc
rc=0
wait "${pids[0]}" || rc=$?
if [[ "$rc" -ne 137 ]]; then
  echo "ERROR: expected exit 137 (SIGKILL) from the killed worker, got $rc" >&2
  exit 1
fi
wait "${pids[1]}"
wait "${pids[2]}"
"$sweep" status --root svc | tee status_after.json
grep -q '"draining": true' status_after.json

echo
echo "=== hygiene: a drained fleet leaves no claims and no .tmp orphans ==="
leftovers=$(find svc \( -name '*.claim' -o -name '*.tmp.*' \) | wc -l)
if [[ "$leftovers" -ne 0 ]]; then
  echo "ERROR: $leftovers leftover claim/tmp files after drain:" >&2
  find svc \( -name '*.claim' -o -name '*.tmp.*' \) >&2
  exit 1
fi

echo
echo "=== identical re-submission must be served from the result cache ==="
# Delete every run directory first: only the memoized result can answer now.
rm -rf svc/runs
"$sweep" submit --root svc "${scn_args[@]}" --out-csv cached_scn.csv --out-json cached_scn.json \
  | tee resubmit.log
grep -q "served from the result cache" resubmit.log
cmp oracle_scn.csv cached_scn.csv
cmp oracle_scn.json cached_scn.json
if [[ -n "$(ls -A svc/queue 2>/dev/null)" ]]; then
  echo "ERROR: a cache hit enqueued work" >&2
  exit 1
fi

echo
echo "OK: 3-worker fleet drained two job kinds through a SIGKILL byte-identical"
echo "    to the oracles; identical manifest served from the cache, no recompute"
