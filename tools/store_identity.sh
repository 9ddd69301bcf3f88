#!/usr/bin/env bash
# Store identity across worker counts: simulate one figure bench's scenario
# twice into two fresh CELLSCOPE_STORE_DIR roots, with THREADS_A and then
# THREADS_B workers, and require the two stores to be identical byte for
# byte. The second run is audited (CELLSCOPE_AUDIT=1) and traced
# (CELLSCOPE_OBS_DIR), so it also proves the conservation laws and reports
# its memory.
#
#   tools/store_identity.sh BENCH USERS THREADS_A THREADS_B
#
# Run it from the repository root: BENCH names a binary under build/bench.
# CELLSCOPE_BENCH_SEED passes through. Fails (exit 1) on any difference
# between the stores, an audit violation or a non-zero bench exit, and
# otherwise prints one line: the store's hashes, the second run's timeline
# rss_slope_kb_per_day (all days) and rss_slope_kpi_kb_per_day (KPI days
# only) and the peak RSS at its last simulated day. CELLSCOPE_BENCH_FAULTS
# passes through too, so the same check runs on degraded feeds. Work
# files go to a temporary directory, removed when the check passes and
# kept, with their path printed, when it fails.
set -euo pipefail

if [ "$#" -ne 4 ]; then
  echo "usage: $0 BENCH USERS THREADS_A THREADS_B" >&2
  exit 2
fi
bench="build/bench/$1" users=$2 threads_a=$3 threads_b=$4
if [ ! -x "$bench" ]; then
  echo "store_identity: no bench binary $bench" >&2
  exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/store_identity.XXXXXX")
trap 'if [ "$?" -eq 0 ]; then rm -rf "$work"; else
        echo "store_identity: work files kept in $work" >&2; fi' EXIT

run() {  # run NAME THREADS [ENV...]
  local name=$1 threads=$2
  shift 2
  if ! env CELLSCOPE_STORE_DIR="$work/$name" CELLSCOPE_BENCH_USERS="$users" \
      CELLSCOPE_BENCH_THREADS="$threads" "$@" "$bench" \
      > "$work/$name.log" 2>&1; then
    echo "store_identity: $name run ($threads workers) failed:" >&2
    tail -n 20 "$work/$name.log" >&2
    exit 1
  fi
}

run a "$threads_a"
run b "$threads_b" CELLSCOPE_AUDIT=1 CELLSCOPE_OBS_DIR="$work/obs"

if grep -q "replayed cellstore" "$work/a.log" "$work/b.log"; then
  echo "store_identity: a run replayed a store instead of simulating" >&2
  exit 1
fi
if ! grep -q "^Conservation audit: [0-9]* checks, 0 violation(s)" "$work/b.log"; then
  echo "store_identity: the audited run reported violations:" >&2
  grep -i "violation" "$work/b.log" >&2 || true
  exit 1
fi
if ! diff -r "$work/a" "$work/b" > "$work/diff.txt"; then
  echo "store_identity: stores differ between $threads_a and $threads_b workers:" >&2
  head -n 20 "$work/diff.txt" >&2
  exit 1
fi

# One hash over every file of the store (path and content), and the KPI
# feed's own.
store_sha=$(cd "$work/b" && find . -type f | LC_ALL=C sort |
            xargs sha256sum | sha256sum | cut -c1-16)
kpis_sha=$(find "$work/b" -name kpis.csf -exec sha256sum {} + | cut -c1-16)
timeline_json=$(ls "$work"/obs/*.timeline.json)
timeline_csv=$(ls "$work"/obs/*.timeline.csv)
slope=$(jq -r '.rss_slope_kb_per_day' "$timeline_json")
kpi_slope=$(jq -r '.rss_slope_kpi_kb_per_day' "$timeline_json")
peak=$(awk -F, 'NR == 1 { for (i = 1; i <= NF; ++i) col[$i] = i; next }
                $col["day"] >= 0 { peak = $col["peak_rss_kb"] }
                END { print peak }' "$timeline_csv")
echo "store_identity: $(basename "$bench") users=$users" \
     "threads=$threads_a,$threads_b identical store_sha256=$store_sha" \
     "kpis_sha256=$kpis_sha rss_slope_kb_per_day=$slope" \
     "rss_slope_kpi_kb_per_day=$kpi_slope peak_rss_kb=$peak"
