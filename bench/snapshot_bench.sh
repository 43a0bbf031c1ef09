#!/usr/bin/env bash
# Records one bench snapshot: runs the smoke- and timing-labeled harnesses
# (quick mode) with their JSON logs redirected into a timestamped directory
# under bench/history/, so the perf trajectory accumulates across PRs and
# compare_bench_json.py can diff the latest two runs. Harnesses that dump
# a metrics snapshot (METRICS_*.json — bench_observability's merged
# registry readout, including exported latency percentiles) honour the
# same NETBONE_BENCH_JSON_DIR redirect, so those are archived alongside
# the timing logs.
#
# Usage: snapshot_bench.sh <build-dir> [label]
set -euo pipefail

build=${1:?usage: snapshot_bench.sh <build-dir> [label]}
# Labels always carry a timestamp prefix so snapshot names sort
# chronologically — compare_bench_json.py picks the latest two by name —
# and a host tag so snapshots from different machines are never diffed
# against each other by accident.
host=$(hostname -s 2>/dev/null || echo unknown)
stamp=$(date +%Y%m%d-%H%M%S)-$host
label=${2:+$stamp-$2}
label=${label:-$stamp}
history_dir="$(cd "$(dirname "$0")" && pwd)/history/$label"

mkdir -p "$history_dir"
NETBONE_BENCH_JSON_DIR="$history_dir" ctest --test-dir "$build" \
  -L 'smoke|timing' --output-on-failure
bench_count=$(ls "$history_dir"/BENCH_*.json 2>/dev/null | wc -l)
metrics_count=$(ls "$history_dir"/METRICS_*.json 2>/dev/null | wc -l)
echo "recorded $bench_count bench + $metrics_count metrics JSON file(s)" \
     "under $history_dir"
