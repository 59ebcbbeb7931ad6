#!/bin/sh
# Regression gate against the checked-in bench baselines: re-run the
# eco_reroute, full_scale and serve_throughput harnesses, emit their
# mebl.bench_report JSON, and `mebl_report diff` each against its baseline
# (bench/BENCH_baseline.json, bench/BENCH_baseline_full_scale.json,
# bench/BENCH_baseline_serve.json). Deterministic row metrics (batch_nets,
# dirty_subnets, wirelength, overflow, storage_bytes, jobs_completed,
# eco_coalesced, reports_identical, ...) are gated — a missing row or a
# changed value fails; wall-clock columns (eco_seconds, full_seconds,
# speedup, qps, latency percentiles, peak_rss_kb) are informational or
# loosely slacked, so the gate cannot flake on machine speed.
#
#   usage: bench/check_baseline.sh [BUILD_DIR]   (default: build)
#
# Exit code: worst `mebl_report diff` outcome across the harnesses
# (0 pass, 1 gated regression, 2 bad invocation/IO, 3 schema mismatch).
set -eu

repo_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_dir/build"}
report="$build_dir/examples/mebl_report"

for binary in "$build_dir/bench/eco_reroute" "$build_dir/bench/full_scale" \
              "$build_dir/bench/serve_throughput" "$report"; do
  if [ ! -x "$binary" ]; then
    echo "check_baseline: missing $binary (build the repo first)" >&2
    exit 2
  fi
done

worst=0
for bench in eco_reroute full_scale serve_throughput; do
  case "$bench" in
    eco_reroute) baseline="$repo_dir/bench/BENCH_baseline.json" ;;
    full_scale) baseline="$repo_dir/bench/BENCH_baseline_full_scale.json" ;;
    serve_throughput) baseline="$repo_dir/bench/BENCH_baseline_serve.json" ;;
  esac
  candidate=$(mktemp "/tmp/BENCH_$bench.XXXXXX.json")
  "$build_dir/bench/$bench" --json "$candidate" > /dev/null
  status=0
  "$report" diff "$baseline" "$candidate" || status=$?
  rm -f "$candidate"
  [ "$status" -gt "$worst" ] && worst=$status || :
done

exit "$worst"
