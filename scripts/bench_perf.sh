#!/usr/bin/env bash
# Simulator-throughput snapshot: build (Release flags come from the default
# toolchain), run bench/perf_sweep on the pinned app subset, write
# BENCH_perf.json, and compare against the committed baseline in
# bench/baselines/BENCH_perf_baseline.json with tools/stats_diff.
#
# Usage: scripts/bench_perf.sh [--out=FILE] [--repeat=N] [--no-diff]
#        BUILD_DIR=out scripts/bench_perf.sh
#
# The snapshot label is the short HEAD hash, with "+dirty" appended when
# the working tree has uncommitted changes — a snapshot generated before
# committing is labeled as such instead of silently claiming the previous
# commit (which is how a stale "label" once ended up committed).
#
# Refreshing the committed baseline (do this in any PR that moves perf):
#   1. Commit the code change first, so HEAD names it.
#   2. scripts/bench_perf.sh --no-diff        # writes BENCH_perf.json
#   3. cp BENCH_perf.json bench/baselines/BENCH_perf_baseline.json
#   4. Amend or commit both snapshots; the label now matches the commit
#      that carries them ("+dirty" in a committed file means step 1 was
#      skipped — regenerate).
#
# Exit status: stats_diff's (1 on >10% regression) unless --no-diff.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_perf.json
REPEAT=3
DIFF=1
for arg in "$@"; do
    case "$arg" in
      --out=*) OUT=${arg#--out=} ;;
      --repeat=*) REPEAT=${arg#--repeat=} ;;
      --no-diff) DIFF=0 ;;
      *) echo "bench_perf.sh: unknown argument '$arg'" >&2; exit 2 ;;
    esac
done

BUILD_DIR=${BUILD_DIR:-build}
JOBS=$(nproc 2> /dev/null || echo 4)

cmake -B "$BUILD_DIR" -S . > /dev/null
cmake --build "$BUILD_DIR" -j"$JOBS" --target perf_sweep stats_diff

LABEL=$(git rev-parse --short HEAD 2> /dev/null || echo local)
git diff --quiet HEAD 2> /dev/null || LABEL="$LABEL+dirty"

"$BUILD_DIR/bench/perf_sweep" --repeat="$REPEAT" --out="$OUT" \
    --label="$LABEL"

BASELINE=bench/baselines/BENCH_perf_baseline.json
if [ "$DIFF" = 1 ] && [ -f "$BASELINE" ]; then
    "$BUILD_DIR/tools/stats_diff" "$BASELINE" "$OUT"
fi
