#!/usr/bin/env bash
# Full repository check: configure, build, run the test suite, then smoke
# the observability path end-to-end — a traced bench run whose Chrome-JSON
# trace and stats JSON are validated by tools/trace_check — and verify the
# parallel sweep (--jobs) produces byte-identical cache entries to serial.
#
# Usage: scripts/check.sh            (from anywhere; builds into ./build)
#        scripts/check.sh --tsan     additionally build with
#                                    ThreadSanitizer (into ./build-tsan)
#                                    and run the exec + parallel-sweep
#                                    tests under it
#        scripts/check.sh --asan     additionally build with
#                                    AddressSanitizer (into ./build-asan)
#                                    and run the guard / error-unwind
#                                    tests under it
#        scripts/check.sh --perf     make the perf-delta stage fatal: exit
#                                    nonzero on a >10% throughput
#                                    regression vs the committed baseline
#                                    (by default the delta is only printed)
#        BUILD_DIR=out scripts/check.sh
# Also available as the CMake target `check`.
set -euo pipefail
cd "$(dirname "$0")/.."

TSAN=0
ASAN=0
PERF=0
for arg in "$@"; do
    case "$arg" in
      --tsan) TSAN=1 ;;
      --asan) ASAN=1 ;;
      --perf) PERF=1 ;;
      *) echo "check.sh: unknown argument '$arg' (--tsan, --asan, --perf)" >&2
         exit 2 ;;
    esac
done

BUILD_DIR=${BUILD_DIR:-build}
JOBS=$(nproc 2> /dev/null || echo 4)

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Traced smoke run: one real workload through a figure bench, with the
# lifecycle trace, occupancy timeline and stats artifacts all enabled.
GCL_BENCH_CACHE="$tmp/cache" "$BUILD_DIR/bench/fig5_turnaround" \
    --apps=bfs --fresh \
    --trace-out="$tmp/trace.json" \
    --timeline-interval=200 \
    --stats-json="$tmp/stats.json" \
    --stats-csv="$tmp/stats.csv" > /dev/null
"$BUILD_DIR/tools/trace_check" \
    --trace="$tmp/trace.json" --stats="$tmp/stats.json"

# Parallel-sweep determinism: a --jobs=3 fresh sweep over the three
# smallest apps must leave byte-identical cache entries (same keys, same
# stats) as a --jobs=1 sweep, and a parallel *traced* sweep must still
# produce a well-formed merged Chrome trace.
SMALL_APPS=gaus,bpr,dwt
GCL_BENCH_CACHE="$tmp/cache-j1" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --fresh --jobs=1 > /dev/null 2> /dev/null
GCL_BENCH_CACHE="$tmp/cache-j3" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --fresh --jobs=3 > /dev/null 2> /dev/null
diff -r "$tmp/cache-j1" "$tmp/cache-j3" \
    || { echo "check: parallel sweep diverged from serial" >&2; exit 1; }
GCL_BENCH_CACHE="$tmp/cache-j3t" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --jobs=3 \
    --trace-out="$tmp/trace-par.json" \
    --stats-json="$tmp/stats-par.json" > /dev/null 2> /dev/null
"$BUILD_DIR/tools/trace_check" \
    --trace="$tmp/trace-par.json" --stats="$tmp/stats-par.json"

# Intra-run parallel-tick determinism: a --sim-threads=4 fresh sweep must
# leave byte-identical cache entries to --sim-threads=1 (mirroring the
# jobs=1-vs-3 stage above — sim_threads is likewise excluded from the
# config fingerprint, so both runs share cache keys).
GCL_BENCH_CACHE="$tmp/cache-t1" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --fresh --sim-threads=1 > /dev/null 2> /dev/null
GCL_BENCH_CACHE="$tmp/cache-t4" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --fresh --sim-threads=4 > /dev/null 2> /dev/null
diff -r "$tmp/cache-t1" "$tmp/cache-t4" \
    || { echo "check: parallel tick diverged from serial" >&2; exit 1; }

# Criticality profiler (gcl::crit): a crit-enabled sweep must export
# stats whose per-SM issue-slot accounting is exact (trace_check
# re-verifies issued + stalls == cycles * issue_width from the JSON), its
# cache entries and reports must be byte-identical across tick-thread
# counts, and crit_report over the three small apps must match the
# committed golden. The profiler-off path needs no stage of its own:
# crit defaults to off, so every other stage in this script (including
# the perf-delta gate below) already runs and measures the disabled
# simulator.
GCL_BENCH_CACHE="$tmp/cache-crit1" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --fresh --crit --sim-threads=1 \
    --stats-json="$tmp/stats-crit.json" \
    --crit-out="$tmp/crit-report.txt" > /dev/null 2> /dev/null
"$BUILD_DIR/tools/trace_check" --stats="$tmp/stats-crit.json"
GCL_BENCH_CACHE="$tmp/cache-crit4" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --fresh --crit --sim-threads=4 \
    --crit-out="$tmp/crit-report-t4.txt" > /dev/null 2> /dev/null
diff -r "$tmp/cache-crit1" "$tmp/cache-crit4" \
    || { echo "check: crit profiling diverged across tick threads" >&2
         exit 1; }
cmp "$tmp/crit-report.txt" "$tmp/crit-report-t4.txt" \
    || { echo "check: crit report differs across tick threads" >&2
         exit 1; }
"$BUILD_DIR/tools/crit_report" --stats="$tmp/stats-crit.json" --top-n=3 \
    > "$tmp/crit-top3.txt" 2> /dev/null
diff tests/goldens/crit_report_small.txt "$tmp/crit-top3.txt" \
    || { echo "check: crit_report diverged from the committed golden" >&2
         exit 1; }

# Idle-unit gating (Gpu::tick skipping quiescent partitions and response
# drains) is a pure host-side optimization: a sweep with the gate forced
# off must leave byte-identical cache entries. idle_gating is deliberately
# excluded from the config fingerprint so both runs share cache keys.
GCL_BENCH_CACHE="$tmp/cache-nogate" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --fresh --jobs=1 \
    --sim-config=idle_gating=0 > /dev/null 2> /dev/null
diff -r "$tmp/cache-j1" "$tmp/cache-nogate" \
    || { echo "check: idle gating changed simulation results" >&2; exit 1; }

# Event-driven cycle skipping (Gpu jumping the clock over spans every
# unit certified dead) is likewise a pure host-side optimization: a sweep
# with the skip forced off must leave byte-identical cache entries.
# cycle_skipping is deliberately excluded from the config fingerprint so
# both runs share cache keys.
GCL_BENCH_CACHE="$tmp/cache-noskip" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --fresh --jobs=1 \
    --sim-config=cycle_skipping=0 > /dev/null 2> /dev/null
diff -r "$tmp/cache-j1" "$tmp/cache-noskip" \
    || { echo "check: cycle skipping changed simulation results" >&2
         exit 1; }

# ...and it must actually pay: on a memory-stressed configuration (DRAM
# latency stretched to 800 cycles, crit profiler on — the EXPERIMENTS.md
# "Event-driven skipping" setup) spmv must run at >= 2x the cycles/sec of
# the same build with the skip disabled. Both sweeps run back-to-back on
# this host, so the ratio is insensitive to machine speed.
"$BUILD_DIR/bench/perf_sweep" --apps=spmv --repeat=1 --crit \
    --sim-config=dram_latency=800,cycle_skipping=0 \
    --out="$tmp/perf-noskip.json" --label=check-noskip > /dev/null
"$BUILD_DIR/bench/perf_sweep" --apps=spmv --repeat=1 --crit \
    --sim-config=dram_latency=800 \
    --out="$tmp/perf-skip.json" --label=check-skip > /dev/null
"$BUILD_DIR/tools/perf_diff" "$tmp/perf-noskip.json" "$tmp/perf-skip.json" \
    --expect-speedup=spmv:2.0 \
    || { echo "check: cycle skipping missed its 2x contract" >&2; exit 1; }

# Machine-description zoo (configs/): every committed machine must parse
# and resolve by name; c2050 must be byte-identical to the compiled-in
# defaults (field-for-field, in the rendered Table II, and in the cache
# entries real runs leave behind); every other machine must run a small
# app to completion with the conservation checks green.
for m in configs/*.config; do
    "$BUILD_DIR/tools/machine_dump" "$m" > /dev/null \
        || { echo "check: $m does not parse" >&2; exit 1; }
done
"$BUILD_DIR/tools/machine_dump" --diff c2050 "" > /dev/null \
    || { echo "check: configs/c2050.config differs from compiled defaults" >&2
         exit 1; }
"$BUILD_DIR/bench/table2_config" --fresh > "$tmp/table2-default.txt"
"$BUILD_DIR/bench/table2_config" --fresh --machine=c2050 \
    > "$tmp/table2-c2050.txt" 2> /dev/null
cmp "$tmp/table2-default.txt" "$tmp/table2-c2050.txt" \
    || { echo "check: --machine=c2050 changes the Table II output" >&2
         exit 1; }
diff tests/goldens/table2_c2050.txt "$tmp/table2-c2050.txt" \
    || { echo "check: Table II diverged from the committed golden" >&2
         exit 1; }
GCL_BENCH_CACHE="$tmp/cache-c2050" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --fresh --machine=configs/c2050.config \
    > /dev/null 2> /dev/null
diff -r "$tmp/cache-j1" "$tmp/cache-c2050" \
    || { echo "check: --machine=c2050 diverged from compiled defaults" >&2
         exit 1; }
for m in hbm-sectored modern-core tiny; do
    GCL_BENCH_CACHE="$tmp/cache-zoo-$m" "$BUILD_DIR/bench/fig1_load_classes" \
        --apps=gaus --fresh --machine="$m" > /dev/null 2> /dev/null \
        || { echo "check: machine '$m' failed to run gaus" >&2; exit 1; }
done

# Fault injection (gcl::guard): a seeded plan aimed at one app of a
# parallel sweep must (a) fail that run with exit code 3 and a structured
# failure record in the stats JSON, (b) cache nothing for the faulted run,
# and (c) leave the sibling runs' cache entries byte-identical to the
# clean serial sweep's (cache-j1 from above — same apps, same config).
status=0
GCL_BENCH_CACHE="$tmp/cache-fault" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=$SMALL_APPS --fresh --jobs=3 \
    --fault-plan='app=bpr;stop@2000' \
    --stats-json="$tmp/stats-fault.json" > /dev/null 2> /dev/null \
    || status=$?
[ "$status" = 3 ] \
    || { echo "check: faulted sweep exited $status, want 3" >&2; exit 1; }
grep -q '"failure"' "$tmp/stats-fault.json" \
    && grep -q '"fault_injected"' "$tmp/stats-fault.json" \
    || { echo "check: no structured failure record in stats JSON" >&2
         exit 1; }
ls "$tmp/cache-fault"/bpr.* > /dev/null 2>&1 \
    && { echo "check: failed run must not be cached" >&2; exit 1; }
for app in gaus dwt; do
    diff "$tmp/cache-j1/$app".* "$tmp/cache-fault/$app".* \
        || { echo "check: $app diverged beside a faulted sibling" >&2
             exit 1; }
done

# Survivable seeded degradation: auto windows (MSHR/ICNT/DRAM/dropfill
# pressure from seed 42) slow the run down but must not kill it — and two
# identical invocations must export byte-identical stats.
for i in 1 2; do
    GCL_BENCH_CACHE="$tmp/cache-auto$i" "$BUILD_DIR/bench/fig1_load_classes" \
        --apps=gaus --fresh \
        --fault-plan='seed=42;auto=3' \
        --stats-json="$tmp/stats-auto$i.json" > /dev/null 2> /dev/null \
        || { echo "check: seeded degradation run failed" >&2; exit 1; }
done
grep -q '"fault.injected.' "$tmp/stats-auto1.json" \
    || { echo "check: no fault.injected stats exported" >&2; exit 1; }
cmp "$tmp/stats-auto1.json" "$tmp/stats-auto2.json" \
    || { echo "check: seeded fault plan is not deterministic" >&2; exit 1; }

# Watchdog: an injected livelock (every fill dropped) must be caught as a
# structured hang report instead of burning the 200M-cycle budget.
status=0
GCL_BENCH_CACHE="$tmp/cache-hang" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=gaus --fresh \
    --fault-plan='dropfill@0+1000000000' \
    --sim-config=watchdog_interval=1024,watchdog_budget=100000 \
    --stats-json="$tmp/stats-hang.json" > /dev/null 2> /dev/null \
    || status=$?
[ "$status" = 3 ] \
    || { echo "check: hung sweep exited $status, want 3" >&2; exit 1; }
grep -q '"hang"' "$tmp/stats-hang.json" \
    || { echo "check: livelock not reported as a hang" >&2; exit 1; }

# Checkpoint/restore (gcl::snap): a gaus run stopped at kernel boundary 2
# (the deterministic stand-in for a crash) must leave a valid checkpoint,
# and resuming it must produce byte-identical stats artifacts and cache
# entries to the uninterrupted reference run.
GCL_BENCH_CACHE="$tmp/cache-snap-ref" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=gaus --fresh --stats-json="$tmp/stats-snap-ref.json" \
    > /dev/null 2> /dev/null
status=0
GCL_BENCH_CACHE="$tmp/cache-snap" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=gaus --fresh --checkpoint-every=1 --checkpoint-stop-after=2 \
    > /dev/null 2> /dev/null || status=$?
[ "$status" = 3 ] \
    || { echo "check: stopped snap run exited $status, want 3" >&2; exit 1; }
"$BUILD_DIR/tools/snap_dump" --describe "$tmp/cache-snap/snap/"gaus.*.snap \
    | grep -q 'app: *gaus' \
    || { echo "check: snap_dump rejected the checkpoint" >&2; exit 1; }
grep -q '"status": "checkpointed"' "$tmp/cache-snap/snap/resume_manifest.json" \
    || { echo "check: resume manifest missing the checkpointed run" >&2
         exit 1; }
GCL_BENCH_CACHE="$tmp/cache-snap" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=gaus --fresh --resume --stats-json="$tmp/stats-snap-res.json" \
    > /dev/null 2> /dev/null
cmp "$tmp/stats-snap-ref.json" "$tmp/stats-snap-res.json" \
    || { echo "check: resumed run diverged from uninterrupted" >&2; exit 1; }
diff "$tmp/cache-snap-ref/gaus".*.stats "$tmp/cache-snap/gaus".*.stats \
    || { echo "check: resumed cache entry diverged" >&2; exit 1; }
ls "$tmp/cache-snap/snap/"gaus.*.snap > /dev/null 2>&1 \
    && { echo "check: checkpoint not removed after clean resume" >&2
         exit 1; }

# The same recovery against a real kill -9 mid-run: wait for the first
# checkpoint, kill the process hard, resume. (If gaus happens to finish
# before the signal lands, the resume leg simply runs fresh — the
# byte-compare holds either way.)
GCL_BENCH_CACHE="$tmp/cache-snap9" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=gaus --fresh --checkpoint-every=1 \
    > /dev/null 2> /dev/null & snap_pid=$!
for _ in $(seq 1 500); do
    ls "$tmp/cache-snap9/snap/"gaus.*.snap > /dev/null 2>&1 && break
    kill -0 "$snap_pid" 2> /dev/null || break
    sleep 0.01
done
kill -9 "$snap_pid" 2> /dev/null || true
wait "$snap_pid" 2> /dev/null || true
GCL_BENCH_CACHE="$tmp/cache-snap9" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=gaus --fresh --resume --stats-json="$tmp/stats-snap9.json" \
    > /dev/null 2> /dev/null
cmp "$tmp/stats-snap-ref.json" "$tmp/stats-snap9.json" \
    || { echo "check: kill -9 resume diverged from uninterrupted" >&2
         exit 1; }

# The committed golden (tiny machine, gaus, boundary 1) must stay
# readable by snap_dump: header intact, CRC green, self-diff clean.
"$BUILD_DIR/tools/snap_dump" --describe tests/goldens/snap_tiny_gaus.snap \
    | grep -q 'machine: *tiny' \
    || { echo "check: golden snapshot unreadable" >&2; exit 1; }
"$BUILD_DIR/tools/snap_dump" --diff tests/goldens/snap_tiny_gaus.snap \
    tests/goldens/snap_tiny_gaus.snap > /dev/null \
    || { echo "check: golden snapshot self-diff failed" >&2; exit 1; }

# Sampled simulation (--sample, src/sim/sample.hh): functional
# fast-forward outside detailed windows, whole-run stats extrapolated
# from the windows. Three gates:
#
# (a) Accuracy: on the anchor configuration (sssp, a long-running graph
#     app, dram_latency=800, one detailed launch window) the
#     extrapolated cycles and the L1/L2 miss rates must stay within
#     5% / 5pp of the full-detail run. Two more apps cover the other
#     window modes — srad (kernel windows) at the same 5%/5pp, and gaus
#     (every-Nth-CTA windows) at 5% cycles with a wider 10pp miss-rate
#     tolerance: a sub-launch window measures a window-local working
#     set, a documented limitation (DESIGN.md, "Sampled simulation").
GCL_BENCH_CACHE="$tmp/cache-sample" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=sssp --fresh --sim-config=dram_latency=800 \
    --stats-json="$tmp/stats-sample-full.json" > /dev/null 2> /dev/null
GCL_BENCH_CACHE="$tmp/cache-sample" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=sssp --fresh --sim-config=dram_latency=800 --sample=kernels:9 \
    --stats-json="$tmp/stats-sample-k9.json" > /dev/null 2> /dev/null
"$BUILD_DIR/tools/sample_diff" --app=sssp \
    --full="$tmp/stats-sample-full.json" \
    --sampled="$tmp/stats-sample-k9.json" \
    || { echo "check: sampled sssp broke the accuracy gate" >&2; exit 1; }
GCL_BENCH_CACHE="$tmp/cache-sample" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=srad,gaus --fresh \
    --stats-json="$tmp/stats-sample-small-full.json" > /dev/null 2> /dev/null
GCL_BENCH_CACHE="$tmp/cache-sample" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=srad --fresh --sample=kernels:2:3 \
    --stats-json="$tmp/stats-sample-srad.json" > /dev/null 2> /dev/null
"$BUILD_DIR/tools/sample_diff" --app=srad --miss-tol=0.10 \
    --full="$tmp/stats-sample-small-full.json" \
    --sampled="$tmp/stats-sample-srad.json" \
    || { echo "check: sampled srad broke the accuracy gate" >&2; exit 1; }
GCL_BENCH_CACHE="$tmp/cache-sample" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=gaus --fresh --sample=every:4 \
    --stats-json="$tmp/stats-sample-gaus.json" > /dev/null 2> /dev/null
"$BUILD_DIR/tools/sample_diff" --app=gaus --miss-tol=0.10 \
    --full="$tmp/stats-sample-small-full.json" \
    --sampled="$tmp/stats-sample-gaus.json" \
    || { echo "check: sampled gaus broke the accuracy gate" >&2; exit 1; }
# No sample.* keys may leak into an unsampled run's artifacts (they
# must stay byte-identical to a build without the feature — the crit
# and Table II golden diffs above already pin that down), and every
# sampled run must export its extrapolation bookkeeping.
grep -q '"sample\.' "$tmp/stats-sample-full.json" \
    && { echo "check: sample.* keys leaked into an unsampled run" >&2
         exit 1; }
grep -q '"sample.est.cycles"' "$tmp/stats-sample-k9.json" \
    || { echo "check: sampled run missing sample.est.cycles" >&2; exit 1; }
#
# (b) Determinism: a sampled run's cache entries — including the shared
#     functional-prefix snapshot it writes — must be byte-identical
#     across tick-thread counts, like every other artifact.
GCL_BENCH_CACHE="$tmp/cache-samp-t1" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=gaus --fresh --sample=every:4 --sim-threads=1 \
    > /dev/null 2> /dev/null
GCL_BENCH_CACHE="$tmp/cache-samp-t4" "$BUILD_DIR/bench/fig1_load_classes" \
    --apps=gaus --fresh --sample=every:4 --sim-threads=4 \
    > /dev/null 2> /dev/null
diff -r "$tmp/cache-samp-t1" "$tmp/cache-samp-t4" \
    || { echo "check: sampled run diverged across tick threads" >&2
         exit 1; }
#
# (c) Speedup: on the anchor app, whole-run fast-forward (ctas:0:0,
#     functional fidelity only) must be >= 10x the full run, and the
#     accuracy-bearing window above (kernels:9, the run that passed the
#     5% gate) must be >= 5x with its prefix warm-started — both
#     in-process medians, back-to-back on this host. EXPERIMENTS.md
#     ("Sampled simulation") tabulates the full speedup-vs-error curve.
"$BUILD_DIR/bench/perf_sweep" --apps=sssp --repeat=3 \
    --sim-config=dram_latency=800 \
    --out="$tmp/perf-sample-full.json" --label=check-sample-full > /dev/null
"$BUILD_DIR/bench/perf_sweep" --apps=sssp --repeat=3 \
    --sim-config=dram_latency=800 --sample=ctas:0:0 \
    --out="$tmp/perf-sample-ff.json" --label=check-sample-ff > /dev/null
"$BUILD_DIR/bench/perf_sweep" --apps=sssp --repeat=3 \
    --sim-config=dram_latency=800 --sample=kernels:9 \
    --ff-prefix-dir="$tmp/ffprefix" \
    --out="$tmp/perf-sample-k9.json" --label=check-sample-k9 > /dev/null
"$BUILD_DIR/tools/sample_diff" --app=sssp --min-speedup=10 \
    --perf-full="$tmp/perf-sample-full.json" \
    --perf-sampled="$tmp/perf-sample-ff.json" \
    || { echo "check: fast-forward missed its 10x contract" >&2; exit 1; }
"$BUILD_DIR/tools/sample_diff" --app=sssp --min-speedup=5 \
    --perf-full="$tmp/perf-sample-full.json" \
    --perf-sampled="$tmp/perf-sample-k9.json" \
    || { echo "check: windowed sampling missed its 5x contract" >&2
         exit 1; }

# Perf trajectory: run the pinned-subset throughput sweep serially and
# with the parallel tick, report both, and print the serial delta against
# the committed baseline (the baseline is a sim_threads=1 snapshot;
# perf_sweep times median-of-3 repetitions).
# Informational by default (hosts differ; so does their load); --perf
# makes a >10% regression fatal so a perf-focused PR can gate on it.
"$BUILD_DIR/bench/perf_sweep" --repeat=3 --out="$tmp/perf.json" \
    --label=check --sim-threads=1 > /dev/null
"$BUILD_DIR/bench/perf_sweep" --repeat=3 --out="$tmp/perf-t4.json" \
    --label=check-t4 --sim-threads=4 > /dev/null
serial_cps=$("$BUILD_DIR/tools/perf_diff" --print-total "$tmp/perf.json")
par_cps=$("$BUILD_DIR/tools/perf_diff" --print-total "$tmp/perf-t4.json")
echo "check: total cycles/sec: $serial_cps serial, $par_cps at sim-threads=4"
if [ "$PERF" = 1 ]; then
    "$BUILD_DIR/tools/perf_diff" \
        bench/baselines/BENCH_perf_baseline.json "$tmp/perf.json"
else
    "$BUILD_DIR/tools/perf_diff" \
        bench/baselines/BENCH_perf_baseline.json "$tmp/perf.json" \
        || echo "check: perf delta exceeds threshold (non-fatal; --perf to gate)"
fi

if [ "$TSAN" = 1 ]; then
    TSAN_DIR=${TSAN_BUILD_DIR:-build-tsan}
    cmake -B "$TSAN_DIR" -S . -DGCL_TSAN=ON
    cmake --build "$TSAN_DIR" -j"$JOBS" --target gcl_tests fig1_load_classes
    # halt_on_error turns the first data race into a hard stop instead of
    # a report that scrolls past; abort_on_error makes the exit status
    # unmissable even through pipelines that would swallow TSan's own
    # exit code 66.
    export TSAN_OPTIONS="halt_on_error=1:abort_on_error=1"
    # Skip* covers the event-skip jump decision running on the
    # coordinator against worker-committed state at sim-threads=4.
    "$TSAN_DIR/tests/gcl_tests" \
        --gtest_filter='Exec*:ParallelSweep*:ParallelTick*:Skip*'
    # A threaded bench sweep end to end under TSan: the parallel tick with
    # tracing, the exact configuration the determinism stages diff above
    # (cycle skipping is on by default, so the jump path runs here too).
    GCL_BENCH_CACHE="$tmp/cache-tsan" "$TSAN_DIR/bench/fig1_load_classes" \
        --apps=$SMALL_APPS --fresh --sim-threads=4 > /dev/null
    # The sampled path under TSan as well: functional fast-forward and
    # warm replay interleave with the parallel tick inside the windows.
    GCL_BENCH_CACHE="$tmp/cache-tsan-sample" \
        "$TSAN_DIR/bench/fig1_load_classes" \
        --apps=gaus --fresh --sample=every:4 --sim-threads=4 > /dev/null
fi

if [ "$ASAN" = 1 ]; then
    ASAN_DIR=${ASAN_BUILD_DIR:-build-asan}
    cmake -B "$ASAN_DIR" -S . -DGCL_ASAN=ON
    cmake --build "$ASAN_DIR" -j"$JOBS" --target gcl_tests
    # The guard tests unwind SimErrors out of half-advanced device models;
    # ASan verifies nothing in flight leaks across the recovery. Pool*
    # includes the GCL_POOL_CHECKED death tests (stale-handle panics are
    # compiled in under ASan), IdleGating* re-proves gating bit-identity
    # with pool checking live, and Snap* exercises the checkpoint
    # save/restore paths (raw-byte serialization, resume unwinding).
    # Skip* re-proves cycle-skip bit-identity (including the fault-plan
    # and resume legs) with pool checking live. The same checked build
    # re-derives every warp pick with the reference scan (Sm::pickWarp);
    # SimPipeline* drives it through barriers, divergence, exits,
    # multi-word ready masks and both scheduling policies.
    "$ASAN_DIR/tests/gcl_tests" \
        --gtest_filter='FaultPlan*:ConfigOverride*:WatchdogUnit*:Guard*:Pool*:IdleGating*:Snap*:Skip*:SimPipeline*'
fi

echo "check: all green"
