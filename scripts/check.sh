#!/usr/bin/env bash
# Full repository check: configure, build, run the test suite, regenerate
# every paper artifact with bench/gcl_paper and diff it against its
# committed golden, then smoke the observability path end-to-end — a
# traced run whose Chrome-JSON trace and stats JSON are validated by
# tools/trace_check — and verify the parallel sweep (--jobs) produces
# byte-identical cache entries and traces to serial.
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
#        BUILD_DIR=out scripts/check.sh
# Also available as the CMake target `check`.
set -euo pipefail
cd "$(dirname "$0")/.."

TSAN=0
ASAN=0
for arg in "$@"; do
    case "$arg" in
      --tsan) TSAN=1 ;;
      --asan) ASAN=1 ;;
      *) echo "check.sh: unknown argument '$arg' (--tsan, --asan)" >&2
         exit 2 ;;
    esac
done

BUILD_DIR=${BUILD_DIR:-build}
JOBS=$(nproc 2> /dev/null || echo 4)
# The paper driver: every table, figure and ablation is one of its names.
PAPER="$BUILD_DIR/bench/gcl_paper"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Paper goldens: regenerate every table, figure and ablation as one fresh
# batch, then replay each artifact from that cache; its stdout must match
# tests/goldens/paper/<name>.txt byte for byte. A change that moves
# simulated behaviour regenerates the goldens and names the moved ones.
GCL_BENCH_CACHE="$tmp/cache-paper" "$PAPER" all --fresh --jobs="$JOBS" \
    > /dev/null 2> /dev/null
for golden in tests/goldens/paper/*.txt; do
    name=$(basename "$golden" .txt)
    GCL_BENCH_CACHE="$tmp/cache-paper" "$PAPER" "$name" \
        > "$tmp/paper-$name.txt" 2> /dev/null
    diff "$golden" "$tmp/paper-$name.txt" \
        || { echo "check: $name diverged from its golden" >&2; exit 1; }
done

# An average covers the finished runs among the apps printed. Replayed
# over gaus alone, every suite and category average equals gaus's own row
# (tests/goldens/paper_gaus.txt). With a sibling stopped by a fault (bpr,
# the one run this stage simulates), the batch exits 3, the failed run
# prints "-" and enters no average, and nothing prints nan.
AVERAGED="table1_apps fig3_l1_cycles fig4_unit_idle fig9_shared_loads"
AVERAGED="$AVERAGED fig10_cold_miss fig11_cta_sharing"
GCL_BENCH_CACHE="$tmp/cache-paper" "$PAPER" $AVERAGED --apps=gaus \
    > "$tmp/paper-gaus.txt" 2> /dev/null
diff tests/goldens/paper_gaus.txt "$tmp/paper-gaus.txt" \
    || { echo "check: an average over gaus alone is not gaus's row" >&2
         exit 1; }
rc=0
GCL_BENCH_CACHE="$tmp/cache-paper" "$PAPER" $AVERAGED --apps=gaus,bpr \
    --fault-plan='app=bpr;stop@2000' > "$tmp/paper-failed.txt" \
    2> /dev/null || rc=$?
[ "$rc" = 3 ] \
    || { echo "check: a batch with a failed run exited $rc, want 3" >&2
         exit 1; }
if grep -q nan "$tmp/paper-failed.txt"; then
    echo "check: a failed sibling's artifacts print nan" >&2
    exit 1
fi

# A batch simulates each distinct run once: Table III reads bfs twice
# (its suite row and its per-slice view), and a fresh batch over two apps
# must still simulate exactly two runs.
GCL_BENCH_CACHE="$tmp/cache-table3" "$PAPER" table3_profiler \
    --fresh --apps=bfs,gaus > /dev/null 2> "$tmp/table3-runs.err"
runs=$(grep -cE '^\[bench\] [a-z0-9]+: [0-9]+ cycles' "$tmp/table3-runs.err" \
       || true)
[ "$runs" = 2 ] \
    || { echo "check: table3_profiler simulated $runs runs, want 2" >&2
         exit 1; }

# Traced smoke run: one real workload through a figure, with the
# lifecycle trace, occupancy timeline and stats artifacts all enabled.
GCL_BENCH_CACHE="$tmp/cache" "$PAPER" fig5_turnaround \
    --apps=bfs --fresh \
    --trace-out="$tmp/trace.json" \
    --timeline-interval=200 \
    --stats-json="$tmp/stats.json" \
    --stats-csv="$tmp/stats.csv" > /dev/null
"$BUILD_DIR/tools/trace_check" \
    --trace="$tmp/trace.json" --stats="$tmp/stats.json"

# Parallel-sweep determinism: a --jobs=3 fresh sweep over the three
# smallest apps must leave byte-identical cache entries (same keys, same
# stats) as a --jobs=1 sweep, and traced sweeps at --jobs=1 and --jobs=3
# must write byte-identical, well-formed merged Chrome traces.
SMALL_APPS=gaus,bpr,dwt
GCL_BENCH_CACHE="$tmp/cache-j1" "$PAPER" fig1_load_classes \
    --apps=$SMALL_APPS --fresh --jobs=1 > /dev/null 2> /dev/null
GCL_BENCH_CACHE="$tmp/cache-j3" "$PAPER" fig1_load_classes \
    --apps=$SMALL_APPS --fresh --jobs=3 > /dev/null 2> /dev/null
diff -r "$tmp/cache-j1" "$tmp/cache-j3" \
    || { echo "check: parallel sweep diverged from serial" >&2; exit 1; }
for jobs in 1 3; do
    GCL_BENCH_CACHE="$tmp/cache-j${jobs}t" "$PAPER" fig1_load_classes \
        --apps=$SMALL_APPS --jobs=$jobs \
        --trace-out="$tmp/trace-j$jobs.json" \
        --stats-json="$tmp/stats-j$jobs.json" > /dev/null 2> /dev/null
done
"$BUILD_DIR/tools/trace_check" \
    --trace="$tmp/trace-j3.json" --stats="$tmp/stats-j3.json"
cmp "$tmp/trace-j1.json" "$tmp/trace-j3.json" \
    || { echo "check: parallel traced sweep diverged from serial" >&2
         exit 1; }
rm -f "$tmp/trace-j1.json" "$tmp/trace-j3.json"

# Criticality profiler (gcl::crit): a crit-enabled sweep must export
# stats whose per-SM issue-slot accounting is exact (trace_check
# re-verifies issued + stalls == cycles * issue_width from the JSON), and
# crit_report over the three small apps must match the committed golden.
# The profiler-off path needs no stage of its own:
# crit defaults to off, so every other stage in this script already runs
# the disabled simulator, and perfbench's crit-off suite workloads time it.
GCL_BENCH_CACHE="$tmp/cache-crit1" "$PAPER" fig1_load_classes \
    --apps=$SMALL_APPS --fresh --crit \
    --stats-json="$tmp/stats-crit.json" > /dev/null 2> /dev/null
"$BUILD_DIR/tools/trace_check" --stats="$tmp/stats-crit.json"
"$BUILD_DIR/tools/crit_report" --stats="$tmp/stats-crit.json" --top-n=3 \
    > "$tmp/crit-top3.txt" 2> /dev/null
diff tests/goldens/crit_report_small.txt "$tmp/crit-top3.txt" \
    || { echo "check: crit_report diverged from the committed golden" >&2
         exit 1; }

# Event-driven cycle skipping (drained and frozen units sleeping until
# their next event) is a pure host-side optimization. With it off every
# unit ticks every cycle: that sweep is the eager reference, and the
# default sweep must leave byte-identical cache entries to it.
# cycle_skipping is deliberately excluded from the config fingerprint so
# both runs share cache keys.
GCL_BENCH_CACHE="$tmp/cache-noskip" "$PAPER" fig1_load_classes \
    --apps=$SMALL_APPS --fresh --jobs=1 \
    --sim-config=cycle_skipping=0 > /dev/null 2> /dev/null
diff -r "$tmp/cache-j1" "$tmp/cache-noskip" \
    || { echo "check: cycle skipping changed simulation results" >&2
         exit 1; }
# The same identity on a machine whose op classes keep their first stage
# busy longer than their latency: a ready warp then waits on a stage-free
# edge that no writeback marks, and the tight watchdog turns a missed
# edge into a hang instead of a long spin.
LONG_INIT=op_int_alu=1:2,op_sfu=16:64,watchdog_budget=200000
for leg in skip noskip; do
    config=$LONG_INIT
    [ "$leg" = noskip ] && config=$LONG_INIT,cycle_skipping=0
    GCL_BENCH_CACHE="$tmp/cache-init-$leg" \
        "$PAPER" fig1_load_classes \
        --apps=$SMALL_APPS,mriq --fresh \
        --sim-config="$config" > /dev/null 2> /dev/null \
        || { echo "check: long-initiation sweep ($leg) failed" >&2; exit 1; }
done
diff -r "$tmp/cache-init-skip" "$tmp/cache-init-noskip" \
    || { echo "check: cycle skipping changed long-initiation results" >&2
         exit 1; }
# The same identity under GPGPU-Sim's own opcode latency and initiation
# tables (gpgpusim.config's -ptx_opcode_latency_* / _initiation_* rows):
# long-latency multiplies and divides that issue more than once per
# latency.
GPGPUSIM_OPS=op_int_alu=1:1,op_int_mul=19:4,op_int_div=145:32
GPGPUSIM_OPS=$GPGPUSIM_OPS,op_fp_alu=1:1,op_fp_mul=1:1,op_fp_div=30:5
GPGPUSIM_OPS=$GPGPUSIM_OPS,watchdog_budget=200000
for leg in skip noskip; do
    config=$GPGPUSIM_OPS
    [ "$leg" = noskip ] && config=$GPGPUSIM_OPS,cycle_skipping=0
    GCL_BENCH_CACHE="$tmp/cache-ops-$leg" \
        "$PAPER" fig1_load_classes \
        --apps=$SMALL_APPS,mriq --fresh \
        --sim-config="$config" > /dev/null 2> /dev/null \
        || { echo "check: GPGPU-Sim opcode-table sweep ($leg) failed" >&2
             exit 1; }
done
diff -r "$tmp/cache-ops-skip" "$tmp/cache-ops-noskip" \
    || { echo "check: cycle skipping changed opcode-table results" >&2
         exit 1; }
# The same identity on a second machine: modern-core's four GTO
# schedulers per SM sleep and wake differently from c2050's two LRR ones.
for leg in skip noskip; do
    config=
    [ "$leg" = noskip ] && config=--sim-config=cycle_skipping=0
    GCL_BENCH_CACHE="$tmp/cache-modern-$leg" \
        "$PAPER" fig1_load_classes \
        --apps=$SMALL_APPS --fresh --machine=modern-core $config \
        > /dev/null 2> /dev/null \
        || { echo "check: modern-core sweep ($leg) failed" >&2; exit 1; }
done
diff -r "$tmp/cache-modern-skip" "$tmp/cache-modern-noskip" \
    || { echo "check: cycle skipping changed modern-core results" >&2
         exit 1; }
# ...and on 68 units (60 SMs, 8 partitions): the cycle loop's awake and
# gated unit bitsets and the crossbar's delivery-pending bitset then span
# a second 64-bit word.
for leg in skip noskip; do
    config=num_sms=60,num_partitions=8
    [ "$leg" = noskip ] && config=$config,cycle_skipping=0
    GCL_BENCH_CACHE="$tmp/cache-wide-$leg" \
        "$PAPER" fig1_load_classes \
        --apps=$SMALL_APPS --fresh --sim-config="$config" \
        > /dev/null 2> /dev/null \
        || { echo "check: 68-unit sweep ($leg) failed" >&2; exit 1; }
done
diff -r "$tmp/cache-wide-skip" "$tmp/cache-wide-noskip" \
    || { echo "check: cycle skipping changed 68-unit results" >&2
         exit 1; }

# ...and it must actually pay: on a memory-stressed configuration (DRAM
# latency stretched to 800 cycles, crit profiler on — the EXPERIMENTS.md
# "Event-driven skipping" setup) spmv must run at >= 2x the cycles/sec of
# the same build with the skip disabled. Both sweeps run back-to-back on
# this host, so the ratio is insensitive to machine speed.
"$BUILD_DIR/bench/perf_sweep" --apps=spmv --repeat=1 --crit \
    --sim-config=dram_latency=800,cycle_skipping=0 \
    --out="$tmp/perf-noskip.json" > /dev/null
"$BUILD_DIR/bench/perf_sweep" --apps=spmv --repeat=1 --crit \
    --sim-config=dram_latency=800 \
    --out="$tmp/perf-skip.json" > /dev/null
# stats_diff also holds the pair to its throughput and RSS bounds.
"$BUILD_DIR/tools/stats_diff" "$tmp/perf-noskip.json" "$tmp/perf-skip.json" \
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
"$PAPER" table2_config --fresh > "$tmp/table2-default.txt" 2> /dev/null
"$PAPER" table2_config --fresh --machine=c2050 \
    > "$tmp/table2-c2050.txt" 2> /dev/null
# (The goldens stage above diffs the default Table II against its golden.)
cmp "$tmp/table2-default.txt" "$tmp/table2-c2050.txt" \
    || { echo "check: --machine=c2050 changes the Table II output" >&2
         exit 1; }
GCL_BENCH_CACHE="$tmp/cache-c2050" "$PAPER" fig1_load_classes \
    --apps=$SMALL_APPS --fresh --machine=configs/c2050.config \
    > /dev/null 2> /dev/null
diff -r "$tmp/cache-j1" "$tmp/cache-c2050" \
    || { echo "check: --machine=c2050 diverged from compiled defaults" >&2
         exit 1; }
for m in hbm-sectored modern-core tiny; do
    GCL_BENCH_CACHE="$tmp/cache-zoo-$m" "$PAPER" fig1_load_classes \
        --apps=gaus --fresh --machine="$m" > /dev/null 2> /dev/null \
        || { echo "check: machine '$m' failed to run gaus" >&2; exit 1; }
done

# Fault injection (gcl::guard): a seeded plan aimed at one app of a
# parallel sweep must (a) fail that run with exit code 3 and a structured
# failure record in the stats JSON, (b) cache nothing for the faulted run,
# and (c) leave the sibling runs' cache entries byte-identical to the
# clean serial sweep's (cache-j1 from above — same apps, same config).
status=0
GCL_BENCH_CACHE="$tmp/cache-fault" "$PAPER" fig1_load_classes \
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
    GCL_BENCH_CACHE="$tmp/cache-auto$i" "$PAPER" fig1_load_classes \
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
# structured hang report instead of burning the 200M-cycle budget. The
# --crit leg's report also gives each stuck SM's stall reasons and, once,
# the run's blocking PCs.
for leg in plain crit; do
    status=0
    GCL_BENCH_CACHE="$tmp/cache-hang-$leg" "$PAPER" fig1_load_classes \
        --apps=gaus --fresh $([ "$leg" = crit ] && echo --crit) \
        --fault-plan='dropfill@0+1000000000' \
        --sim-config=watchdog_interval=1024,watchdog_budget=100000 \
        --stats-json="$tmp/stats-hang-$leg.json" > /dev/null 2> /dev/null \
        || status=$?
    [ "$status" = 3 ] \
        || { echo "check: hung $leg sweep exited $status, want 3" >&2
             exit 1; }
    grep -q '"hang"' "$tmp/stats-hang-$leg.json" \
        || { echo "check: $leg livelock not reported as a hang" >&2
             exit 1; }
done
grep -Eq '"detail": "[^"]*; stalls: [^"]*\\n  blocking: k[0-9]+#' \
    "$tmp/stats-hang-crit.json" \
    || { echo "check: crit hang report lacks stalls: and blocking:" >&2
         exit 1; }

# Sampled sweeps: a --sample=every:4 sweep at --jobs=3 must leave the
# same cache entries as one at --jobs=1. Each app runs once there, so
# every run starts cold.
for leg in j1 j3; do
    GCL_BENCH_CACHE="$tmp/cache-ff-$leg" "$PAPER" fig1_load_classes \
        --apps=$SMALL_APPS --fresh --jobs="${leg#j}" --sample=every:4 \
        > /dev/null 2> /dev/null
done
diff -r "$tmp/cache-ff-j1" "$tmp/cache-ff-j3" \
    || { echo "check: sampled parallel sweep diverged from serial" >&2
         exit 1; }
# Warm starts within one process (workloads::PrefixStore):
# ablation_cta_sched runs each app round-robin and clustered, two configs
# of one functional fingerprint, so each clustered run starts warm from
# the prefix its round-robin run captured. Its six cache entries must
# equal cold runs of the same configs, one config per process.
GCL_BENCH_CACHE="$tmp/cache-ff-warm" "$PAPER" ablation_cta_sched \
    --apps=$SMALL_APPS --fresh --jobs=1 --sample=every:4 \
    > /dev/null 2> /dev/null
for sched in "" "--sim-config=cta_sched=clustered"; do
    GCL_BENCH_CACHE="$tmp/cache-ff-cold" "$PAPER" fig1_load_classes \
        --apps=$SMALL_APPS --fresh --jobs=1 --sample=every:4 $sched \
        > /dev/null 2> /dev/null
done
diff -r "$tmp/cache-ff-cold" "$tmp/cache-ff-warm" \
    || { echo "check: a warm-started sampled run diverged from cold" >&2
         exit 1; }

# Sampled simulation (--sample, src/sim/sample.hh): functional
# fast-forward outside detailed windows, whole-run stats extrapolated
# from the windows. Two gates:
#
# (a) Accuracy: on the anchor configuration (sssp, a long-running graph
#     app, dram_latency=800, one detailed launch window) the
#     extrapolated cycles and the L1/L2 miss rates must stay within
#     5% / 5pp of the full-detail run. Two more apps cover the other
#     window modes at 5% cycles and a wider 10pp miss-rate tolerance:
#     srad (kernel windows; its L2 rate reads about 5pp off) and gaus
#     (every-Nth-CTA windows; about 8pp off on L2: a sub-launch window
#     measures a window-local working set, a documented limitation,
#     DESIGN.md, "Sampled simulation"). stats_diff compares the apps in
#     both files, requires both runs verified and the sampled one's
#     sample.est.cycles, and fails on any sample.* key in the full run:
#     they must stay byte-identical to a build without the feature.
GCL_BENCH_CACHE="$tmp/cache-sample" "$PAPER" fig1_load_classes \
    --apps=sssp --fresh --sim-config=dram_latency=800 \
    --stats-json="$tmp/stats-sample-full.json" > /dev/null 2> /dev/null
GCL_BENCH_CACHE="$tmp/cache-sample" "$PAPER" fig1_load_classes \
    --apps=sssp --fresh --sim-config=dram_latency=800 --sample=kernels:9 \
    --stats-json="$tmp/stats-sample-k9.json" > /dev/null 2> /dev/null
"$BUILD_DIR/tools/stats_diff" \
    "$tmp/stats-sample-full.json" "$tmp/stats-sample-k9.json" \
    || { echo "check: sampled sssp broke the accuracy gate" >&2; exit 1; }
GCL_BENCH_CACHE="$tmp/cache-sample" "$PAPER" fig1_load_classes \
    --apps=srad,gaus --fresh \
    --stats-json="$tmp/stats-sample-small-full.json" > /dev/null 2> /dev/null
GCL_BENCH_CACHE="$tmp/cache-sample" "$PAPER" fig1_load_classes \
    --apps=srad --fresh --sample=kernels:2:3 \
    --stats-json="$tmp/stats-sample-srad.json" > /dev/null 2> /dev/null
"$BUILD_DIR/tools/stats_diff" --miss-tol=0.10 \
    "$tmp/stats-sample-small-full.json" "$tmp/stats-sample-srad.json" \
    || { echo "check: sampled srad broke the accuracy gate" >&2; exit 1; }
GCL_BENCH_CACHE="$tmp/cache-sample" "$PAPER" fig1_load_classes \
    --apps=gaus --fresh --sample=every:4 \
    --stats-json="$tmp/stats-sample-gaus.json" > /dev/null 2> /dev/null
"$BUILD_DIR/tools/stats_diff" --miss-tol=0.10 \
    "$tmp/stats-sample-small-full.json" "$tmp/stats-sample-gaus.json" \
    || { echo "check: sampled gaus broke the accuracy gate" >&2; exit 1; }
#
# (b) Speedup: on the anchor app, whole-run fast-forward (ctas:0:0,
#     functional fidelity only) must be >= 10x the full run, and the
#     accuracy-bearing window above (kernels:9, the run that passed the
#     5% gate) must be >= 5x — both in-process medians of three,
#     back-to-back on this host. perf_sweep's repetitions share one
#     prefix store, so the kernels:9 median is of warm starts.
#     EXPERIMENTS.md ("Sampled simulation") tabulates the full
#     speedup-vs-error curve.
"$BUILD_DIR/bench/perf_sweep" --apps=sssp --repeat=3 \
    --sim-config=dram_latency=800 \
    --out="$tmp/perf-sample-full.json" > /dev/null
"$BUILD_DIR/bench/perf_sweep" --apps=sssp --repeat=3 \
    --sim-config=dram_latency=800 --sample=ctas:0:0 \
    --out="$tmp/perf-sample-ff.json" > /dev/null
"$BUILD_DIR/bench/perf_sweep" --apps=sssp --repeat=3 \
    --sim-config=dram_latency=800 --sample=kernels:9 \
    --out="$tmp/perf-sample-k9.json" > /dev/null
"$BUILD_DIR/tools/stats_diff" --min-speedup=10 \
    "$tmp/perf-sample-full.json" "$tmp/perf-sample-ff.json" \
    || { echo "check: fast-forward missed its 10x contract" >&2; exit 1; }
"$BUILD_DIR/tools/stats_diff" --min-speedup=5 \
    "$tmp/perf-sample-full.json" "$tmp/perf-sample-k9.json" \
    || { echo "check: windowed sampling missed its 5x contract" >&2
         exit 1; }

if [ "$TSAN" = 1 ]; then
    TSAN_DIR=${TSAN_BUILD_DIR:-build-tsan}
    cmake -B "$TSAN_DIR" -S . -DGCL_TSAN=ON
    cmake --build "$TSAN_DIR" -j"$JOBS" --target gcl_tests gcl_paper
    # halt_on_error turns the first data race into a hard stop instead of
    # a report that scrolls past; abort_on_error makes the exit status
    # unmissable even through pipelines that would swallow TSan's own
    # exit code 66.
    export TSAN_OPTIONS="halt_on_error=1:abort_on_error=1"
    # The only threads are the sweep's: exec::parallelFor's, each running
    # its share of the runs side by side.
    "$TSAN_DIR/tests/gcl_tests" --gtest_filter='Exec*:ParallelSweep*'
    # A parallel bench sweep end to end under TSan, traced: per-run trace
    # sinks filled on parallelFor's threads and merged on the main one.
    GCL_BENCH_CACHE="$tmp/cache-tsan" \
        "$TSAN_DIR/bench/gcl_paper" fig1_load_classes \
        --apps=$SMALL_APPS --fresh --jobs=3 \
        --trace-out="$tmp/trace-tsan.json" > /dev/null
    # The sampled path in a parallel sweep: functional fast-forward, warm
    # replay, and the prefix store that worker threads read and write.
    GCL_BENCH_CACHE="$tmp/cache-tsan-sample" \
        "$TSAN_DIR/bench/gcl_paper" ablation_cta_sched \
        --apps=$SMALL_APPS --fresh --jobs=3 --sample=every:4 > /dev/null
fi

if [ "$ASAN" = 1 ]; then
    ASAN_DIR=${ASAN_BUILD_DIR:-build-asan}
    cmake -B "$ASAN_DIR" -S . -DGCL_ASAN=ON
    cmake --build "$ASAN_DIR" -j"$JOBS" --target gcl_tests
    # The guard tests unwind SimErrors out of half-advanced device models;
    # ASan verifies nothing in flight leaks across the recovery. Pool*
    # includes the GCL_POOL_CHECKED death tests (stale-handle panics are
    # compiled in under ASan). SampleWarmStart* runs the functional
    # prefix's capture, page copy and host-log replay. Skip*
    # re-proves cycle-skip bit-identity against the eager reference
    # (including the fault-plan, zero-latency, 68-unit, starved-L1 and
    # hang legs) with pool checking live; there every retry of a frozen
    # LD/ST head re-probes the L1 and fails the run when the outcome
    # differs from the frozen one (Sm::checkFrozenHead), so a fill that
    # should have un-frozen a head surfaces as an invariant error. The
    # same checked build re-derives every warp
    # pick with the reference scan (Sm::pickWarp); SimPipeline* drives it
    # through barriers, divergence, exits, multi-word ready masks and both
    # scheduling policies. It also re-derives every crit blocking warp
    # with the reference scan (Sm::critCharge); Crit* drives that on
    # c2050 and on modern-core (GTO, four schedulers). Icnt* runs the
    # crossbar against its reference model. SimStats* runs the stats
    # sink's accumulation and block-table growth.
    "$ASAN_DIR/tests/gcl_tests" \
        --gtest_filter='FaultPlan*:ConfigOverride*:WatchdogUnit*:Guard*:Pool*:SampleWarmStart*:Skip*:SimPipeline*:Crit*:Icnt*:SimStats*'
fi

echo "check: all green"
