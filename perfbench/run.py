#!/usr/bin/env python3
"""The repository benchmark: fresh simulation sweeps, measured end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator libraries
plus the gcl_perfbench driver) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload:

  --trace 0  untraced sweeps for S seconds; prints the end-to-end metrics.
  --trace 1  untraced sweeps, then one traced sweep; prints the per-layer
             metrics, computed as span self-time sums from the trace.

Every run of every app is checked: its CPU-reference verdict, its failure
record, and its stats digest against the other runs of the same app. The
last stdout line is one JSON object: correct, attempted (app runs),
failed (app runs failed) and metrics. The lines before it print every
metric by name with its unit, the workload's stats digest and the run's
provenance. Metric definitions, workload choices and the layer map are in
perfbench/README.md.

--machine and --apps override the workload's machine and app list; the
smoke test (perfbench/smoke_test.py) uses them to run in seconds.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-c2050", "suite-jobs2", "membound-crit800")
SETUP_SAMPLES = 31         # set-up spawns per trace-0 run; the median is reported
RUN_LIMIT_S = 175          # a run, build check included, ends within this
FIRST_BUILD_LIMIT_S = 850  # except the run that builds from scratch

# Metric names and units, in print order. They must match BENCHMARK.json's
# end_to_end and per_layer lists (perfbench/smoke_test.py checks).
END_TO_END_UNITS = {
    "sweep_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "warp_insts_per_s": "warp_insts/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "workloads.prep_s": "s",
    "workloads.verify_s": "s",
    "workloads.launches": "count",
    "sim.launch_s": "s",
    "sim.ns_per_warp_inst": "ns",
    "sim.ns_per_req": "ns",
    "sim.ns_per_cycle": "ns",
    "sim.cycles": "cycles",
    "sim.warp_insts": "warp_insts",
    "sim.reqs": "reqs",
    "sim.skip_share": "share",
    "sim.skip_events": "count",
    "sim.dormant_share": "share",
    "sim.l1_useful_share": "share",
    "sim.finalize_s": "s",
    "sim.blocks": "count",
    "core.classify_s": "s",
    "core.classify_est_s": "s",
    "crit.report_s": "s",
    "stats.serialize_s": "s",
    "stats.deserialize_s": "s",
    "trace.export_json_s": "s",
    "trace.import_json_s": "s",
    "exec.idle_lane_s": "s",
    "exec.queue_wait_s": "s",
    "exec.busy_share": "share",
    "trace_overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark could not produce a result (no JSON is printed)."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(deadline):
    """Configure once, then (re)build the driver.

    Returns (driver path, whether this was a build from scratch)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources under %s/src; run from the "
                         "repository root" % ROOT)
    bdir = build_dir()
    binary = os.path.join(bdir, "gcl_perfbench")
    fresh = not os.path.isfile(binary)
    limit = FIRST_BUILD_LIMIT_S if fresh else deadline - time.monotonic()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "gcl_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    start = time.monotonic()
    for cmd in steps:
        left = limit - (time.monotonic() - start)
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise BenchError("build timed out: " + " ".join(cmd))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return binary, fresh


def git_label():
    """Short HEAD hash, +dirty with uncommitted changes; 'none' outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10, env=env)
        if head.returncode != 0:
            return "none"
        dirty = subprocess.run(["git", "-C", ROOT, "diff", "--quiet", "HEAD"],
                               capture_output=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return head.stdout.strip() + ("+dirty" if dirty.returncode != 0 else "")


def dataset_version():
    """The run-cache dataset version the bench runner pins (v5 today)."""
    try:
        with open(os.path.join(ROOT, "bench", "common", "runner.cc")) as f:
            match = re.search(r"kDatasetVersion\s*=\s*(\d+)", f.read())
    except OSError:
        match = None
    return "v" + match.group(1) if match else "unknown"


def run_driver(binary, args, deadline):
    """Run the driver; returns its JSON result."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError("driver exceeded the run time limit")
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise BenchError("driver failed (exit %d): %s"
                         % (proc.returncode, " ".join(args)))
    return json.loads(lines[-1])


def check_runs(result):
    """Count failed runs: failure record, failed CPU reference check, or a
    stats digest that differs from the same app's first clean run."""
    runs = [result["warmup"]]
    for sweep in result["sweeps"]:
        runs += sweep["runs"]
    if "traced" in result:
        runs += result["traced"]["runs"]
    reference, failed = {}, 0
    for run in runs:
        if not run["ok"]:
            failed += 1
            log("%s failed: %s" % (run["app"], run["failure"]
                                   or "CPU reference check"))
            continue
        want = reference.setdefault(run["app"], run["digest"])
        if run["digest"] != want:
            failed += 1
            log("%s: stats digest %s differs from %s"
                % (run["app"], run["digest"], want))
    return len(runs), failed


def workload_digest(runs):
    """FNV-1a over the per-app digests of one sweep, in Table I order."""
    h = 1469598103934665603
    for run in runs:
        for byte in ("%s:%s\n" % (run["app"], run["digest"])).encode():
            h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def end_to_end(result, setups):
    sweeps = result["sweeps"]
    walls = [s["wall_s"] for s in sweeps]
    return {
        "sweep_s": statistics.median(walls),
        "sim_cycles_per_s": statistics.median(
            sum(r["cycles"] for r in s["runs"]) / s["wall_s"] for s in sweeps),
        "warp_insts_per_s": statistics.median(
            sum(r["warp_insts"] for r in s["runs"]) / s["wall_s"]
            for s in sweeps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(result, spans):
    """Per-layer metrics from the traced sweep's spans and counts.

    Returns (metrics, per-app metric lines as (name, value, unit),
    tracing-check problems)."""
    by_app = {}
    for span in spans:
        by_app.setdefault(span["id"], []).append(span)
    runs = {r["app"]: r for r in result["traced"]["runs"]}
    ratio = lambda num, den: num / den if den else 0.0
    layer, app_lines, problems = {}, [], []
    classify_est = queue_wait = app_seconds = spanned = 0.0
    launches = 0
    for app, group in by_app.items():
        dur = [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in group]
        self_time = list(dur)
        for i, s in enumerate(group):
            if s["parent"] >= 0:
                self_time[s["parent"]] -= dur[i]
        own = {}
        for s, t in zip(group, self_time):
            own[s["name"]] = own.get(s["name"], 0.0) + t
            layer[s["name"]] = layer.get(s["name"], 0.0) + t
        n_launch = sum(1 for s in group if s["name"] == "launch")
        launches += n_launch
        run = runs[app]
        app_lines += [
            ("app.%s.launch_s" % app, own.get("launch", 0.0), "s"),
            ("app.%s.skip_share" % app,
             ratio(run["skipped_cycles"], run["cycles"]), "share"),
            ("app.%s.dormant_share" % app,
             ratio(run["dormant_cycles"], run["cycles"] * result["units"]),
             "share"),
        ]
        kernels = [s["value"] for s in group if s["name"] == "classify"]
        if kernels and kernels[0] > 0:
            classify_est += own["classify"] / kernels[0] * n_launch
        wait = next(s for s in group if s["name"] == "queue_wait")
        queue_wait += (wait["end_ns"] - wait["start_ns"]) * 1e-9
        app_seconds += (group[0]["end_ns"] - wait["end_ns"]) * 1e-9
        spanned += sum(d for s, d in zip(group, dur)
                       if s["parent"] >= 0 and s["name"] != "queue_wait")
        # The boundary hook fired at every launch: one launch span per
        # launch, and their cycle annotations add up to the run's cycles.
        launch_cycles = sum(s["value"] for s in group if s["name"] == "launch")
        if run["ok"] and (n_launch != run["launches"]
                          or launch_cycles != run["cycles"]):
            problems.append("%s: %d launch spans / %d cycles vs stats %d / %d"
                            % (app, n_launch, launch_cycles,
                               run["launches"], run["cycles"]))

    traced = result["traced"]
    total = lambda key: float(sum(r[key] for r in traced["runs"]))
    cycles, insts, reqs = total("cycles"), total("warp_insts"), total("reqs")
    launch_s = layer.get("launch", 0.0)
    jobs, wall = result["jobs"], traced["wall_s"]
    untraced = statistics.median(s["wall_s"] for s in result["sweeps"])
    metrics = {
        "workloads.prep_s": layer.get("prep", 0.0),
        "workloads.verify_s": layer.get("verify", 0.0),
        "workloads.launches": launches,
        "sim.launch_s": launch_s,
        "sim.ns_per_warp_inst": ratio(launch_s * 1e9, insts),
        "sim.ns_per_req": ratio(launch_s * 1e9, reqs),
        "sim.ns_per_cycle": ratio(launch_s * 1e9, cycles),
        "sim.cycles": cycles,
        "sim.warp_insts": insts,
        "sim.reqs": reqs,
        "sim.skip_share": ratio(total("skipped_cycles"), cycles),
        "sim.skip_events": total("skip_events"),
        "sim.dormant_share": ratio(total("dormant_cycles"),
                                   cycles * result["units"]),
        "sim.l1_useful_share": ratio(total("l1_useful"), total("l1_all")),
        "sim.finalize_s": layer.get("finalize", 0.0),
        "sim.blocks": total("blocks"),
        "core.classify_s": layer.get("classify", 0.0),
        "core.classify_est_s": classify_est,
        "crit.report_s": layer.get("crit_report", 0.0),
        "stats.serialize_s": layer.get("serialize", 0.0),
        "stats.deserialize_s": layer.get("deserialize", 0.0),
        "trace.export_json_s": layer.get("export_json", 0.0),
        "trace.import_json_s": layer.get("import_json", 0.0),
        "exec.idle_lane_s": jobs * wall - app_seconds,
        "exec.queue_wait_s": queue_wait,
        "exec.busy_share": ratio(app_seconds, jobs * wall),
        "trace_overhead_pct": (wall - untraced) / untraced * 100.0,
    }
    # The spans must account for the apps' wall time (each app's start to
    # its root span's end) to within the tracing overhead, at least 2%.
    uncovered = ratio(app_seconds - spanned, app_seconds) * 100.0
    if uncovered > max(abs(metrics["trace_overhead_pct"]), 2.0):
        problems.append("spans cover only %.2f%% of the apps' wall time"
                        % (100.0 - uncovered))
    return metrics, app_lines, problems


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--machine", default="",
                   help="machine spec instead of the compiled-in c2050")
    p.add_argument("--apps", default="",
                   help="comma-separated apps instead of the workload's")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    binary, fresh = build(deadline)
    if fresh:
        deadline = time.monotonic() + RUN_LIMIT_S

    driver_args = ["--workload", args.workload]
    if args.machine:
        driver_args += ["--machine", args.machine]
    if args.apps:
        driver_args += ["--apps", args.apps]
    nproc = os.cpu_count()
    load_before = os.getloadavg()[0]

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES):
            probe = run_driver(binary, driver_args + ["--setup-only"], deadline)
            setups.append(probe["setup_ns"] * 1e-9)

    spans_path = os.path.join(build_dir(), "spans-%s.json" % args.workload)
    run_args = driver_args + ["--budget-s", repr(args.seconds)]
    if args.trace:
        run_args += ["--traced", "1", "--spans-out", spans_path]
    result = run_driver(binary, run_args, deadline)
    setups.append(result["setup_ns"] * 1e-9)
    load_after = os.getloadavg()[0]

    attempted, failed = check_runs(result)
    correct = failed == 0
    first_sweep = result["sweeps"][0]["runs"]
    print("perfbench %s: %d apps, jobs %d, machine %s, config fingerprint %s, "
          "dataset %s, seed %d (inputs are pinned by the dataset version)"
          % (args.workload, len(first_sweep), result["jobs"],
             result["machine"], result["fingerprint"], dataset_version(),
             args.seed))
    print("provenance: nproc %s, loadavg %.2f -> %.2f, build %s, git %s"
          % (nproc, load_before, load_after, result["build_type"],
             git_label()))
    print("untraced sweeps: %s s wall; %s s CPU"
          % (", ".join("%.3f" % s["wall_s"] for s in result["sweeps"]),
             ", ".join("%.3f" % s["cpu_s"] for s in result["sweeps"])))
    print("digest %s %s" % (args.workload, workload_digest(first_sweep)))

    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)["spans"]
        metrics, app_lines, problems = per_layer(result, spans)
        for problem in problems:
            correct = False
            log("tracing check: " + problem)
        print("traced sweep: %.3f s, spans in %s"
              % (result["traced"]["wall_s"], spans_path))
        for name, value, unit in app_lines:
            print("metric %s %r %s" % (name, value, unit))
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(result, setups)
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print("metric %s %r %s" % (name, metrics[name], unit))
    print("metric app_runs %d count" % attempted)
    print("metric app_runs_failed %d count" % failed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        log(str(error))
        sys.exit(1)
