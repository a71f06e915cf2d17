#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the repository root. Runs perfbench/run.py on configs/tiny.config
for one second each (plus the build, the first time): suite-jobs2 through
both passes with two small apps (dwt, bpr), so the jobs=2 thread pool runs
them at once, and membound-crit800's traced pass with dwt alone. Checks
that every run exits 0, that the last line obeys the result contract, that
every metric of BENCHMARK.json and the app-run counts are printed with
their units, that the stats digest agrees across runs of one config, and
that the traced jobs=2 apps did not wait for each other.
Finally checks that a copy holding only BENCHMARK.json and perfbench/
fails without printing a result. Exits 1 on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--machine", "configs/tiny.config", "--seconds", "1"]
CASES = (("suite-jobs2", 0, ["dwt", "bpr"]), ("suite-jobs2", 1, ["dwt", "bpr"]),
         ("membound-crit800", 1, ["dwt"]))


def check(cond, what):
    if not cond:
        print("smoke_test: FAIL: " + what, file=sys.stderr)
        sys.exit(1)


def run(workload, trace, apps, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace),
           "--apps", ",".join(apps)]
    return subprocess.run(cmd + SMALL, cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    counts = {"app_runs": "count", "app_runs_failed": "count"}
    digests = {}
    for workload, trace, apps in CASES:
        label = "%s --trace %d" % (workload, trace)
        proc = run(workload, trace, apps)
        check(proc.returncode == 0,
              "%s exited %d:\n%s" % (label, proc.returncode, proc.stderr))
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              label + ": result keys " + str(sorted(result)))
        check(result["correct"] is True and result["failed"] == 0,
              label + ": not correct: " + proc.stderr)
        check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
              label + ": attempted")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want[trace], label + ": JSON metrics " + str(got))
        printed = dict(re.findall(r"^metric (\S+) \S+ (\S+)$", proc.stdout,
                                  re.MULTILINE))
        for name, unit in list(want[trace].items()) + list(counts.items()):
            check(printed.get(name) == unit,
                  "%s: metric %s not printed with unit %s" % (label, name, unit))
        if trace:
            for app in apps:
                for name, unit in (("launch_s", "s"), ("skip_share", "share"),
                                   ("dormant_share", "share")):
                    check(printed.get("app.%s.%s" % (app, name)) == unit,
                          "%s: app.%s.%s not printed" % (label, app, name))
        if trace and len(apps) > 1:
            # Two apps on two lanes start together: neither queues behind
            # the other, as each would if the pool ran them in turn.
            values = result["metrics"]
            check(values["exec.queue_wait_s"]["value"]
                  < 0.1 * values["sim.launch_s"]["value"],
                  label + ": apps queued; the jobs=2 pool did not overlap them")
        digest = re.search(r"^digest \S+ ([0-9a-f]{16})$", proc.stdout,
                           re.MULTILINE)
        check(digest is not None, label + ": no digest line")
        digests.setdefault(workload, set()).add(digest.group(1))
        print("smoke_test: ok: " + label)
    check(all(len(d) == 1 for d in digests.values()),
          "digest differs between passes: " + str(digests))

    # A directory with only the benchmark's own files cannot build the
    # simulator: the benchmark must fail without printing a result.
    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("suite-c2050", 0, ["dwt"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "bare copy did not fail cleanly")
    print("smoke_test: ok: bare copy fails without a result")
    print("smoke_test: PASS")


if __name__ == "__main__":
    main()
