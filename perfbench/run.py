#!/usr/bin/env python3
"""Repo benchmark: build the simulator from source, run one workload, print its metrics.

    python3 perfbench/run.py [--workload tables|explore|campaign|service|all] \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark package (perfbench/CMakeLists.txt) compiles
../src into a Release build under $CARGO_TARGET_DIR (default .bench_build) and links the
workload runner, pcrbench, against it. Set-up time is measured from process start to the
runner's "ready" line over several spawns; the runner then runs whole passes of the workload
for --seconds and checks its outputs. The human-readable report goes first; the last line of
standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json under --trace 0, and every per_layer metric
under --trace 1 (0 where the workload does not exercise that layer). Without --workload (or
with "all") every workload runs in turn, and the last line sums their checks.

Other modes:
    --selftest            build and run the tests of the benchmark's own arithmetic
    --write-goldens       re-pin perfbench/goldens/<workload>.tsv from a run at seed 1
    --ablate dpor|checkpoint
                          sensitivity self-check: turn that explorer mechanism off
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tables", "explore", "campaign", "service")
SETUP_SPAWNS = 4  # extra set-up-only spawns; setup_s is the median over these + the main run

# The end-to-end catalogue, in print order. The ones BENCHMARK.json gates are those every
# workload reports with a non-zero value; the rest are printed and documented in README.md.
E2E_ORDER = (
    "setup_s", "wall_s", "unit_p50_ms", "unit_tail_ms", "peak_rss_mb", "check_fail_frac",
    "sim_events_per_s", "distinct_schedules_per_s", "executed_schedules_per_s",
    "campaign_inputs_per_s", "coverage_points", "table_rel_err", "knee_per_s",
    "interactive_p99_us", "drop_frac",
)


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    """Configures once and builds `targets`; serialized by a lock so parallel runs agree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) next to perfbench/; run from a checkout")
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
        for cmd in steps:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                fail("build failed: " + " ".join(cmd), 3)
    return out


def spawn(cmd):
    """Runs `cmd` and returns (seconds from spawn to its "ready" line, remaining stdout, rc)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = None
    for line in proc.stdout:
        if line.strip() == "ready":
            ready = time.perf_counter() - start
            break
    rest = proc.stdout.read()
    rc = proc.wait()
    return ready, rest, rc


def fmt(value):
    return "%.6g" % value


def run_workload(workload, args, spec, seconds, binary):
    """Runs one workload; prints its report and returns its result object."""
    work = os.path.join(build_dir(), "perfbench-work", "%s-%d" % (workload, os.getpid()))
    spans = os.path.join(build_dir(), "perfbench-spans", "%s-seed%d.json" % (workload,
                                                                             args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    goldens = os.path.join(HERE, "goldens", workload + ".tsv")
    cmd = [binary, "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%g" % seconds, "--trace=%d" % args.trace, "--repo-root=" + ROOT,
           "--work-dir=" + work, "--span-file=" + spans]
    cmd.append(("--write-goldens=" if args.write_goldens else "--goldens=") + goldens)
    if args.ablate:
        cmd.append("--ablate=" + args.ablate)

    try:
        setups = []
        for _ in range(SETUP_SPAWNS):
            ready, _, rc = spawn(cmd + ["--setup-only"])
            if rc != 0 or ready is None:
                fail("set-up run exited with %d" % rc, 4)
            setups.append(ready)
        ready, rest, rc = spawn(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0 or ready is None:
        fail("pcrbench exited with %d" % rc, 4)
    setups.append(ready)
    lines = [l for l in rest.splitlines() if l.strip()]
    if not lines:
        fail("pcrbench printed no report", 4)
    report = json.loads(lines[-1])

    metrics = {m["name"]: m for m in report["metrics"]}
    metrics["setup_s"] = {"name": "setup_s", "value": statistics.median(setups), "unit": "s",
                          "kind": "host",
                          "note": "median of %d spawns: %s" % (len(setups),
                                                               " ".join(fmt(s) for s in setups))}
    checks = report["checks"]

    print("perfbench %s seed=%d seconds=%g trace=%d workers=%d passes=%d traced_passes=%d%s"
          % (workload, args.seed, seconds, args.trace, report["workers"], report["passes"],
             report["traced_passes"], " ablate=" + args.ablate if args.ablate else ""))
    print("end-to-end metrics:")
    for name in E2E_ORDER:
        m = metrics.get(name)
        if m is None:
            print("  %-26s %14s %-9s" % (name, "n/a", "(not this workload)"))
        else:
            print("  %-26s %14s %-9s %-8s %s" % (name, fmt(m["value"]), m["unit"], m["kind"],
                                                 m["note"]))
    if args.trace:
        print("per-layer metrics (traced run; spans in %s):" % os.path.relpath(spans, ROOT))
        for m in report["metrics"]:
            if m["kind"] == "layer":
                print("  %-38s %14s %-6s %s" % (m["name"], fmt(m["value"]), m["unit"],
                                                m["note"]))
    print("checks: %d attempted, %d failed" % (checks["attempted"], checks["failed"]))
    for failure in checks["failures"]:
        print("  FAILED: " + failure)

    result = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        name = entry["name"]
        if name in metrics:
            result[name] = {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
        elif args.trace:
            result[name] = {"value": 0, "unit": entry["unit"]}  # layer not exercised here
        else:
            fail("workload %s did not report end-to-end metric %s" % (workload, name), 5)
    return {"correct": checks["failed"] == 0, "attempted": checks["attempted"],
            "failed": checks["failed"], "metrics": result}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-goldens", action="store_true")
    parser.add_argument("--ablate", choices=("dpor", "checkpoint"), default=None)
    args = parser.parse_args()

    if args.selftest:
        out = build(["pcrbench_arith_test"])
        sys.exit(subprocess.call([os.path.join(out, "pcrbench_arith_test")], cwd=ROOT))

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        fail("BENCHMARK.json not found at the repository root")
    with open(bench_json) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.write_goldens and args.seed != 1:
        fail("--write-goldens pins the default seed; run it with --seed 1")

    binary = os.path.join(build(["pcrbench"]), "pcrbench")
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, spec, seconds, binary)))
        return
    # Every workload in turn; the last line sums the checks and keys metrics by workload.
    results = {}
    for workload in WORKLOADS:
        results[workload] = run_workload(workload, args, spec, seconds, binary)
        print(json.dumps(results[workload]))
        print()
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w + "." + name: m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
