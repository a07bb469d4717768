#!/usr/bin/env python3
"""Builds the benchmark program from the repository's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds into
.bench_build/perfbench (about a minute on 4 cores); later runs rebuild only
what changed. Every workload runs with ZKG_THREADS = nproc / 2 and with no
other ZKG_* setting inherited from the caller.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1 (a layer the workload
does not run reads 0; a measured layer that BENCHMARK.json does not list is
printed before that line, not failed). Exits non-zero without that line when the build,
the run or the result's shape fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "--parallel", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def run_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZKG_")}
    env["ZKG_THREADS"] = str(max(1, (os.cpu_count() or 1) // 2))
    return env


def print_table(metrics):
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "%14.4f" % value if value is not None else "%14s" % "n/a"
        print("  %-*s %s %s" % (width, name, shown, metric["unit"]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch],
            stdout=subprocess.PIPE, env=run_env(), timeout=RUN_TIMEOUT_S,
            check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("%s exited with code %d" % (args.workload, done.returncode))
    print("\n".join(lines[:-1]))

    result = json.loads(lines[-1])
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.pop(m["name"], None)
        if got is None and not args.trace:
            fail("end-to-end metric %s was not measured" % m["name"])
        if got is not None and got["unit"] != m["unit"]:
            fail("%s measured in %s, expected %s"
                 % (m["name"], got["unit"], m["unit"]))
        value = got["value"] if got is not None else 0.0
        if value is None:
            fail("%s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if measured and not args.trace:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(measured))
    if args.trace:
        print_table(metrics)
        # A layer list changed since BENCHMARK.json was written (say, a
        # fused or removed layer): show the new names, keep the run valid.
        if measured:
            print("measured but not in BENCHMARK.json:")
            print_table(measured)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
