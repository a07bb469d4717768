#!/usr/bin/env python3
"""Runs one perfbench workload on two source trees in alternating pairs and
compares their end-to-end metrics.

    python3 tools/perf_pairs.py --base <tree> --change <tree> \
        --workload <name> --pairs <n> --seconds <s>

Each tree is a checkout of this repository; the tool calls that tree's own
perfbench/run.py (which builds the tree into its .bench_build/). Pair i
runs both sides with seed i (1, 2, ...), the base first when i is odd and
the change first when i is even, so drift in the machine's load hits both
sides alike. For every end-to-end metric of the change tree's BENCHMARK.json it
prints each side's median and quartiles, how many pairs the change won, and
BREACH where the change's median is worse than the base's by more than the
metric's bound. It exits non-zero when a run fails, reads incorrect or
breaches a bound.

The record, with both sides' runs and each run's fingerprint, is written to
bench/baselines/<workload>-<base label>-vs-<change label>.json under the
repository this tool belongs to.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tree_label(tree, given):
    if given:
        return given
    done = subprocess.run(["git", "-C", tree, "describe", "--always",
                           "--dirty"],
                          capture_output=True, text=True, check=False)
    if done.returncode == 0 and done.stdout.strip():
        return done.stdout.strip()
    return os.path.basename(os.path.abspath(tree))


def run_once(tree, workload, seed, seconds):
    """One perfbench run: its result JSON plus the printed fingerprint."""
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit("perf_pairs: %s run failed in %s" % (workload, tree))
    result = json.loads(lines[-1])
    fingerprint = next((l.split(" ", 1)[1] for l in lines
                        if l.startswith("fingerprint ")), "{}")
    result["fingerprint"] = json.loads(fingerprint)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare(metrics, base_runs, change_runs):
    """Per-metric summary rows; `breach` marks a bound exceeded."""
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if higher else c < b))
        base_med = statistics.median(base)
        change_med = statistics.median(change)
        rel = (change_med - base_med) / base_med if base_med else 0.0
        worse = -rel if higher else rel
        rows.append({
            "metric": name, "unit": m["unit"], "better": m["better"],
            "bound": m["bound"],
            "base_median": base_med, "base_quartiles": quartiles(base),
            "change_median": change_med,
            "change_quartiles": quartiles(change),
            "relative_change": rel, "change_wins": wins,
            "pairs": len(base), "breach": worse > m["bound"],
        })
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--base-label", default="")
    parser.add_argument("--change-label", default="")
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}
    for seed in range(1, args.pairs + 1):
        order = ("base", "change") if seed % 2 else ("change", "base")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            result["seed"] = seed
            runs[side].append(result)
        print("pair %d: %s" % (
            seed, "  ".join(
                "%s %.1f" % (side,
                             runs[side][-1]["metrics"]["throughput_per_s"]
                             ["value"]) for side in ("base", "change"))),
            flush=True)

    rows = compare(metrics, runs["base"], runs["change"])
    print("\n%-17s %12s %21s %12s %21s %8s %5s" % (
        "metric", "base p50", "base q1..q3", "change p50", "change q1..q3",
        "change", "wins"))
    for r in rows:
        print("%-17s %12.4g %10.4g..%-10.4g %12.4g %10.4g..%-10.4g %+7.1f%% "
              "%2d/%-2d%s" % (
                  r["metric"], r["base_median"], *r["base_quartiles"],
                  r["change_median"], *r["change_quartiles"],
                  100 * r["relative_change"], r["change_wins"], r["pairs"],
                  "  BREACH" if r["breach"] else ""))
    bad_runs = [(side, r["seed"]) for side in runs for r in runs[side]
                if not r["correct"] or r["failed"]]
    for side, seed in bad_runs:
        print("%s run at seed %d: incorrect or failed operations" % (side,
                                                                    seed))

    labels = {"base": tree_label(args.base, args.base_label),
              "change": tree_label(args.change, args.change_label)}
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "pairs": args.pairs,
        "base_first_on_odd_seeds": True,
        "summary": rows,
    }
    for side in ("base", "change"):
        record[side] = {"label": labels[side], "runs": runs[side]}
    out_dir = os.path.join(ROOT, "bench", "baselines")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-%s-vs-%s.json" % (
        args.workload, labels["base"], labels["change"]))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print("\nrecord written to " + os.path.relpath(path, ROOT))
    if bad_runs or any(r["breach"] for r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
