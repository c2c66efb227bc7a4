#!/usr/bin/env python3
"""Run each workload repeatedly and report how steady every metric is.

    python3 perfbench/stability.py [--workloads ingest,frames,replay] \
        [--runs 10] [--seed 1] [--heldout-seed 1001] [--seconds N] [--trace 0]

For each workload it makes --runs runs with seeds seed, seed+1, ... and,
unless --heldout-runs is 0, a second set with held-out seeds heldout-seed,
heldout-seed+1, ... For each metric of each set it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, i.e. the
distance between the quartiles as a share of the median, beside the
metric's bound from BENCHMARK.json. It flags a spread above a third of the
bound and a held-out median worse than the first by more than the bound
(neither applies to setup_s's spread), and checks that a repeated run of
the first seed prints the same output digest. Exits non-zero if any run
fails or any flag is raised.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    digest = re.search(r"digest=([0-9a-f]+)", proc.stdout)
    return result, digest.group(1) if digest else None


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    sys.stdout.reconfigure(line_buffering=True)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--heldout-runs", type=int, default=None,
                        help="runs in the held-out set (default: --runs)")
    parser.add_argument("--heldout-seed", type=int, default=1001)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    heldout_runs = args.runs if args.heldout_runs is None else args.heldout_runs
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    flags = []
    for workload in workloads:
        sets = [("seeds", [args.seed + i for i in range(args.runs)])]
        if heldout_runs > 0:
            sets.append(("held-out", [args.heldout_seed + i for i in range(heldout_runs)]))
        medians = {}
        for label, seeds in sets:
            values = {}
            for seed in seeds:
                result, _ = run_once(workload, seed, seconds, args.trace)
                if not result["correct"] or result["failed"]:
                    flags.append(f"{workload} seed {seed}: correct={result['correct']} "
                                 f"failed={result['failed']}")
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print(f"\n{workload} [{label} {seeds[0]}..{seeds[-1]}, {seconds:g} s runs]")
            print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
                  f"{'bound':>6}")
            for name, vals in values.items():
                med, q1, q3, spread = summarize(vals)
                bound = spec.get(name, {}).get("bound")
                mark = ""
                if bound is not None and name != "setup_s" and spread > bound / 3:
                    mark = "  <-- spread above bound/3"
                    flags.append(f"{workload} {label} {name}: spread {spread:.3f} > {bound / 3:.3f}")
                print(f"  {name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
                      f"{bound if bound is not None else '-':>6}{mark}")
                medians.setdefault(name, []).append(med)
        for name, meds in medians.items():
            m = spec.get(name)
            if len(meds) < 2 or m is None or "bound" not in m:
                continue
            first, second = meds
            worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
            if worse > m["bound"]:
                flags.append(f"{workload} {name}: held-out median worse by {worse:.3f} "
                             f"> bound {m['bound']}")
        _, d1 = run_once(workload, args.seed, min(seconds, 3), args.trace)
        _, d2 = run_once(workload, args.seed, min(seconds, 3), args.trace)
        print(f"  digest of seed {args.seed}, two runs: {d1} {d2}")
        if d1 != d2:
            flags.append(f"{workload}: digest differs across runs of seed {args.seed}")

    print()
    for flag in flags:
        print("FLAG:", flag)
    print("steady" if not flags else f"{len(flags)} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
