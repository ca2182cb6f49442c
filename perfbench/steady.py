#!/usr/bin/env python3
"""Steadiness check: runs one workload in two interleaved sets of runs.

    python3 perfbench/steady.py --workload W [--runs 5] [--seed0 N]
        [--out FILE]

Runs A1 B1 A2 B2 ... (each run with its own seed, run_seconds from
BENCHMARK.json) through perfbench/run.py and, for every end-to-end
metric in BENCHMARK.json,
prints each set's median and quartiles, the spread of all runs (the
distance between the first and third quartile as a share of the median,
as statistics.quantiles(values, n=4) gives them), and whether set B's
median is within the metric's bound of set A's in the worse direction.
The spread must stay within the bound (set-up time excepted), and the
aim is a third of it. Each run's log line also carries the host
yardstick and the times as measured, before scaling to the reference
host speed, and a second table gives their spreads, so the scaling can
be checked. Run it from the repository root.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: seed %d: %s" % (seed, lines[-1]))
    # "host yardstick: median W ms wall, C ms thread CPU ..." and
    # "unscaled: name value ...".
    unscaled = {}
    for line in lines:
        if line.startswith("host yardstick: median "):
            words = line.split()
            unscaled["yardstick_wall_ms"] = float(words[3])
            unscaled["yardstick_cpu_ms"] = float(words[6])
        elif line.startswith("unscaled: "):
            words = line.split()[1:]
            unscaled.update((k, float(v)) for k, v in zip(words[::2], words[1::2]))
    return result, unscaled, elapsed


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = {"A": [], "B": []}
    raw = []
    log = []
    for i in range(args.runs):
        for name in ("A", "B"):
            seed = args.seed0 + 2 * i + (name == "B")
            result, unscaled, elapsed = run_once(args.workload, seed, seconds)
            sets[name].append(result["metrics"])
            raw.append(unscaled)
            line = "%s%d seed %d (%.0f s): %s\n    unscaled: %s" % (
                name, i + 1, seed, elapsed,
                " ".join("%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                         for m in metrics),
                " ".join("%s=%.6g" % kv for kv in unscaled.items()))
            log.append(line)
            print(line, flush=True)

    out = ["", "workload %s: %d runs per set, %d s each, interleaved A/B"
           % (args.workload, args.runs, seconds),
           "%-20s %5s %12s %12s %12s %8s %8s %8s  %s" % (
               "metric", "bound", "median A", "median B", "median all",
               "spread", "B vs A", "target", "verdict")]
    ok = True
    for m in metrics:
        name, bound, better = m["name"], m["bound"], m["better"]
        a = [r[name]["value"] for r in sets["A"]]
        b = [r[name]["value"] for r in sets["B"]]
        med = quartiles(a + b)[1]
        spread_all = spread(a + b)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
        agree = worse <= bound if ma else mb == ma
        within = name == "setup_s" or spread_all <= bound
        verdict = "ok" if agree and within else "FAIL"
        if spread_all > bound / 3 and name != "setup_s":
            verdict += " (spread above a third of the bound)"
        ok = ok and agree and within
        out.append("%-20s %5.2f %12.6g %12.6g %12.6g %7.2f%% %+7.2f%% %7.2f%%  %s" % (
            name, bound, ma, mb, med, 100 * spread_all, 100 * worse, 100 * bound / 3,
            verdict))
    out.append("")
    out.append("as measured, before scaling to the reference host speed")
    out.append("%-20s %12s %8s" % ("metric", "median all", "spread"))
    for name in raw[0]:
        values = [r[name] for r in raw]
        out.append("%-20s %12.6g %7.2f%%" % (
            name, statistics.median(values), 100 * spread(values)))
    out.append("steady: %s" % ("yes" if ok else "NO"))
    print("\n".join(out))
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(log + out) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
