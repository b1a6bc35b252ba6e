#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command from BENCHMARK.json several times per
workload, rotating the workload order every round so no workload always
runs first, with a new seed each round. For every end-to-end metric it
prints the median, the quartiles and the spread (quartile distance over
the median), then compares the median of the even-numbered runs with
that of the odd-numbered ones. It exits non-zero when a spread or a
half-to-half difference exceeds the metric's bound, and marks a spread
above a third of its bound as wide.

    python3 perfbench/steady.py --runs 10 --seed 100

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {result}")
    return result, took


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload")
    p.add_argument("--seed", type=int, default=1, help="seed of the first round")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {n: {} for n in names}
    for r in range(a.runs):
        order = names[r % len(names):] + names[:r % len(names)]
        for name in order:
            result, took = run_once(bench["command"], name, a.seed + r,
                                    seconds)
            for metric, v in result["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
            shown = " ".join(f"{k}={result['metrics'][k]['value']:.5g}"
                             for k in ("tuples_per_s", "batch_ms_p50", "setup_s")
                             if k in result["metrics"])
            print(f"run {r + 1}/{a.runs} {name} seed {a.seed + r}: "
                  f"{took:.1f}s {shown}", file=sys.stderr, flush=True)

    ok = True
    for name in names:
        print(f"\n{name} ({a.runs} runs, seeds {a.seed}..{a.seed + a.runs - 1})")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'halves':>7} {'bound':>6}")
        for metric, vals in values[name].items():
            if len(vals) < 4:
                continue
            q1, med, q3, s = spread(vals)
            even, odd = statistics.median(vals[0::2]), statistics.median(vals[1::2])
            halves = abs(even - odd) / min(even, odd) if min(even, odd) else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                if s > bound or halves > bound:
                    flag = "  FAIL"
                    ok = False
                elif s > bound / 3:
                    flag = "  wide"
            print(f"  {metric:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>7.3f} {halves:>7.3f} {bound if bound is not None else '':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
