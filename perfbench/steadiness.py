#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark command from BENCHMARK.json several times on one
workload, each run with another seed, and prints every metric's median,
quartiles and spread, (Q3 - Q1) / median, as Python's
statistics.quantiles(values, n=4) gives them. End-to-end metrics whose
spread exceeds their bound are named, setup_s included. With --sets 2
the same seeds run twice, and each median that moves between the sets
by more than its bound, either way, is named too.

    python3 perfbench/steadiness.py --workload serve-small --runs 10
    python3 perfbench/steadiness.py --workload publish-churn --runs 5 --sets 2
    python3 perfbench/steadiness.py --workload serve-bulk --runs 3 --trace 1

Run from the root of the checkout. Raw results are appended, one JSON
line per run, to --log (default .bench_work/steadiness.jsonl).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(argv)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    env = json.loads(lines[-2])["env"] if len(lines) > 1 else {}
    return result, env, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--log", default=os.path.join(".bench_work", "steadiness.jsonl"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    for s in range(args.sets):
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            result, env, wall = run_once(bench["command"], args.workload, seed,
                                         bench["run_seconds"], args.trace)
            os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed, "set": s,
                                      "wall_s": wall, "env": env, "result": result}) + "\n")
            ok = result["correct"] and result["failed"] == 0 and "invalid" not in env
            print(f"set {s} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={wall:.1f}s{'' if ok else '  <-- NOT CLEAN'}"
                  f"{'  (' + env['invalid'] + ')' if 'invalid' in env else ''}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        sets.append(values)

    over = []
    print(f"\n{args.workload}: {args.runs} runs x {args.sets} set(s), "
          f"{bench['run_seconds']} s each, trace={args.trace}")
    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in sets[0]:
        for s, values in enumerate(sets):
            if len(values[name]) < 2:
                continue
            med, q1, q3, sp = spread(values[name])
            bound = bounds.get(name)
            flag = ""
            if bound is not None and sp > bound:
                flag = "  SPREAD OVER BOUND"
                over.append(f"{name} (set {s}): spread {sp:.3f} > {bound}")
            elif bound is not None and sp > bound / 3:
                flag = "  above a third of bound"
            label = name if args.sets == 1 else f"{name} [set {s}]"
            print(f"{label:44} {med:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        if len(sets) > 1 and name in bounds:
            first = statistics.median(sets[0][name])
            for s in range(1, len(sets)):
                shift = (statistics.median(sets[s][name]) - first) / first
                print(f"{'':44} median shift set {s} vs 0: {shift:+.3f}")
                if abs(shift) > bounds[name]:
                    over.append(f"{name}: set {s} median moved by {shift:+.3f}, "
                                f"beyond {bounds[name]}")
    if over:
        print("\nOUT OF BOUNDS:\n  " + "\n  ".join(over))
        sys.exit(1)
    print("\nall end-to-end metrics within their bounds")


if __name__ == "__main__":
    main()
