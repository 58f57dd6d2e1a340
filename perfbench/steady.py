#!/usr/bin/env python3
"""Steadiness check of the repo benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                                [--seconds S] [--seed-base N]

Runs every workload `--runs` times per set, each run with its own seed, and
prints per end-to-end metric the median, the quartiles (statistics.quantiles
with n=4) and the spread (q3 - q1) / median. It fails when, in any set, a
metric spreads wider than its bound in BENCHMARK.json, or when a later
set's median is worse than the first set's by more than the bound: two sets
of runs of the same commit must agree. Spreads above a third of the bound
are flagged as not steady enough. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    host = next((l for l in lines if l.startswith("host: ")), "host: ?")
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return host[len("host: "):], {k: v["value"]
                                  for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            values = {name: [] for name in metrics}
            for i in range(args.runs):
                seed = args.seed_base + 1000 * s + i
                host, result = run_once(workload, seed, args.seconds)
                for name in metrics:
                    values[name].append(result[name])
            print(f"{workload} set {s + 1} ({args.runs} runs) host {host}")
            set_medians = {}
            for name, m in metrics.items():
                med, q1, q3, sp = spread(values[name])
                set_medians[name] = med
                verdict = "ok"
                if sp > m["bound"]:
                    verdict = "SPREAD ABOVE BOUND"
                    ok = False
                elif sp > m["bound"] / 3:
                    verdict = "not steady enough (> bound/3)"
                print(f"  {name:14s} median {med:12.6g} {m['unit']:5s} "
                      f"q1 {q1:12.6g} q3 {q3:12.6g} spread {sp:7.2%} "
                      f"bound {m['bound']:.0%}  {verdict}")
            medians.append(set_medians)
        for s in range(1, len(medians)):
            for name, m in metrics.items():
                first, later = medians[0][name], medians[s][name]
                worse = ((later - first) / first if m["better"] == "lower"
                         else (first - later) / first)
                if worse > m["bound"]:
                    ok = False
                    print(f"  {workload} {name}: set {s + 1} median is "
                          f"{worse:.1%} worse than set 1 (bound "
                          f"{m['bound']:.0%})")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
