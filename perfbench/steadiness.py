#!/usr/bin/env python3
"""Runs every workload repeatedly and reports how steady each metric is.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Run from the root of the checkout. It runs every workload of
BENCHMARK.json with --trace 0. Run k uses seed first_seed + k, and the
workload order alternates between runs (forward on even runs, reversed on
odd ones) so a drift of the host over time does not land on one workload.
For each workload and metric it prints the median, the quartiles (as
Python's statistics.quantiles(values, n=4) gives them), min / max and the
interquartile range as a share of the median, next to a third of the
metric's bound from BENCHMARK.json: a spread below that third leaves room
for two sets of runs to agree within the bound. Each run's host
fingerprint line is printed once; runs on different hosts are not compared.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, done.returncode))
    host = next((l for l in lines if l.startswith("host:")), "host: unknown")
    return host, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    hosts = set()
    for k in range(args.runs):
        order = workloads if k % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.first_seed + k
            host, result = run_once(w, seed, bench["run_seconds"])
            hosts.add(host)
            if not result["correct"]:
                raise SystemExit("%s seed %d: outputs not correct" % (w, seed))
            shares[w].add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print("run %d %s seed %d done" % (k, w, seed), file=sys.stderr)

    for host in sorted(hosts):
        print(host)
    print("%-12s %-36s %12s %12s %12s %12s %12s %8s %8s" %
          ("workload", "metric", "median", "q1", "q3", "min", "max",
           "iqr/med", "bound/3"))
    for w in workloads:
        print("%-12s failed share per run: %s" % (w, sorted(shares[w])))
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            third = "%.4f" % (bound / 3) if bound is not None else "-"
            print("%-12s %-36s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %8s" %
                  (w, name, med, q1, q3, min(vals), max(vals), spread, third))


if __name__ == "__main__":
    main()
