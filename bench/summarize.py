#!/usr/bin/env python3
"""Fold benchmark run records into one BENCH file, or compare two.

    python3 bench/summarize.py --out bench/results/BENCH_2.json .bench_out/*-trace*.json
    python3 bench/summarize.py --compare bench/results/BENCH_1.json bench/results/BENCH_2.json

A BENCH file holds, per workload and metric, the median and quartiles of
the runs (one run per seed), the seeds, and the environment of the first
run. ``--compare`` prints, per workload and end-to-end metric, both
medians, their ratio and the parent's own quartile spread, and marks a
change worse than the bound in BENCHMARK.json as a regression.
"""

import argparse
from collections import defaultdict
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(paths):
    values = defaultdict(lambda: defaultdict(list))
    units, seeds, env, failed = {}, defaultdict(set), {}, defaultdict(int)
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        workload = record["env"]["workload"]
        env.setdefault("env", {k: v for k, v in record["env"].items()
                               if k not in ("workload", "seed", "stated_size")})
        env.setdefault(workload, record["env"]["stated_size"])
        seeds[workload].add(record["env"]["seed"])
        failed[workload] += record["failed"]
        for name, value in record["metrics"].items():
            values[workload][name].append(value)
            units[name] = record["units"][name]
    workloads = {}
    for workload, metrics in sorted(values.items()):
        rows = {}
        for name, vals in sorted(metrics.items()):
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            rows[name] = {"median": statistics.median(vals), "q1": q[0],
                          "q3": q[2], "runs": len(vals), "unit": units[name]}
        workloads[workload] = {"seeds": sorted(seeds[workload]),
                               "failed_commands": failed[workload],
                               "stated_size": env[workload], "metrics": rows}
    return {"env": env.get("env", {}), "workloads": workloads}


def compare(before_path, after_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(before_path) as fh:
        before = json.load(fh)["workloads"]
    with open(after_path) as fh:
        after = json.load(fh)["workloads"]
    regressions = 0
    for workload in sorted(before):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = before[workload]["metrics"].get(name)
            a = after.get(workload, {}).get("metrics", {}).get(name)
            if b is None or a is None:
                continue
            ratio = a["median"] / b["median"]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spread = (b["q3"] - b["q1"]) / b["median"]
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            regressions += verdict != "ok"
            print(f"{workload:14s} {name:12s} {b['median']:.6g} -> "
                  f"{a['median']:.6g} {metric['unit']:3s} x{ratio:.3f} "
                  f"(parent spread {spread:.1%}, bound {metric['bound']:.0%}) "
                  f"{verdict}")
    return 1 if regressions else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="*", help="run records to fold")
    parser.add_argument("--out", help="BENCH file to write")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.records:
        parser.error("no run records given")
    summary = summarize(args.records)
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
