#!/usr/bin/env python3
"""Runs skimbench once per seed on every workload and reports how much
each end-to-end metric spreads: the interquartile range over the median,
as statistics.quantiles(values, n=4) gives the quartiles. BENCHMARK.json's
bound for a metric must stay well above its spread.

Run from the repository root:

    python3 bench/skimbench/spread.py --seeds 1-10 --out set.json

The output file holds every run's result line and, per workload and
metric, the median, quartiles and spread.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="first-last seed, inclusive")
    ap.add_argument("--workload", action="append", help="workload to run; repeat for several (default: all in BENCHMARK.json)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    first, last = (int(x) for x in args.seeds.split("-"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = []
    for seed in range(first, last + 1):
        for wl in workloads:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                sys.exit(f"{wl} seed {seed}: no result (exit {p.returncode})\n{p.stderr[-2000:]}")
            runs.append({"workload": wl, "seed": seed, "exit": p.returncode, "result": result})
            print(wl, seed, "exit", p.returncode, "correct", result["correct"], file=sys.stderr, flush=True)

    summary = {}
    for wl in workloads:
        results = [r["result"] for r in runs if r["workload"] == wl]
        summary[wl] = {}
        for m in bench["end_to_end"]:
            vals = [res["metrics"][m["name"]]["value"] for res in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)  # med is the median
            summary[wl][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                                      "bound": m["bound"], "unit": m["unit"]}
    with open(args.out, "w") as f:
        json.dump({"seeds": args.seeds, "runSeconds": bench["run_seconds"], "summary": summary, "runs": runs}, f, indent=1)
        f.write("\n")
    for wl, metrics in summary.items():
        for name, s in metrics.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  (over a third of the bound)"
            print(f"{wl:13s} {name:14s} median {s['median']:12.6g} {s['unit']:9s} spread {s['spread']:.3f}{flag}")
    if not all(r["exit"] == 0 and r["result"]["correct"] for r in runs):
        sys.exit("some run failed")


if __name__ == "__main__":
    main()
