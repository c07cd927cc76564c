#!/usr/bin/env python3
"""Run workloads over several seeds and report each end-to-end metric's
median and quartile spread, as a share of the median, against its bound.

    python3 perfbench/spread.py --seeds 1-10 [--workload spec-exec ...]
    python3 perfbench/spread.py --seeds 1-10 --json runs.json

Each run is one `run.py` invocation (one fresh process per workload).
A spread above the metric's bound is flagged with "!".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", nargs="*",
                    default=[w["name"] for w in config["workloads"]])
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()
    runs = {}
    for w in args.workload:
        runs[w] = []
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            r = json.loads(out.strip().split("\n")[-1])
            runs[w].append(r)
            print(f"{w} seed {seed}: failed {r['failed']}/{r['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    print(f"{'workload':<12} {'metric':<16} {'median':>14} {'spread':>8} {'bound':>6}")
    for w, rs in runs.items():
        for m in config["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            med = statistics.median(vals)
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
            else:
                spread = 0.0
            flag = "!" if spread > m["bound"] else ""
            print(f"{w:<12} {m['name']:<16} {med:>14.6g} {spread:>8.4f} "
                  f"{m['bound']:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
