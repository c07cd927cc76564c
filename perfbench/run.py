#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one row each

Builds perfbench/perfbench.exe from the source tree (dune, release
profile, into .bench_build/), then runs the workload in a fresh process
of its own.  With --trace 0 the last line of stdout is a JSON object
with every end-to-end metric of BENCHMARK.json.  With --trace 1 the
workload runs twice, half the seconds each: untraced, then traced; the
traced run writes perfbench/_out/trace-<workload>-<seed>.json
(Perfetto-loadable) and prints a per-span table, and the last line
carries every per-layer metric, including the tracing overhead.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, ".bench_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(ROOT, "perfbench", "_out")
DEADLINE_S = 170  # a run must end within 180 s
# workloads perfbench.exe runs that BENCHMARK.json does not list (NOTES.md)
BY_HAND = ["spec-exec", "serve-xzbox"]


def run_child(cmd, timeout):
    """Run cmd in its own process group; on timeout kill the group and
    wait for it.  Returns (returncode, stdout)."""
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return None, ""
    return p.returncode, out


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("perfbench: no source tree here to build (need dune-project and lib/)")
    code, out = run_child(
        ["dune", "build", "--root", ".", "--build-dir", ".bench_build",
         "--profile", "release", "perfbench/perfbench.exe"], 840)
    if code != 0 or not os.path.isfile(EXE):
        sys.stderr.write(out)
        sys.exit("perfbench: build failed")


def bench(workload, seed, seconds, trace_file, deadline):
    """One perfbench.exe process.  Returns (its report, its text lines)."""
    cmd = [EXE, workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_file:
        cmd += ["--trace", trace_file]
    code, out = run_child(cmd, deadline - time.monotonic())
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        sys.exit(f"perfbench: {workload} run failed (exit {code})")
    return json.loads(lines[-1]), lines[:-1]


def select(report, specs):
    return {m["name"]: {"value": report["metrics"][m["name"]]["value"],
                        "unit": m["unit"]} for m in specs}


def run_workload(config, workload, seed, seconds, trace, deadline):
    if not trace:
        report, text = bench(workload, seed, seconds, None, deadline)
        print("\n".join(text))
        metrics = select(report, config["end_to_end"])
        return {"correct": report["correct"], "attempted": report["attempted"],
                "failed": report["failed"], "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, f"trace-{workload}-{seed}.json")
    half = seconds / 2
    plain, text = bench(workload, seed, half, None, deadline)
    traced, text_t = bench(workload, seed, half, trace_file, deadline)
    print("\n".join(text + text_t))
    fast = plain["metrics"]["ops_per_s"]["value"]
    slow = traced["metrics"]["ops_per_s"]["value"]
    traced["metrics"]["trace.overhead_pct"] = {
        "value": (fast / slow - 1) * 100, "unit": "%"}
    print(f"  tracing overhead: {fast:.2f} -> {slow:.2f} ops/s "
          f"({traced['metrics']['trace.overhead_pct']['value']:+.1f}%)")
    return {"correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": select(traced, config["per_layer"])}


def main():
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        sys.exit("perfbench: BENCHMARK.json not found")
    with open(bench_json) as f:
        config = json.load(f)
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=names + BY_HAND + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()  # the first build in a checkout may take minutes
    if args.workload != "all":
        result = run_workload(config, args.workload, args.seed, args.seconds,
                              args.trace, time.monotonic() + DEADLINE_S)
        print(json.dumps(result))
        return 0
    # every workload in its own process, one row each
    results = {}
    for w in names:
        results[w] = run_workload(config, w, args.seed, args.seconds,
                                  args.trace, time.monotonic() + DEADLINE_S)
    specs = config["per_layer" if args.trace else "end_to_end"]
    print(f"{'workload':<12} {'failed/attempted':>17}  " +
          "  ".join(f"{m['name']} ({m['unit']})" for m in specs))
    for w, r in results.items():
        print(f"{w:<12} {r['failed']:>8}/{r['attempted']:<8}  " +
              "  ".join(f"{r['metrics'][m['name']]['value']:.6g}" for m in specs))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
