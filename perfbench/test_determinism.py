#!/usr/bin/env python3
"""Determinism test of the benchmark itself.

    python3 perfbench/test_determinism.py

For every workload, two short runs with one seed must give identical
code growth, simulated metrics, peak heap and per-layer counts, with no
failed op.  A run with a second seed must also pass every output check,
and where the seed generates inputs (build's synthetic programs,
serve-xzbox's request arguments) it must change them.  Takes about a
minute.
"""

import json
import subprocess
import sys

import run

EXACT = [
    "code_growth_pct", "peak_heap_mb", "emulator.sim_overhead_pct",
    "emulator.sim_cycles_per_op", "core.guards", "core.hoists",
    "arm64.text_bytes", "arm64.data_bytes", "verifier.rejects",
    "emulator.insns", "emulator.alloc_words_per_insn",
    "emulator.block_hit_rate", "emulator.avg_block_len", "emulator.deopts",
    "libbox.call_insns", "libbox.pages_restored_per_reset",
    "libbox.gate_cycles_per_call",
]
ROUNDS = {"build": 1, "spec-exec": 1, "serve-xzbox": 3, "serve-tiny": 3}
# a metric that depends on the seed's generated inputs
SEEDED = {"build": "arm64.text_bytes",
          "serve-xzbox": "emulator.sim_cycles_per_op"}


def once(workload, seed):
    out = subprocess.run(
        [run.EXE, workload, "--seed", str(seed), "--rounds",
         str(ROUNDS[workload]), "--setups", "2"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    r = json.loads(out.strip().split("\n")[-1])
    return r, {k: r["metrics"][k]["value"] for k in EXACT}


def main():
    run.build()
    problems = []
    for w in ROUNDS:
        (r1, a), (r2, b), (r3, c) = once(w, 1), once(w, 1), once(w, 2)
        for r, seed in ((r1, 1), (r2, 1), (r3, 2)):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w} seed {seed}: {r['failed']} failed ops")
        for k in EXACT:
            if a[k] != b[k]:
                problems.append(f"{w}: {k} differs between runs: {a[k]} vs {b[k]}")
        if w in SEEDED and a[SEEDED[w]] == c[SEEDED[w]]:
            problems.append(f"{w}: seed 2 left {SEEDED[w]} unchanged")
        print(f"{w}: " + " ".join(f"{k}={a[k]:.6g}" for k in EXACT if a[k]))
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
