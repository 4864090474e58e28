"""Regenerate the reference figures in bench/README.md.

    python3 bench/reference.py

Run from the root of a source checkout.  For each workload of
BENCHMARK.json it prints the median and quartiles of every end-to-end
metric over runs with seeds 1..SEEDS (the spread is the interquartile
distance over the median), the per-layer metrics of one traced run with
seed 1, and the TOP_ROWS top cumulative cProfile rows of one round with
seed 1, as shares of the time spent in the round's timed operations.
"""
from __future__ import annotations

import cProfile
import json
import os
import pstats
import statistics
import subprocess
import sys

import run
from clock import Clock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(BENCH_DIR, "run.py")
SEEDS = 10
TOP_ROWS = 8


def _spec() -> dict:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seconds: int) -> None:
    values: dict[str, list[float]] = {}
    units = {}
    for seed in range(1, SEEDS + 1):
        result = _bench(workload, seed, seconds, 0)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        print(f"  {name:<16} {med:>12.4g} {units[name]:<11} "
              f"[{q1:.4g}, {q3:.4g}]  spread {(q3 - q1) / med:.3f}  n={len(v)}")


def per_layer(workload: str, seconds: int) -> None:
    result = _bench(workload, 1, seconds, 1)
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")


# the function whose calls are the workload's timed operations
OPERATION = {"classify": "verify_classification", "oracle-small": "query",
             "skewed": "query", "corpus-cli": "_corpus_check"}


def profile(workload: str) -> None:
    """Top cumulative rows, as shares of the time in the timed operations."""
    prof = cProfile.Profile()
    prof.runcall(run.WORKLOADS[workload](1).run_round, Clock(scale=False))
    stats = pstats.Stats(prof).stats
    total = sum(ct for (_, _, name), (_, _, _, ct, _) in stats.items()
                if name == OPERATION[workload])
    rows = sorted(((ct, nc, fn) for fn, (_, nc, _, ct, _) in stats.items()
                   if "latticesize" in fn[0]), reverse=True)
    for ct, nc, (path, line, name) in rows[:TOP_ROWS]:
        module = os.path.splitext(os.path.basename(path))[0]
        print(f"  {ct / total:6.1%}  {ct:8.2f} s  {nc:>9} calls  {module}.{name}")


def main() -> int:
    spec = _spec()
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"{workload}: end to end, seeds 1..{SEEDS}")
        end_to_end(workload, spec["run_seconds"])
        print(f"{workload}: per layer, seed 1")
        per_layer(workload, spec["run_seconds"])
        print(f"{workload}: top cumulative cProfile rows, seed 1")
        profile(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
