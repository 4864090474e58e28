"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 bench/compare.py run BASE_DIR NEW_DIR --out OUT_DIR
    python3 bench/compare.py report BASE.jsonl NEW.jsonl

`run` makes MIN_PAIRS pairs of runs of the two checkouts, alternating
which side goes first.  Each pair runs every workload of BENCHMARK.json
once per side, with the pair's seed and the file's run_seconds, through
this copy of run.py, so both sides use the same benchmark code.  It writes
OUT_DIR/base.jsonl and OUT_DIR/new.jsonl, one {"workload", "seed",
"result"} object per line.  `report` pairs the runs by workload and seed
and prints, per workload and end-to-end metric, each side's median and
quartiles, the pairs the new side wins, and a verdict:

  better      at least 10 pairs, the new side wins at least 9/10 of them
              (ties count for neither) and the medians differ by more than
              the base side's interquartile distance;
  unresolved  fewer than 10 pairs, or either side's interquartile distance
              exceeds the metric's bound (relative to its median) and not
              every new run beats every base run;
  worse       the new median is worse than the base median by more than
              the bound;
  unchanged   otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_run(args, spec) -> int:
    os.makedirs(args.out, exist_ok=True)
    sides = {"base": args.base, "new": args.new}
    files = {side: open(os.path.join(args.out, f"{side}.jsonl"), "a", encoding="utf-8")
             for side in sides}
    try:
        for seed in range(1, MIN_PAIRS + 1):
            order = ("base", "new") if seed % 2 else ("new", "base")
            for workload in (w["name"] for w in spec["workloads"]):
                for side in order:
                    result = _run(sides[side], workload, seed, spec["run_seconds"])
                    files[side].write(json.dumps(
                        {"workload": workload, "seed": seed, "result": result}) + "\n")
                    files[side].flush()
    finally:
        for fh in files.values():
            fh.close()
    return 0


def _load(path: str) -> dict:
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                runs[(row["workload"], row["seed"])] = row["result"]
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, int]:
    """Verdict and win count for paired runs base[i], new[i]."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    b1, bmed, b3 = _quartiles(base)
    n1, nmed, n3 = _quartiles(new)
    gain = sign * (nmed - bmed)
    if len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base) and gain > b3 - b1:
        return "better", wins
    if len(base) < MIN_PAIRS:
        return "unresolved", wins
    dominates = min(sign * n for n in new) > max(sign * b for b in base)
    too_wide = max((b3 - b1) / abs(bmed), (n3 - n1) / abs(nmed)) > bound
    if too_wide and not dominates:
        return "unresolved", wins
    if -gain > bound * abs(bmed):
        return "worse", wins
    return "unchanged", wins


def cmd_report(args, spec) -> int:
    base, new = _load(args.base), _load(args.new)
    keys = sorted(set(base) & set(new))
    print(f"{'workload':<13} {'metric':<15} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'wins':<7} verdict")
    for workload in dict.fromkeys(w for w, _ in keys):
        seeds = [s for w, s in keys if w == workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [base[(workload, s)]["metrics"][name]["value"] for s in seeds]
            n = [new[(workload, s)]["metrics"][name]["value"] for s in seeds]
            v, wins = verdict(b, n, m["better"], m["bound"])
            print(f"{workload:<13} {name:<15} {_fmt(_quartiles(b)):<30} "
                  f"{_fmt(_quartiles(n)):<30} {f'{wins}/{len(seeds)}':<7} {v}")
        failed = [sum(d[(workload, s)]["failed"] for s in seeds) for d in (base, new)]
        attempted = [sum(d[(workload, s)]["attempted"] for s in seeds) for d in (base, new)]
        print(f"{workload:<13} failed: base {failed[0]}/{attempted[0]}, "
              f"new {failed[1]}/{attempted[1]}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="alternate runs of two checkouts")
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--out", required=True)
    p = sub.add_parser("report", help="verdicts for two recorded sets of runs")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return cmd_run(args, spec) if args.command == "run" else cmd_report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
