"""latticesize benchmark: one seeded workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  With --trace 0 the workload runs untraced in whole rounds
for S seconds, and at least MIN_ROUNDS rounds, and the end-to-end metrics
are reported.  With --trace 1 one round runs untraced and one traced,
after a cProfile self-check of the tracer, and the per-layer metrics are
reported.  Every output is checked (see checks.py); the last line of
stdout is the result object.  bench/README.md describes the workloads and
metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import statistics
import sys
import time
from array import array

import checks
import inputs
import tracer
from clock import Clock

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

CLASSIFY_H = 4
# convex point sets in {0..4}^2 with points and segments: the classify input
CLASSIFY_GRID_POLYGONS = 33366
CORPUS_N = 3
CORPUS_ARGS = ["corpus-check", "--n", str(CORPUS_N), "--jobs", "1"]
SETUP_REPEATS = 41
REPEAT_BELOW_SHEAR = 1000   # skewed polygons with smaller shears run twice a round
MIN_ROUNDS = 2


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "latticesize", "__init__.py")):
        sys.exit(f"bench: no src/latticesize under {ROOT}; run from a source checkout")
    sys.path.insert(0, SRC)
    import latticesize
    import latticesize.cli  # noqa: F401  (the tracer wraps cli.main too)
    if not os.path.abspath(latticesize.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported latticesize from {latticesize.__file__}, not {SRC}")
    return latticesize


L = _import_package()


def query(vertices):
    """One oracle query: the result tuple checks.query_failures expects."""
    P = L.hull(vertices)
    return (L.invariants(P), L.brute_force_lattice_size(P, "square"),
            L.brute_force_lattice_size(P, "simplex"), L.check_bounds(P),
            L.canonical_form(P))


def _brute_square(vs):
    return L.brute_force_lattice_size(L.hull(vs), "square")


def _failed(fails: list[str], what) -> bool:
    for msg in fails[:3]:
        print(f"check failed: {what}: {msg}", file=sys.stderr)
    return bool(fails)


class Workload:
    """A fixed round of operations built from the seed.

    run_round() returns (key, seconds, polygons, failed) per operation, in
    the same order every round; operations with the same key repeat the
    same work, and the seconds cover the program's work only, never the
    checks.
    """

    name = ""
    tail_percentile: int | None = None   # None: too few operations for a tail
    setup_call = None                    # the smallest call, given a fresh package
    polygons = 0                         # input polygons of one round
    stdout_bytes = 0

    @property
    def spans_path(self) -> str:
        return os.path.join(OUT_DIR, f"{self.name}.spans")

    def run_round(self, clock: Clock) -> list[tuple[int, float, int, bool]]:
        raise NotImplementedError


def _first_query(pkg) -> None:
    P = pkg.hull([(0, 0), (2, 0), (0, 1)])
    pkg.invariants(P)
    pkg.brute_force_lattice_size(P, "square")
    pkg.brute_force_lattice_size(P, "simplex")
    pkg.check_bounds(P)
    pkg.canonical_form(P)


def _first_classification(pkg) -> None:
    pkg.verify_classification(1)


def _first_corpus_check(pkg) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = pkg.cli.main(["corpus-check", "--n", "1", "--jobs", "1"])
    if code != 0:
        raise RuntimeError(f"corpus-check --n 1 exit code {code}")


class OracleSmall(Workload):
    name = "oracle-small"
    round_size = 2048
    tail_percentile = 99
    setup_call = staticmethod(_first_query)

    def __init__(self, seed: int) -> None:
        self.items = [(vs, None) for vs in inputs.small_polygons(seed, self.round_size)]
        self.polygons = len(self.items)
        self.passes = range(self.polygons)   # the items a round queries, in order

    def run_round(self, clock):
        with clock.round():
            timed = [clock.measure(query, self.items[i][0]) for i in self.passes]
        results = []
        for i, (out, start, end) in zip(self.passes, timed):
            vs, expect = self.items[i]
            if isinstance(out, Exception):
                fails = [repr(out)]
            else:
                fails = checks.query_failures(vs, out)
                if expect is not None:
                    fails += _expect_failures(out, expect)
            results.append((i, clock.seconds(start, end), 1, _failed(fails, vs)))
        return results


def _expect_failures(out, expect) -> list[str]:
    inv, _, _, _, canon = out
    got = (inv.width, inv.ls_square, inv.ls_simplex, inv.area)
    fails = [] if got == expect[0] else [f"invariants {got} != source {expect[0]}"]
    if canon != expect[1]:
        fails.append("canonical form differs from the source polygon's")
    return fails


class Skewed(OracleSmall):
    name = "skewed"
    round_size = 96
    tail_percentile = 89

    def __init__(self, seed: int) -> None:
        self.items = []
        repeat = []
        for src, matrix, _, image in inputs.skewed_polygons(seed, self.round_size):
            P = L.hull(src)
            inv = L.invariants(P)
            expect = ((inv.width, inv.ls_square, inv.ls_simplex, inv.area),
                      L.canonical_form(P))
            if max(abs(e) for row in matrix for e in row) < REPEAT_BELOW_SHEAR:
                repeat.append(len(self.items))
            self.items.append((image, expect))
        self.polygons = len(self.items)
        # The few largest shears take most of a round, so the cheaper
        # polygons, the median query among them, are queried twice per
        # round at little cost: their times are medians of more repeats.
        self.passes = list(range(self.polygons)) + repeat


class Classify(Workload):
    name = "classify"
    setup_call = staticmethod(_first_classification)
    polygons = CLASSIFY_GRID_POLYGONS

    def __init__(self, seed: int) -> None:
        pass   # the grid {0..4}^2 is the whole input; the seed has nothing to vary

    def run_round(self, clock):
        with clock.round():
            report, start, end = clock.measure(L.verify_classification, CLASSIFY_H)
        if isinstance(report, Exception):
            fails = [repr(report)]
        else:
            fails = checks.classification_failures(report, CLASSIFY_H, _brute_square)
        return [(0, clock.seconds(start, end), self.polygons, _failed(fails, "classify"))]


def _corpus_check() -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = L.cli.main(CORPUS_ARGS)
    return code, out.getvalue()


class CorpusCli(Workload):
    name = "corpus-cli"
    setup_call = staticmethod(_first_corpus_check)

    def __init__(self, seed: int) -> None:
        # the grid {0..CORPUS_N}^2 is the whole input; the seed has nothing to vary
        self.polygons = checks.convex_polygon_count(CORPUS_N)
        self.expected = {h: len(checks.family_classes(h)) for h in range(1, CORPUS_N + 1)}

    def run_round(self, clock):
        with clock.round():
            result, start, end = clock.measure(_corpus_check)
        code, out = (None, repr(result)) if isinstance(result, Exception) else result
        self.stdout_bytes = len(out.encode())
        fails = [] if code == 0 else [f"exit code {code}"]
        try:
            payload = json.loads(out)
        except ValueError:
            payload = {}
            fails.append(f"stdout is not one JSON object: {out[:200]}")
        if payload.get("polygons") != self.polygons:
            fails.append(f"{payload.get('polygons')} polygons checked, the grid has {self.polygons}")
        if payload and payload.get("ok") is not True:
            fails.append(f"ok is {payload.get('ok')!r}: {payload.get('failures')}")
        got = {row["h"]: row["classes"] for row in payload.get("classification", [])}
        if got != self.expected:
            fails.append(f"class counts {got} != stated families {self.expected}")
        return [(0, clock.seconds(start, end), self.polygons, _failed(fails, "corpus-cli"))]


WORKLOADS = {wl.name: wl for wl in (Classify, OracleSmall, Skewed, CorpusCli)}


def _package_modules() -> list[str]:
    return [k for k in sys.modules if k == "latticesize" or k.startswith("latticesize.")]


def _fresh_setup(call) -> None:
    """Import the package anew, as a fresh process would, and make call."""
    pkg = importlib.import_module("latticesize")
    importlib.import_module("latticesize.cli")
    call(pkg)


def measure_setup(wl: Workload) -> float:
    """Median scaled time of importing the package anew and finishing the
    workload's smallest call, in this process.

    The package's modules are dropped from sys.modules before each probe
    and put back after it, so every probe runs all module bodies again
    and starts with empty module-level caches, while L stays the package
    the workload uses.
    """
    ours = {k: sys.modules[k] for k in _package_modules()}
    clock = Clock(scale=True)
    times = []
    for _ in range(SETUP_REPEATS):
        for k in ours:
            del sys.modules[k]
        gc.collect()   # each probe starts from the same collector state
        try:
            with clock.round():
                out, start, end = clock.measure(_fresh_setup, wl.setup_call)
        finally:
            for k in _package_modules():
                del sys.modules[k]
            sys.modules.update(ours)
        if isinstance(out, Exception):
            sys.exit(f"bench: set-up probe failed: {out!r}")
        times.append(clock.seconds(start, end))
    return statistics.median(times)


def peak_rss_mib() -> float:
    """This process's largest resident set: VmHWM, which exec starts
    afresh; the getrusage figure would keep the high-water mark of
    whatever process forked this one.  In KiB on Linux."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def timed_run(wl: Workload, seconds: float) -> tuple[dict, int, int, bool]:
    """Whole rounds for `seconds` and at least MIN_ROUNDS rounds; each
    operation's time is the median of its repeats."""
    setup_s = measure_setup(wl)
    clock = Clock(scale=True)
    times: dict[int, array] = {}   # scaled times of each operation key
    rounds = attempted = failed = 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or rounds < MIN_ROUNDS:
        ops = wl.run_round(clock)
        for key, dt, _, _ in ops:
            times.setdefault(key, array("d")).append(dt)
        rounds += 1
        attempted += len(ops)
        failed += sum(bad for _, _, _, bad in ops)
    per_op = sorted(statistics.median(v) for v in times.values())
    tail = percentile(per_op, wl.tail_percentile) if wl.tail_percentile else per_op[-1]
    metrics = {
        "polygons_per_s": (wl.polygons / sum(per_op), "polygons/s"),
        "query_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "query_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    return metrics, attempted, failed, True


def _self_check_work() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        L.cli.main(["corpus-check", "--n", "2", "--jobs", "1"])
    for vs in inputs.small_polygons(0, inputs.CYCLE):
        query(inputs.apply(((1, 7), (0, 1)), (0, 0), vs))


def traced_run(wl: Workload) -> tuple[dict, int, int, bool]:
    problems = tracer.self_check(_self_check_work)
    for p in problems:
        print(f"trace self-check: {p}", file=sys.stderr)
    clock = Clock(scale=False)   # the reference timer would land inside spans
    plain = wl.run_round(clock)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = wl.run_round(clock)
    finally:
        tr.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.dump(wl.spans_path)
    t_plain = sum(dt for _, dt, _, _ in plain)
    t_traced = sum(dt for _, dt, _, _ in traced)
    polygons = sum(n for _, _, n, _ in traced)   # a repeated query counts again
    metrics = layer_metrics(tracer.load(wl.spans_path), polygons, wl.stdout_bytes)
    metrics["trace.overhead_s"] = (t_traced - t_plain, "s")
    metrics["trace.overhead_ratio"] = ((t_traced - t_plain) / t_plain, "ratio")
    ops = plain + traced
    return metrics, len(ops), sum(bad for _, _, _, bad in ops), not problems


def layer_metrics(s: dict, polygons: int, stdout_bytes: int) -> dict:
    calls, self_s, counts = s["calls"], s["self_s"], s["counts"]

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    def per(num, den):
        return num / den if den else 0

    m = {}
    for span in ("geometry.hull", "geometry.width", "geometry.lattice_points",
                 "geometry.drop_vertex", "reduction.gauss_reduce", "reduction.argmin_shift",
                 "size.invariants", "size.ls_square", "oracle.candidate_directions",
                 "oracle.brute_force_lattice_size", "oracle.canonical_form",
                 "oracle.is_minimal", "bounds.check_bounds", "bounds.extremal_family"):
        m[f"{span}.calls"] = (c(span), "count")
        m[f"{span}.self_s"] = (t(span), "s")
    enumerated = counts.get("enumeration.enumerate_convex.polygons", 0)
    m.update({
        "geometry.lattice_points.points": (counts.get("geometry.lattice_points.points", 0), "count"),
        "geometry.apply_map.calls": (c("geometry.apply_map"), "count"),
        "reduction.argmin_shift.width_calls": (counts["reduction.argmin_shift.width_calls"], "count"),
        "reduction.reduce_per_polygon": (per(c("reduction.gauss_reduce"), polygons), "calls/polygon"),
        "oracle.candidate_directions.dirs": (counts.get("oracle.candidate_directions.dirs", 0), "count"),
        "oracle.lattice_equivalent.calls": (c("oracle.lattice_equivalent"), "count"),
        "oracle.is_minimal.hit_ratio": (per(counts.get("oracle.is_minimal.hits", 0),
                                            c("oracle.is_minimal")), "ratio"),
        "enumeration.enumerate_convex.polygons": (enumerated, "count"),
        "enumeration.enumerate_convex.self_s": (t("enumeration.enumerate_convex")
                                                + t(tracer.ENUM_NEXT), "s"),
        "minimal.verify_classification.self_s": (t("minimal.verify_classification"), "s"),
        "minimal.generate_minimal.self_s": (t("minimal.generate_minimal"), "s"),
        "minimal.ls_square_per_polygon": (per(c("size.ls_square"), enumerated), "calls/polygon"),
        "minimal.classes": (counts.get("minimal.classes", 0), "count"),
        "cli.main.self_s": (t("cli.main"), "s"),
        "cli.stdout_bytes": (stdout_bytes, "B"),
    })
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload](args.seed)
    # a failed output check is a failed operation; correct is false only when
    # a check outside the operations (the tracer self-check) fails
    if args.trace:
        metrics, attempted, failed, correct = traced_run(wl)
    else:
        metrics, attempted, failed, correct = timed_run(wl, args.seconds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
