"""Span tracing of the package from outside its source.

Tracer.install() replaces each function in TRACED by a wrapper in every
``latticesize.*`` module namespace that binds it, so calls made inside the
package are seen as well as calls from the benchmark.  Each call records a
span (name, start, end, parent) in arrays kept in memory; dump() writes
them out when the run ends and summarize() totals them by name.  A span's
self time is its duration minus the time its direct child spans cover.
The traced workloads run in one thread of one process, which is all the
parent links assume.
"""
from __future__ import annotations

import cProfile
import pickle
import sys
import time
from array import array

PACKAGE = "latticesize"

# (module, function) pairs whose calls become spans named "<module>.<function>"
TRACED = (
    ("geometry", "hull"), ("geometry", "width"), ("geometry", "lattice_points"),
    ("geometry", "drop_vertex"), ("geometry", "apply_map"),
    ("reduction", "gauss_reduce"), ("reduction", "argmin_shift"),
    ("size", "invariants"), ("size", "ls_square"),
    ("oracle", "candidate_directions"), ("oracle", "brute_force_lattice_size"),
    ("oracle", "canonical_form"), ("oracle", "lattice_equivalent"),
    ("oracle", "is_minimal"),
    ("bounds", "check_bounds"), ("bounds", "extremal_family"),
    ("enumeration", "enumerate_convex"),
    ("minimal", "verify_classification"), ("minimal", "generate_minimal"),
    ("cli", "main"),
)
ENUMERATE = "enumeration.enumerate_convex"
ENUM_NEXT = ENUMERATE + ".next"   # one span per next() of the returned iterator


def _count_len(key):
    def measure(counts, result):
        counts[key] = counts.get(key, 0) + len(result)
    return measure


def _count_true(key):
    def measure(counts, result):
        if result:
            counts[key] = counts.get(key, 0) + 1
    return measure


def _count_classes(counts, report):
    counts["minimal.classes"] = counts.get("minimal.classes", 0) + len(report.search_classes)


# counters taken from return values, by span name
MEASURES = {
    "geometry.lattice_points": _count_len("geometry.lattice_points.points"),
    "oracle.candidate_directions": _count_len("oracle.candidate_directions.dirs"),
    "oracle.is_minimal": _count_true("oracle.is_minimal.hits"),
    "minimal.verify_classification": _count_classes,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")     # per span: index into names
        self.parent = array("l")   # per span: index of the enclosing span, or -1
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, span: str, fn):
        nid = self._intern(span)
        measure = MEASURES.get(span)
        next_nid = self._intern(ENUM_NEXT) if span == ENUMERATE else None

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                measure(self.counts, result)
            if next_nid is not None:
                return self._iterate(result, next_nid)
            return result
        return traced

    def _iterate(self, items, nid: int):
        """Yield from items, each next() on them being a span."""
        it = iter(items)
        key = ENUMERATE + ".polygons"
        while True:
            idx = self._open(nid)
            try:
                item = next(it, self)
            finally:
                self._close(idx)
            if item is self:
                return
            self.counts[key] = self.counts.get(key, 0) + 1
            yield item

    def install(self) -> None:
        """Wrap every TRACED function wherever the package binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod, fn_name in TRACED:
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), fn_name, None)
            if original is None:
                print(f"trace: {PACKAGE}.{mod}.{fn_name} not found", file=sys.stderr)
                continue
            span = f"{mod}.{fn_name}"
            self.originals[span] = original
            wrapper = self._wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def _spans(self) -> dict:
        return {"names": self.names, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "counts": self.counts}

    def dump(self, path: str) -> None:
        """Write every span and counter; load() reads the file back."""
        with open(path, "wb") as fh:
            pickle.dump(self._spans(), fh, protocol=pickle.HIGHEST_PROTOCOL)

    def summary(self) -> dict:
        return summarize(self._spans())


def load(path: str) -> dict:
    """Summary of a file written by dump() (only ever our own files)."""
    with open(path, "rb") as fh:
        return summarize(pickle.load(fh))


def summarize(spans: dict) -> dict:
    """Per span name: calls and self seconds; plus the counters and the
    number of width spans whose parent is an argmin_shift span."""
    names, nm, parent = spans["names"], spans["name"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    covered = [0.0] * len(dur)
    width_ids = {i for i, n in enumerate(names) if n == "geometry.width"}
    shift_ids = {i for i, n in enumerate(names) if n == "reduction.argmin_shift"}
    width_in_shift = 0
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
            if nm[i] in width_ids and nm[p] in shift_ids:
                width_in_shift += 1
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, nid in enumerate(nm):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - covered[i]
    counts = dict(spans["counts"])
    counts["reduction.argmin_shift.width_calls"] = width_in_shift
    return {"calls": calls, "self_s": self_s, "counts": counts}


def self_check(work) -> list[str]:
    """Run work under cProfile, then under a Tracer, and compare the call
    count of every traced function; returns the mismatches found."""
    prof = cProfile.Profile()
    prof.runcall(work)
    prof.create_stats()
    prof_calls = {key: nc for key, (cc, nc, tt, ct, callers) in prof.stats.items()}
    tracer = Tracer()
    tracer.install()
    try:
        work()
    finally:
        tracer.uninstall()
    seen = tracer.summary()["calls"]
    problems = []
    for span, fn in tracer.originals.items():
        code = fn.__code__
        want = prof_calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        got = seen.get(span, 0)
        if want == 0:
            problems.append(f"{span}: not exercised by the self-check input")
        elif got != want:
            problems.append(f"{span}: traced {got} calls, cProfile counted {want}")
    return problems
