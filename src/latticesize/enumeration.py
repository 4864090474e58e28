"""Exhaustive generation of polygons with vertices in a square grid.

Chains of grid points whose edge directions strictly advance in angle,
grown depth-first from each possible lexicographically smallest vertex,
visit every strictly convex polygon exactly once, already in canonical
vertex order.  Counts are cross-checked against subset brute force in
the test suite.  map_polygons runs a per-polygon function over such a
stream, in this process or over a pool of worker processes.
"""
from __future__ import annotations

import itertools
import multiprocessing
import os
from typing import Callable, Iterable, Iterator

from .errors import InvalidInputError
from .geometry import ConvexPolygon, Point
from .oracle import canonical_form

DEFAULT_GRID_LIMIT = 5
_BATCH = 256  # polygons per worker task when mapping over a pool


def enumerate_convex(n: int, include_degenerate: bool = False,
                     limit: int = DEFAULT_GRID_LIMIT) -> Iterator[ConvexPolygon]:
    """Every polygon whose vertex set lies in {0..n}^2 in strictly convex
    position, each exactly once, in unspecified order.

    Degenerate members (single points and segments) are included only on
    request.  The grid bound is guarded because the output count grows
    quickly; pass a larger limit explicitly to go beyond the default.
    """
    if not isinstance(n, int) or not 1 <= n <= limit:
        raise InvalidInputError(f"grid size must be an integer in 1..{limit}, got {n!r}")
    return (ConvexPolygon._trusted(tuple(Point(x, y) for x, y in chain))
            for chain in _chains(n, include_degenerate))


def _chains(n: int, include_degenerate: bool) -> Iterator[tuple]:
    grid = [(x, y) for x in range(n + 1) for y in range(n + 1)]
    for i, v0 in enumerate(grid):
        if include_degenerate:
            yield (v0,)
        pool = grid[i + 1:]
        if include_degenerate:
            for w in pool:
                yield (v0, w)
        yield from _grow(v0, [v0], None, pool)


def _grow(v0, chain, last, pool) -> Iterator[tuple]:
    """Extend a convex chain by one grid point in all valid ways."""
    x0, y0 = v0
    cx, cy = chain[-1]
    for w in pool:
        if w in chain:
            continue
        ex, ey = w[0] - cx, w[1] - cy
        if last is not None:
            # edge angles must advance: no falling back from the lower
            # half-turn to the upper, and always a strict left turn
            if _group(*last) > _group(ex, ey) or last[0] * ey - last[1] * ex <= 0:
                continue
        if len(chain) >= 2:
            fx, fy = chain[1][0] - x0, chain[1][1] - y0
            gx, gy = x0 - w[0], y0 - w[1]
            if (_group(ex, ey) <= _group(gx, gy)
                    and ex * gy - ey * gx > 0
                    and gx * fy - gy * fx > 0):
                yield (*chain, w)
        chain.append(w)
        yield from _grow(v0, chain, (ex, ey), pool)
        chain.pop()


def _group(dx, dy) -> int:
    return 0 if dx > 0 or (dx == 0 and dy > 0) else 1


def enumerate_classes(n: int, include_degenerate: bool = False,
                      limit: int = DEFAULT_GRID_LIMIT) -> Iterator[ConvexPolygon]:
    """Canonical forms of the equivalence classes met in {0..n}^2.

    Every class whose canonical form fits the grid appears exactly once,
    since the canonical form itself is one of the enumerated polygons.
    """
    return _distinct_classes(enumerate_convex(n, include_degenerate, limit))


def _distinct_classes(stream: Iterator[ConvexPolygon]) -> Iterator[ConvexPolygon]:
    seen: set[ConvexPolygon] = set()
    for P in stream:
        c = canonical_form(P)
        if c not in seen:
            seen.add(c)
            yield c


def map_polygons(fn: Callable[[ConvexPolygon], object],
                 polygons: Iterable[ConvexPolygon], jobs: int) -> Iterator:
    """fn(P) for every polygon of the stream, in stream order.

    One job maps in this process.  More jobs, capped at the CPU count,
    spread the stream over a process pool in batches of vertex tuples, so
    fn must then be picklable (a module-level function or a partial of
    one) and so must its results.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise InvalidInputError(f"worker count must be a positive integer, got {jobs!r}")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1:
        return map(fn, polygons)
    return _pooled(fn, iter(polygons), jobs)


def _pooled(fn, polygons: Iterator[ConvexPolygon], jobs: int) -> Iterator:
    # iter(f, []) calls f until it returns an empty batch
    batches = iter(lambda: [tuple((v.x, v.y) for v in P.vertices)
                            for P in itertools.islice(polygons, _BATCH)], [])
    with multiprocessing.Pool(jobs) as pool:
        for results in pool.imap(_map_batch, ((fn, batch) for batch in batches)):
            yield from results


def _map_batch(task) -> list:
    fn, batch = task
    return [fn(ConvexPolygon._trusted(tuple(Point(x, y) for x, y in vs)))
            for vs in batch]
