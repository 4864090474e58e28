"""Exhaustive generation of polygons with vertices in a square grid.

Chains of grid points whose edge directions strictly advance in angle,
grown depth-first from each possible lexicographically smallest vertex,
visit every strictly convex polygon exactly once, already in canonical
vertex order.  Counts are cross-checked against subset brute force in
the test suite.  Grown from the column x = 0 only, pruned, and yielded
once they reach y = 0 (_chains' anchored option), the same chains are
the vertex tuples of the polygons whose coordinate minima are both 0
(_anchored_chains), with no second pass.  The dihedral filter
(_has_smaller_image) keeps those that can be canonical forms, for
enumerate_classes and the minimal sweep.  For that sweep, _chains' sweep
option also cuts every chain that holds a segment of lattice length at
least the grid size, or a point on the box's sides that gives a dihedral
image a lower first vertex, before it is grown further.  map_polygons maps a function over polygons or vertex
tuples, in this process or over a worker pool.
"""
from __future__ import annotations

import itertools
import multiprocessing
import os
from math import gcd
from typing import Callable, Iterable, Iterator

from .errors import InvalidInputError
from .geometry import ConvexPolygon, Point, _cycle
from .oracle import canonical_form

DEFAULT_GRID_LIMIT = 5
_BATCH = 256  # items per worker task when mapping over a pool

# the square's symmetries but the identity: (swap axes, then mirror x, then y)
_SYMMETRIES = tuple(itertools.product((False, True), repeat=3))[1:]


def _check_grid(n: int, limit: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= limit:
        raise InvalidInputError(f"grid size must be an integer in 1..{limit}, got {n!r}")


def enumerate_convex(n: int, include_degenerate: bool = False,
                     limit: int = DEFAULT_GRID_LIMIT) -> Iterator[ConvexPolygon]:
    """Every polygon whose vertex set lies in {0..n}^2 in strictly convex
    position, each exactly once, in unspecified order.

    Degenerate members (single points and segments) are included only on
    request.  The output grows quickly with n, so a grid larger than limit
    is refused; pass a larger limit explicitly to go beyond the default.
    """
    _check_grid(n, limit)
    return (ConvexPolygon._trusted(tuple(Point(x, y) for x, y in chain))
            for chain in _chains(n) if include_degenerate or len(chain) >= 3)


def _anchored_chains(n: int) -> Iterator[tuple]:
    """The vertex tuples of the members of enumerate_convex(n,
    include_degenerate=True) whose coordinate minima are both 0, as
    integer pairs, in the same order.

    Such a polygon starts at a vertex v0 in the column x = 0, so only
    chains from there are grown.  Counterclockwise from v0, the
    lexicographically smallest vertex, the edges heading forward
    (lexicographically) come first and those heading backward last, and
    the edge angles advance through less than a full turn.  So y falls
    along forward edges heading down, then rises, then falls back to v0
    along backward edges heading down.  Once a chain's last edge stops
    heading down, every later vertex of any polygon it grows into lies on
    that rise or on the final fall, hence no lower than the chain's last
    vertex or than v0.  A chain with every vertex above y = 0 whose last
    edge does not head down is therefore dropped together with every
    chain grown from it: no polygon reaching y = 0 is lost.  The walk
    carries each chain's smallest y (_grow's `lowest`) and yields a chain
    just when it is 0, as a scan would, at its place in the unpruned walk.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"grid size must be a positive integer, got {n!r}")
    return _chains(n, anchored=True)


def _chains(n: int, anchored: bool = False, sweep: bool = False) -> Iterator[tuple]:
    """Chains, points and segments too, from each grid point in x-major
    order as their lexicographically smallest vertex; with anchored,
    only from the column x = 0, as _anchored_chains describes.

    With sweep too, n is the square size h of verify_classification's
    sweep, and the anchored chains it would reject on a prefix are not
    grown; what is left is a subsequence, in the same order.  A chain
    carries the set of points it may not take (_grow's `banned`):

    - pair prune: every point w' with gcd(w' - u) >= h for a vertex u of
      the chain.  A polygon with three or more vertices, two of which
      span such a segment, is not minimal (see verify_classification),
      and so is every polygon grown from the chain.  The 2-point chain
      (v0, w) is still yielded as a segment, and only its growth stops.
    - band prune: for v0 = (0, c), every point on a side of the box
      [0, n]^2 whose coordinate t along that side lies outside
      [c, n - c].  A polygon holding it has a dihedral image whose first
      vertex (0, c') has c' < c, so _has_smaller_image rejects every
      completion, segments among them.  With X, Y <= n the two spans, c'
      is at most (see _has_smaller_image): on y = 0, t for the swap and
      X - t for the swap then mirror y; on x = n = X, t for mirror x and
      Y - t for both mirrors; on y = n = Y, t for the swap then mirror x
      and X - t for the swap then both mirrors; on x = 0, Y - t for
      mirror y (no chain takes a point below v0 there).  When c > n - c,
      v0 itself is such a point, and nothing grows from it.
    """
    grid = [(x, y) for x in range(n + 1) for y in range(n + 1)]
    # with sweep, the grid points each point spans a segment of lattice
    # length at least n with; without, none
    far = {p: frozenset(q for q in grid if sweep and q != p
                        and gcd(q[0] - p[0], q[1] - p[1]) >= n) for p in grid}
    for i, v0 in enumerate(grid[:n + 1] if anchored else grid):
        high = v0[1] if anchored else 0
        band = frozenset((x, y) for x, y in grid if sweep and (
            (x in (0, n) and not high <= y <= n - high)
            or (y in (0, n) and not high <= x <= n - high)))
        if v0 in band:
            continue
        if not high:
            yield (v0,)
        pool = grid[i + 1:]
        yield from ((v0, w) for w in pool if not (high and w[1]) and w not in band)
        banned = band | far[v0]
        for w in pool:
            if (high and w[1] >= high) or w in banned:
                continue
            yield from _grow(v0, [v0, w], pool, min(high, w[1]), far, banned | far[w])


def _grow(v0, chain, pool, lowest, far, banned) -> Iterator[tuple]:
    """Extend a chain of two or more grid points, v0 first, by one more
    point in all valid ways, yielding each polygon so made.

    A point w after the last point c is kept when the edge angles advance
    (a strict left turn at c, and no falling back from the edges heading
    backward, lexicographically, to those heading forward), when w lies
    strictly left of the first edge and when v0 lies strictly left of the
    edge c -> w.  Every strictly convex polygon passes these at each of
    its vertices in turn, so none is lost.  The last two are the left
    turns at v0 and at w of the chain closed back to v0, so a kept chain,
    closed, turns left everywhere, and as its edge angles advance through
    less than a full turn before the closing edge it winds once: it is a
    strictly convex polygon.  No point repeats: w = c makes no turn, and
    an earlier vertex w of that polygon has v0 on its arc from c to w, so
    v0 lies strictly right of c -> w.

    lowest is the chain's smallest y when only polygons reaching y = 0
    are wanted, and 0 otherwise.  While it is positive, an edge c -> w
    that does not head down ends the chain, and a kept chain grows on
    but is yielded only if w lies on y = 0 (see _anchored_chains).

    A point of banned ends the chain: it is neither yielded nor grown.
    A kept w adds far[w], the points it spans a long segment with, to
    the set its extensions get.  Both are empty outside the sweep's mode
    (see _chains), whose prunes hold for every extension of a chain they
    drop, so no chain the sweep keeps is lost.
    """
    x0, y0 = v0
    fx, fy = chain[1][0] - x0, chain[1][1] - y0
    (bx, by), (cx, cy) = chain[-2], chain[-1]
    lx, ly = cx - bx, cy - by
    gx, gy = x0 - cx, y0 - cy
    last_backward = not (lx > 0 or (lx == 0 and ly > 0))
    for w in pool:
        wx, wy = w
        ex, ey = wx - cx, wy - cy
        if (lx * ey - ly * ex <= 0
                or (last_backward and (ex > 0 or (ex == 0 and ey > 0)))
                or fx * (wy - y0) - fy * (wx - x0) <= 0
                or ex * gy - ey * gx <= 0
                or (lowest and ey >= 0)
                or w in banned):
            continue
        if not (lowest and wy):
            yield (*chain, w)
        chain.append(w)
        yield from _grow(v0, chain, pool, min(lowest, wy), far,
                         banned | far[w] if far[w] else banned)
        chain.pop()


def _has_smaller_image(vs: tuple) -> bool:
    """Whether a symmetry of the square maps the polygon with vertex
    tuple vs, both coordinate minima 0, to a smaller vertex tuple once
    translated back to minima 0.  That image is a unimodular image of the
    same polygon, so vs is then not its canonical form, the least one.

    vs starts at (0, c), c the least y on x = 0, and an image starts at
    (0, c') with c' read off a side of the box [0, X] x [0, Y]: the side
    the image's x = 0 comes from, x = 0 or x = X, or with the swap y = 0
    or y = Y, holds the vertices whose other coordinate gives c' as its
    minimum, or as the span minus its maximum when the image mirrors that
    coordinate.  An image with c' < c is smaller and one with c' > c is
    larger, so only one with c' = c is built and compared in full.
    """
    c = vs[0][1]
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    X, Y = max(xs), max(ys)
    for swap, fx, fy in _SYMMETRIES:
        a, b, A, B = (ys, xs, Y, X) if swap else (xs, ys, X, Y)
        end = A if fx else 0
        side = [t for s, t in zip(a, b) if s == end]
        first = B - max(side) if fy else min(side)
        if first < c:
            return True
        if first == c:
            image = zip([A - s for s in a] if fx else a, [B - t for t in b] if fy else b)
            if _cycle(list(image), swap ^ fx ^ fy) < vs:
                return True
    return False


def enumerate_classes(n: int, include_degenerate: bool = False,
                      limit: int = DEFAULT_GRID_LIMIT) -> Iterator[ConvexPolygon]:
    """Canonical forms of the equivalence classes met in {0..n}^2, each
    exactly once, in the order of _anchored_chains; points and segments
    only with include_degenerate.

    A class met in the grid has square size at most n, so its canonical
    form lies in the corner square of side n, has both coordinate minima
    0 and is no larger than any of its 7 other dihedral images: it is a
    tuple of _anchored_chains(n) that _has_smaller_image keeps.  Those
    tuples that are their own canonical form are distinct classes, so no
    set of forms already seen is needed."""
    _check_grid(n, limit)
    polygons = (ConvexPolygon._trusted(tuple(Point(x, y) for x, y in vs))
                for vs in _anchored_chains(n)
                if (include_degenerate or len(vs) >= 3) and not _has_smaller_image(vs))
    return (P for P in polygons if canonical_form(P) == P)


def map_polygons(fn: Callable, polygons: Iterable, jobs: int) -> Iterator:
    """fn(item) for every item of the stream, in stream order.

    The items are polygons or their vertex tuples.  One job maps in this
    process.  More jobs, capped at the CPU count, spread the stream over
    a process pool in chunks of _BATCH items, so fn must then be
    picklable (a module-level function or a partial of one) and so must
    the items and the results.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise InvalidInputError(f"worker count must be a positive integer, got {jobs!r}")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1:
        return map(fn, polygons)
    return _pooled(fn, polygons, jobs)


def _pooled(fn, items: Iterable, jobs: int) -> Iterator:
    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(fn, items, chunksize=_BATCH)
