"""Exhaustive searches that cross-check the reduced-basis fast path.

The key fact making brute force sound: any unimodular image fitting a
dilate d of either target has both row widths at most d.  The fast path
always yields a valid certificate, so searching unimodular pairs of
directions no wider than that certificate's dilate provably covers every
map that could do at least as well.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import DegenerateInputError, InvalidInputError
from .geometry import (
    SIMPLEX,
    SQUARE,
    ConvexPolygon,
    Coord,
    IntVec,
    Point,
    Target,
    _cycle,
    _norm,
    _scaled,
    _unscaled,
    area,
    drop_vertex,
    hull,
)
from .reduction import LatticeBasis
from .size import _MEMO, _report, flip_dilates, ls_square


def candidate_directions(P: ConvexPolygon, cap, basis: LatticeBasis) -> list[IntVec]:
    """All primitive directions of width at most cap, up to sign.

    Representatives have positive first coordinate, or a zero first and
    positive second.  The scan runs in the frame of basis: with frame
    coordinates xs = u1.v and ys = u2.v of the vertices v, the width
    width(a, b) of the direction a*u1 + b*u2 is at most cap exactly when
    |a*dx + b*dy| <= cap for the difference (dx, dy) of every vertex
    pair, so the candidates are the integer points (a, b) of the
    intersection K of those slabs.

    Each pair with dy > 0 bounds b in a column a to an interval, read off
    by ceiling and floor division.  A pair with dy = 0 asks only
    |a*dx| <= cap, which the column bound below implies.  K is symmetric
    about the origin, so the half plane a > 0, plus b > 0 on the column
    a = 0, holds one direction of each pair +-u, and b = 1 is the only
    primitive one on that column.

    Columns end at a breakpoint bound.  For a > 0, width(a, b) is
    a * f(b/a), where f(t) = width(1, t) is convex and piecewise linear
    and grows without bound in both directions, since P is
    full-dimensional.  Its breakpoints are where the extreme vertices
    change, at t = -dx/dy for an edge (dx, dy) of the frame image, so f
    is smallest at one of them, where it is width(dy, -dx) / |dy|; a hit
    therefore needs a <= cap * |dy| / width(dy, -dx) for some edge with
    dy != 0.  As f(t) >= |dx| for any pair with dy = 0, that bound keeps
    |a*dx| <= cap too.

    Hits map back through the transpose of the frame, which takes the
    half plane to one representative per sign pair.  The scan is exact
    in any unimodular frame; a width-reduced basis (gauss_reduce) only
    keeps it short, since its axis widths are as small as any basis
    allows, which bounds the search by the shape's intrinsic widths
    rather than whatever skewed coordinates it arrived in.
    """
    if P.dim != 2:
        raise DegenerateInputError("direction enumeration needs a full-dimensional polygon")
    if cap < 0:
        raise InvalidInputError("cap must be nonnegative")
    (p, q), (r, s) = basis.u1, basis.u2
    xs = [p * v.x + q * v.y for v in P.vertices]
    ys = [r * v.x + s * v.y for v in P.vertices]
    slabs = set()   # vertex-pair differences (dx, dy) with dy > 0
    for i in range(len(xs)):
        for j in range(i):
            dx, dy = xs[i] - xs[j], ys[i] - ys[j]
            if dy > 0:
                slabs.add((dx, dy))
            elif dy < 0:
                slabs.add((-dx, -dy))
    last = 0        # the breakpoint bound on a, over the edges (vertex i-1, vertex i)
    for i in range(len(xs)):
        dx, dy = xs[i] - xs[i - 1], ys[i] - ys[i - 1]
        if dy:
            spread = [dy * x - dx * y for x, y in zip(xs, ys)]
            last = max(last, cap * abs(dy) // (max(spread) - min(spread)))
    found: list[IntVec] = []
    for a in range(last + 1):
        lo = max([-((cap + a * dx) // dy) for dx, dy in slabs])
        hi = min([(cap - a * dx) // dy for dx, dy in slabs])
        if a == 0:
            lo, hi = 1, min(hi, 1)
        for b in range(lo, hi + 1):
            if gcd(a, b) == 1:
                u = (a * p + b * r, a * q + b * s)
                found.append(u if u[0] > 0 or (u[0] == 0 and u[1] > 0) else (-u[0], -u[1]))
    return sorted(found)


def brute_force_lattice_size(P: ConvexPolygon, target: Target) -> Coord:
    """Smallest target dilate over every unimodular map, by direct search.

    Independent of the reduced-basis shortcut except for using its
    certificate dilate as the search cap, which only ever widens the
    search beyond what the optimum needs, and its basis as the frame of
    the direction scan, which any unimodular frame would do as well.  A
    rational polygon is searched as its integer multiple D*P, whose
    dilates are D times those of P.  Cap and frame come from P's memoized
    report, and the square search scans the directions the canonical
    form scans (_square_directions), so a query reduces P once.
    """
    if P.dim != 2:
        raise DegenerateInputError("exhaustive search needs a full-dimensional polygon")
    if target not in (SQUARE, SIMPLEX):
        raise InvalidInputError(f"unknown target {target!r}")
    D, S = _scaled(P)
    if target == SQUARE:
        dirs = _square_directions(P)
    else:
        report = _report(P)
        dirs = candidate_directions(S, _norm(D * report.ls_simplex), report.basis)
    dots = {u: [u[0] * v.x + u[1] * v.y for v in S.vertices] for u in dirs}
    spread = {u: max(d) - min(d) for u, d in dots.items()}
    best = None
    for i, u in enumerate(dirs):
        for v in dirs[i + 1:]:
            if u[0] * v[1] - u[1] * v[0] not in (1, -1):
                continue
            if target == SQUARE:
                value = max(spread[u], spread[v])
            else:
                value = min(flip_dilates(dots[u], dots[v]))
            if best is None or value < best:
                best = value
    assert best is not None  # the reduced basis itself is always searched
    return _unscaled(best, D)


@lru_cache(maxsize=_MEMO)
def _square_directions(P: ConvexPolygon) -> tuple[IntVec, ...]:
    """candidate_directions(D*P, D*ls_square(P), basis) for the reduced
    basis of P, memoized for the last _MEMO polygons: the square search
    and the canonical form scan the same directions."""
    report = _report(P)
    D, S = _scaled(P)
    return tuple(candidate_directions(S, _norm(D * report.ls_square), report.basis))


def _least_image(P: ConvexPolygon, dirs) -> tuple:
    """The least vertex tuple among the images of the lattice polygon P
    under the unimodular maps whose rows are two directions of dirs, each
    up to sign, translated so both coordinate minima are zero, as tuples
    of integer pairs in canonical order.

    An affine bijection keeps three points collinear exactly when they
    were, so the image of P's strictly convex vertex cycle is again a
    strictly convex cycle: no hull is needed.  The cycle keeps its
    counterclockwise orientation when the linear part, sign flips
    included, has determinant +1 and turns clockwise when it has -1, in
    which case it is reversed; rotating it to start at its lexicographic
    minimum then gives the tuple hull would return (_cycle).

    That tuple starts at (0, c), c the least translated y among the
    vertices on the image's x-minimum, and c is read off the rows before
    the image is built: an image whose c exceeds that of the best tuple
    so far is larger than it, and is skipped.
    """
    dots = {u: [u[0] * v.x + u[1] * v.y for v in P.vertices] for u in dirs}
    ends = {}   # each row's minimum and maximum, and the vertices on them
    for u, d in dots.items():
        lo, hi = min(d), max(d)
        ends[u] = (lo, hi, [i for i, t in enumerate(d) if t == lo],
                   [i for i, t in enumerate(d) if t == hi])
    best, least = None, None    # the best tuple so far and its c
    for u in dirs:
        du = dots[u]
        lo_u, hi_u, on_lo, on_hi = ends[u]
        for v in dirs:
            det = u[0] * v[1] - u[1] * v[0]
            if det not in (1, -1):
                continue
            dv = dots[v]
            lo_v, hi_v = ends[v][:2]
            for sx, mx, edge in ((1, lo_u, on_lo), (-1, -hi_u, on_hi)):
                # the y-row of the vertices on the image's x-minimum
                column = [dv[i] for i in edge]
                for sy, my in ((1, lo_v), (-1, -hi_v)):
                    c = min(column) - lo_v if sy > 0 else hi_v - max(column)
                    if best is not None and c > least:
                        continue
                    image = _cycle([(sx * a - mx, sy * b - my) for a, b in zip(du, dv)],
                                   det * sx * sy < 0)
                    if best is None or image < best:
                        best, least = image, c
    return best


def canonical_form(P: ConvexPolygon) -> ConvexPolygon:
    """Lexicographically smallest unimodular image with coordinate minima zero.

    Two polygons are unimodularly equivalent exactly when their canonical
    forms coincide, and the canonical form of a lattice polygon with
    square size h sits inside the corner square of side h.  The images of
    a rational polygon are compared as those of its integer multiple D*P,
    which are D times larger and so ordered alike.
    """
    if P.dim < 2:
        # of the four images of a segment that fit the bounding square, the
        # vertical segment from the origin is the lexicographic minimum; a
        # point has square size 0, and hull makes the origin of it
        return hull([Point(0, 0), Point(0, _report(P).ls_square)])
    return _canonical(P)


@lru_cache(maxsize=_MEMO)
def _canonical(P: ConvexPolygon) -> ConvexPolygon:
    """canonical_form of a full-dimensional P, memoized for the last _MEMO
    polygons, so that extremal_family builds P's form once for all the
    families it compares P with."""
    D, S = _scaled(P)
    best = _least_image(S, _square_directions(P))
    return ConvexPolygon._trusted(
        tuple(Point(_unscaled(x, D), _unscaled(y, D)) for x, y in best))


def lattice_equivalent(P: ConvexPolygon, Q: ConvexPolygon) -> bool:
    """Whether some unimodular map carries P onto Q."""
    if len(P.vertices) != len(Q.vertices):
        return False
    if area(P) != area(Q):
        return False
    return canonical_form(P) == canonical_form(Q)


def is_minimal(P: ConvexPolygon) -> bool:
    """No vertex of P can be dropped without shrinking the square size.

    A proper lattice subpolygon misses some vertex of P, hence lies in
    that vertex's drop, and square size is monotone under inclusion, so
    single drops decide minimality.
    """
    if not P.is_lattice:
        raise InvalidInputError("minimality is about lattice polygons")
    if len(P.vertices) == 1:
        return True
    h = ls_square(P)
    for v in P.vertices:
        if ls_square(drop_vertex(P, v)) >= h:
            return False
    return True
