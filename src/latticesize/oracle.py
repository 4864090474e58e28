"""Exhaustive searches that cross-check the reduced-basis fast path.

The key fact making brute force sound: any unimodular image fitting a
dilate d of either target has both row widths at most d.  The fast path
always yields a valid certificate, so scanning the directions no wider
than that certificate's dilate provably covers every map that could do
at least as well.  Both searches read the scan's rows in width order
(brute_force_lattice_size): the square size is the second least width,
and the triangle search reads two flip dilates of each unimodular pair
whose sum the scan holds, off the stored extremes of the three rows,
and stops once a pair's wider row is at least the best value so far.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, inf

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
    apply_map,
    area,
    drop_vertex,
    hull,
)
from .reduction import LatticeBasis
from .size import _MEMO, _report, ls_square


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
    certificate dilates as the search caps, which only ever widen the
    search beyond what the optimum needs, and its basis as the frame of
    the direction scan, which any unimodular frame would do as well.  A
    rational polygon is searched as its integer multiple D*P, whose
    dilates are D times those of P.  Both searches read one memoized scan
    of P's directions (_scan), so a query reduces and scans P once, and
    both read its rows sorted by width hi - lo.

    The square size is the second least width among the rows, lambda_2,
    the second successive minimum of the width norm.  The rows are
    primitive and pairwise non-parallel, and a direction that is not
    primitive is a multiple of a primitive one and wider, so lambda_2 is
    the least value of max(w_u, w_v) over the independent pairs (u, v).
    The scan holds both minima: lambda_1 <= lambda_2 <= ls_square <=
    ls_simplex, the scan's cap, as l*T lies in [0, l]^2 for the standard
    triangle T.  Any unimodular pair is independent, so ls_square >=
    lambda_2; the fast certificate gives ls_square <= w(u2), the width of
    the reduced basis' second vector; agreement of the two therefore
    proves the fast value without any further theorem.  In the plane a
    Lagrange-Gauss reduced basis attains lambda_1 and lambda_2, so the
    value is exact.

    The triangle search reads only the unimodular pairs (u, v) whose u+v
    the scan holds, and of each the dilates hi(u+v) - lo_u - lo_v and
    hi_u + hi_v - lo(u+v), the first two of flip_dilates, off the stored
    extremes (lo, hi) of the three rows.  Each flip dilate of a pair is
    -(lo_a + lo_b + lo_c) for three pairwise unimodular directions with
    a + b + c = 0.  A sum of two directions in the scan's signs (first
    coordinate positive, or zero with the second positive) is again in
    them, so up to sign one direction of each such triple is the sum of
    the other two: the u-v flips of (u, v) are the u+v flips of (v, u-v)
    or of (u, v-u).  The least flip dilate d is at most the cap, which the
    reduced basis and the flip its certificate chose attain, and its
    triple has all three widths at most d, as d*T lies in [0, d]^2 and
    x + y ranges in [0, d] on it; so its two summands are a scanned
    unimodular pair whose sum the scan holds.  The determinant test
    stays: (1, 0), (1, 3) and (2, 3) are primitive, with det 3.

    Every flip dilate d of a pair is at least both row widths, because
    the flipped image lies in d*T, inside [0, d]^2.  In width order the
    later row of a pair is the wider, so once it is at least the best
    value so far, the value of every pair left in the inner loop is too,
    and once the earlier row is, the value of every pair left at all;
    best only falls, so the search stops there without skipping a pair
    that could win.
    """
    if P.dim != 2:
        raise DegenerateInputError("exhaustive search needs a full-dimensional polygon")
    if target not in (SQUARE, SIMPLEX):
        raise InvalidInputError(f"unknown target {target!r}")
    D, rows, _ = _scan(P)
    rows = sorted(rows, key=lambda row: row[3] - row[2])
    if target == SQUARE:
        _, _, lo, hi = rows[1]
        return _unscaled(hi - lo, D)
    ends = {u: (lo, hi) for u, _, lo, hi in rows}
    best = inf
    for i, (u, _, lo_u, hi_u) in enumerate(rows):
        if hi_u - lo_u >= best:
            break
        for v, _, lo_v, hi_v in rows[i + 1:]:
            if hi_v - lo_v >= best:
                break
            if u[0] * v[1] - u[1] * v[0] not in (1, -1):
                continue
            s = ends.get((u[0] + v[0], u[1] + v[1]))
            if s is not None:
                best = min(best, s[1] - lo_u - lo_v, hi_u + hi_v - s[0])
    assert best < inf  # the certificate of the cap is always searched
    return _unscaled(best, D)


@lru_cache(maxsize=_MEMO)
def _scan(P: ConvexPolygon) -> tuple:
    """The one direction scan of a query on a full-dimensional P,
    memoized for the last _MEMO polygons: (D, rows, square_rows), D the
    least common denominator of P's coordinates.  rows holds (u, row, lo,
    hi) for each direction u of candidate_directions(D*P, D*ls_simplex(P),
    basis), in its order, basis the reduced basis of P, row the dot
    products of u with D*P's vertices and lo, hi their extremes, so u's
    width is hi - lo.

    Both searches take every entry: the square search reads the second
    least width, and the triangle search the flip dilates of each
    unimodular pair whose sum the scan holds, off the stored extremes of
    the pair and the sum.  The canonical form takes square_rows, the
    entries no wider than D*ls_square(P), which are
    exactly candidate_directions(D*P, D*ls_square(P), basis) in the same
    order: ls_square <= ls_simplex, as l*T lies in [0, l]^2 for the
    standard triangle T, so every direction within the square cap is
    within the triangle cap too, and a filter keeps the scan's sorted
    order.
    """
    report = _report(P)
    D, S = _scaled(P)
    rows = []
    for u in candidate_directions(S, _norm(D * report.ls_simplex), report.basis):
        row = [u[0] * v.x + u[1] * v.y for v in S.vertices]
        rows.append((u, row, min(row), max(row)))
    cap = _norm(D * report.ls_square)
    return D, tuple(rows), tuple(row for row in rows if row[3] - row[2] <= cap)


def _least_image(rows) -> tuple:
    """The least vertex tuple among the images of a lattice polygon under
    the unimodular maps whose matrix rows are two of the directions in
    rows, each up to sign, translated so both coordinate minima are zero,
    as tuples of integer pairs in canonical order.  rows holds entries of
    _scan: a direction, its dot products with the polygon's vertices, and
    their extremes.

    An affine bijection keeps three points collinear exactly when they
    were, so the image of the polygon's strictly convex vertex cycle is
    again a strictly convex cycle: no hull is needed.  The cycle keeps
    its counterclockwise orientation when the linear part, sign flips
    included, has determinant +1 and turns clockwise when it has -1, in
    which case it is reversed; rotating it to start at its lexicographic
    minimum then gives the tuple hull would return (_cycle).

    That tuple starts at (0, c), c the least translated y among the
    vertices on the image's x-minimum, and c is read off the rows before
    the image is built: an image whose c exceeds that of the best tuple
    so far is larger than it, and is skipped.
    """
    # each row with the vertices on its minimum and on its maximum
    ends = [(u, d, lo, hi, [i for i, t in enumerate(d) if t == lo],
             [i for i, t in enumerate(d) if t == hi]) for u, d, lo, hi in rows]
    best, least = None, None    # the best tuple so far and its c
    for u, du, lo_u, hi_u, on_lo, on_hi in ends:
        for v, dv, lo_v, hi_v, _, _ in ends:
            det = u[0] * v[1] - u[1] * v[0]
            if det not in (1, -1):
                continue
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
    """Lexicographically smallest unimodular image with coordinate minima
    zero inside the corner square [0, h]^2, h the square size.

    Two polygons are unimodularly equivalent exactly when their canonical
    forms coincide.  The square is part of the definition: the form of
    the exceptional triangle is conv{(0,0),(2,1),(1,2)}, while its image
    conv{(0,0),(1,0),(2,3)}, outside [0, 2]^2, is smaller.  The images of
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
    D, _, square_rows = _scan(P)
    best = _least_image(square_rows)
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

    h and the square certificate are read off P's memoized report
    (_report), which canonical_form then reuses.  A unimodular map
    carries lattice points, drops and square sizes to their images, so
    P is minimal exactly when its image Q under the certificate's map
    is, and Q lies in [0, h]^2: each drop's lattice scan costs what Q's
    size costs, however skewed P's coordinates are.  The drops are still
    measured by the reduction (ls_square); the h-sweep decides the same
    question on integers (minimal._sweep_one), and the tests check it
    against this.
    """
    if not P.is_lattice:
        raise InvalidInputError("minimality is about lattice polygons")
    if len(P.vertices) == 1:
        return True
    report = _report(P)
    h = report.ls_square
    Q = apply_map(report.cert_square.map, P)
    return all(ls_square(drop_vertex(Q, v)) < h for v in Q.vertices)
