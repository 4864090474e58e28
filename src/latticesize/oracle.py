"""Exhaustive searches that cross-check the reduced-basis fast path.

The key fact making brute force sound: any unimodular image fitting a
dilate d of either target has both row widths at most d.  The fast path
always yields a valid certificate, so searching unimodular pairs of
directions no wider than that certificate's dilate provably covers every
map that could do at least as well.
"""
from __future__ import annotations

from math import gcd
from typing import Iterator

from .errors import DegenerateInputError, InvalidInputError
from .geometry import (
    SIMPLEX,
    SQUARE,
    ConvexPolygon,
    Coord,
    IntVec,
    Point,
    Target,
    _scaled,
    _unscaled,
    area,
    drop_vertex,
    hull,
    width,
)
from .reduction import LatticeBasis, gauss_reduce
from .size import flip_dilates, invariants, ls_square


def candidate_directions(P: ConvexPolygon, cap, basis: LatticeBasis) -> list[IntVec]:
    """All primitive directions of width at most cap, up to sign.

    Representatives have positive first coordinate, or a zero first and
    positive second.  The scan runs in the frame of basis and maps hits
    back through the transpose.  Square shells are scanned outward;
    widths are positively homogeneous along rays and change by at most
    one axis width per unit step along a shell, so once the narrowest
    integer point of a shell clears cap by that slack nothing further
    qualifies.  That argument holds in any unimodular frame; a
    width-reduced basis (gauss_reduce) only keeps the scan short, since
    its axis widths are as small as any basis allows, which bounds the
    search by the shape's intrinsic widths rather than whatever skewed
    coordinates it arrived in.
    """
    if P.dim != 2:
        raise DegenerateInputError("direction enumeration needs a full-dimensional polygon")
    if cap < 0:
        raise InvalidInputError("cap must be nonnegative")
    dots1 = [basis.u1[0] * v.x + basis.u1[1] * v.y for v in P.vertices]
    dots2 = [basis.u2[0] * v.x + basis.u2[1] * v.y for v in P.vertices]

    def reduced_width(u: IntVec):
        a, b = u
        dots = [a * p + b * q for p, q in zip(dots1, dots2)]
        return max(dots) - min(dots)

    slack = max(reduced_width((1, 0)), reduced_width((0, 1)))
    found: list[IntVec] = []
    r = 0
    while True:
        r += 1
        shell_min = None
        for u in _shell(r):
            w = reduced_width(u)
            if shell_min is None or w < shell_min:
                shell_min = w
            if w <= cap and gcd(u[0], u[1]) == 1:
                a = u[0] * basis.u1[0] + u[1] * basis.u2[0]
                b = u[0] * basis.u1[1] + u[1] * basis.u2[1]
                if a < 0 or (a == 0 and b < 0):
                    a, b = -a, -b
                found.append((a, b))
        if shell_min > cap + slack:
            return sorted(set(found))


def _shell(r: int):
    """Integer points with max(|a|, |b|) = r."""
    for a in range(-r, r + 1):
        if abs(a) == r:
            for b in range(-r, r + 1):
                yield (a, b)
        else:
            yield (a, -r)
            yield (a, r)


def brute_force_lattice_size(P: ConvexPolygon, target: Target) -> Coord:
    """Smallest target dilate over every unimodular map, by direct search.

    Independent of the reduced-basis shortcut except for using its
    certificate dilate as the search cap, which only ever widens the
    search beyond what the optimum needs, and its basis as the frame of
    the direction scan, which any unimodular frame would do as well.  A
    rational polygon is searched as its integer multiple D*P, whose
    dilates are D times those of P.
    """
    if P.dim != 2:
        raise DegenerateInputError("exhaustive search needs a full-dimensional polygon")
    if target not in (SQUARE, SIMPLEX):
        raise InvalidInputError(f"unknown target {target!r}")
    D, P = _scaled(P)
    report = invariants(P)
    cap = report.ls_square if target == SQUARE else report.ls_simplex
    dirs = candidate_directions(P, cap, report.basis)
    dots = {u: [u[0] * v.x + u[1] * v.y for v in P.vertices] for u in dirs}
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


def _normalized_images(P: ConvexPolygon, side, basis: LatticeBasis) -> Iterator[tuple]:
    """Vertex tuples of every unimodular image of the lattice polygon P
    inside the side-sized corner square, translated so both coordinate
    minima are zero, as tuples of integer pairs in canonical order.

    An affine bijection keeps three points collinear exactly when they
    were, so the image of P's strictly convex vertex cycle is again a
    strictly convex cycle: no hull is needed.  The cycle keeps its
    counterclockwise orientation when the linear part, sign flips
    included, has determinant +1 and turns clockwise when it has -1, in
    which case it is reversed; rotating it to start at its lexicographic
    minimum then gives the tuple hull would return.
    """
    dirs = candidate_directions(P, side, basis)
    dots = {u: [u[0] * v.x + u[1] * v.y for v in P.vertices] for u in dirs}
    narrow = [u for u in dirs if max(dots[u]) - min(dots[u]) <= side]
    for u in narrow:
        for v in narrow:
            det = u[0] * v[1] - u[1] * v[0]
            if det not in (1, -1):
                continue
            du, dv = dots[u], dots[v]
            for sx in (1, -1):
                xs = [sx * a for a in du]
                mx = min(xs)
                for sy in (1, -1):
                    ys = [sy * b for b in dv]
                    my = min(ys)
                    image = [(x - mx, y - my) for x, y in zip(xs, ys)]
                    if det * sx * sy < 0:
                        image.reverse()
                    k = image.index(min(image))
                    yield tuple(image[k:] + image[:k])


def canonical_form(P: ConvexPolygon) -> ConvexPolygon:
    """Lexicographically smallest unimodular image with coordinate minima zero.

    Two polygons are unimodularly equivalent exactly when their canonical
    forms coincide, and the canonical form of a lattice polygon with
    square size h sits inside the corner square of side h.  The images of
    a rational polygon are compared as those of its integer multiple D*P,
    which are D times larger and so ordered alike.
    """
    if P.dim == 0:
        return ConvexPolygon((Point(0, 0),))
    if P.dim == 1:
        # of the four images that fit the bounding square, the vertical
        # segment from the origin is the lexicographic minimum
        length = ls_square(P)
        return hull([Point(0, 0), Point(0, length)])
    D, P = _scaled(P)
    basis = gauss_reduce(P)
    side = width(P, basis.u2)
    best = min(_normalized_images(P, side, basis))
    return ConvexPolygon._trusted(
        tuple(Point(_unscaled(x, D), _unscaled(y, D)) for x, y in best))


def lattice_equivalent(P: ConvexPolygon, Q: ConvexPolygon) -> bool:
    """Whether some unimodular map carries P onto Q."""
    if len(P.vertices) != len(Q.vertices) or P.dim != Q.dim:
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
