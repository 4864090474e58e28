"""Lattice width and lattice size of a polygon, with containment certificates.

The lattice size of a polygon for a target shape (unit square or standard
triangle) is the smallest dilate of the target that some unimodular image
of the polygon fits into.  For a width-reduced basis the two widths give
the lattice width and the square size outright, and the triangle size is
the best of the four axis sign flips of the reduced image; the returned
certificates make those containments directly checkable.

A rational polygon P is measured as its integer multiple D*P, D the least
common denominator of its coordinates: every width of D*P is D times that
of P, so the two reduce to the same basis, and the widths, sizes and
certificate translations of P are those of D*P divided by D.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .geometry import (
    SIMPLEX,
    SQUARE,
    ConvexPolygon,
    Coord,
    Target,
    UnimodularMap,
    _scaled,
    _unscaled,
    apply_map,
    area,
    contained_in_dilate,
    width,
)
from .reduction import LatticeBasis, _reduce, gauss_reduce

# axis signs (x, y) of the four flips, in the order of flip_dilates
_FLIPS = ((1, 1), (-1, -1), (1, -1), (-1, 1))

# Polygons whose report, direction scan and canonical form stay memoized
# (_report here, oracle._scan and oracle._canonical): enough for the
# public calls of one query to share one reduction and one scan, and far
# fewer than any sweep or corpus holds.  A lookup costs one cached hash
# (ConvexPolygon.__hash__).
_MEMO = 16


@dataclass(frozen=True, slots=True)
class ContainmentCertificate:
    """A unimodular map witnessing that its image fits dilate * target."""

    map: UnimodularMap
    target: Target
    dilate: Coord

    def verify(self, P: ConvexPolygon) -> bool:
        return contained_in_dilate(apply_map(self.map, P), self.dilate, self.target)


@dataclass(frozen=True, slots=True)
class InvariantsReport:
    width: Coord
    ls_square: Coord
    ls_simplex: Coord
    area: Fraction
    basis: LatticeBasis
    cert_square: ContainmentCertificate
    cert_simplex: ContainmentCertificate


def flip_dilates(xs: list[Coord], ys: list[Coord]) -> tuple[Coord, Coord, Coord, Coord]:
    """Smallest triangle dilates containing the points (xs[i], ys[i]) after
    each axis sign flip: identity, both axes flipped, y flipped, x flipped.

    Translations are unconstrained, so each value reads off the extremes.
    """
    sums = [x + y for x, y in zip(xs, ys)]
    difs = [x - y for x, y in zip(xs, ys)]
    return (
        max(sums) - min(xs) - min(ys),
        max(xs) + max(ys) - min(sums),
        max(ys) - min(xs) + max(difs),
        max(xs) - min(ys) - min(difs),
    )


def simplex_dilates(P: ConvexPolygon) -> tuple[Coord, Coord, Coord, Coord]:
    """Smallest triangle dilates containing P after each axis sign flip,
    in the order of flip_dilates."""
    return flip_dilates([v.x for v in P.vertices], [v.y for v in P.vertices])


def lattice_width(P: ConvexPolygon) -> Coord:
    """Smallest directional width over all nonzero integer directions."""
    D, P = _scaled(P)
    return _unscaled(_reduce(P)[1], D)


def ls_square(P: ConvexPolygon) -> Coord:
    """Lattice size for the unit-square target, without the certificate."""
    D, P = _scaled(P)
    return _unscaled(_reduce(P)[2], D)


def invariants(P: ConvexPolygon) -> InvariantsReport:
    """Lattice width, both lattice sizes, area, and witnessing maps."""
    return _report(P)


@lru_cache(maxsize=_MEMO)
def _report(P: ConvexPolygon) -> InvariantsReport:
    """invariants(P), memoized for the last _MEMO polygons: the brute-force
    search, check_bounds, extremal_family and canonical_form read their
    caps, basis and widths from it, so one query reduces P once."""
    D, S = _scaled(P)
    basis = gauss_reduce(S)
    (a, b), (c, d) = basis.u1, basis.u2
    # S's vertices in the reduced frame: every size is read off their extremes
    xs = [a * v.x + b * v.y for v in S.vertices]
    ys = [c * v.x + d * v.y for v in S.vertices]
    min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)

    square_side = _unscaled(max_y - min_y, D)
    cert_square = ContainmentCertificate(
        UnimodularMap(((a, b), (c, d)), (_unscaled(-min_x, D), _unscaled(-min_y, D))),
        SQUARE, square_side)

    dilates = flip_dilates(xs, ys)
    best = min(dilates)
    sx, sy = _FLIPS[dilates.index(best)]
    shift = (-min_x if sx > 0 else max_x, -min_y if sy > 0 else max_y)
    simplex_side = _unscaled(best, D)
    cert_simplex = ContainmentCertificate(
        UnimodularMap(((sx * a, sx * b), (sy * c, sy * d)),
                      (_unscaled(shift[0], D), _unscaled(shift[1], D))),
        SIMPLEX, simplex_side)

    return InvariantsReport(
        width=_unscaled(max_x - min_x, D),
        ls_square=square_side,
        ls_simplex=simplex_side,
        area=area(S) / (D * D),
        basis=basis,
        cert_square=cert_square,
        cert_simplex=cert_simplex,
    )


def check_touch(P: ConvexPolygon) -> tuple[Coord, Coord] | None:
    """(ls_square, width) of P when its axis widths are equal, else None.

    Let both equal h.  P's touching points on opposite sides of its
    bounding box differ by (h, s) and by (t, h) with |s|, |t| <= h, so a
    primitive u = (a, b) has width(P, u) >= |a*h + b*s| >= (|a| - |b|)*h
    and width(P, u) >= |a*t + b*h| >= (|b| - |a|)*h, at least h unless
    u = +-(1, 1) or +-(1, -1).  Two of these have determinant 0 or +-2,
    so no unimodular basis beats the axes, and ls_square(P) = h; the
    lattice width is the least of h and the two diagonal widths.
    """
    h = width(P, (1, 0))
    if h != width(P, (0, 1)):
        return None
    return h, min(h, width(P, (1, 1)), width(P, (1, -1)))
