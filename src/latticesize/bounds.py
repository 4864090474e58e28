"""Sharp lower bounds on area in terms of lattice width and lattice size.

Four inequalities hold for full-dimensional polygons P with width w,
square size h, triangle size l, and area A:

    8A >= 3wh   and   4A >= wl          (any rational polygon)
    2A >= l     and   2A >= h           (lattice polygons)

Each is tight, and the polygons attaining equality are classified by the
families below.  check_bounds reports the slack of every applicable bound
together with the equality family, if any.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DegenerateInputError, InvalidInputError
from .geometry import ConvexPolygon, Coord, _norm, hull
from .oracle import lattice_equivalent
from .size import _report


class EqualityFamily(Enum):
    # conv{(0,0),(l,0),(0,1)}: equality in 2A >= l and, alone, in 2A >= h
    THIN_TRIANGLE = "thin-triangle"
    # the unit square, triangle size 2
    UNIT_SQUARE = "unit-square"
    # conv{(0,0),(1,2),(2,1)}: the sporadic equality case of 2A >= l
    EXCEPTIONAL_TRIANGLE = "exceptional-triangle"
    # conv{(0,0),(w,w/2),(w/2,w)}: equality in both width bounds
    WIDTH_EXTREMAL_TRIANGLE = "width-extremal-triangle"


def thin_triangle(l: int) -> ConvexPolygon:
    """conv{(0,0),(l,0),(0,1)} for l >= 1."""
    if l < 1:
        raise InvalidInputError("thin triangle needs l >= 1")
    return hull([(0, 0), (l, 0), (0, 1)])


def unit_square() -> ConvexPolygon:
    return hull([(0, 0), (1, 0), (1, 1), (0, 1)])


def exceptional_triangle() -> ConvexPolygon:
    return hull([(0, 0), (1, 2), (2, 1)])


def width_extremal_triangle(w) -> ConvexPolygon:
    """conv{(0,0),(w,w/2),(w/2,w)}; a lattice polygon when w is even."""
    half = Fraction(w) / 2
    if half <= 0:
        raise InvalidInputError("width must be positive")
    return hull([(0, 0), (2 * half, half), (half, 2 * half)])


@dataclass(frozen=True, slots=True)
class BoundsReport:
    """Slack of each bound (area minus the bound's right-hand side).

    The lattice-only slacks are None for polygons with a fractional
    vertex.  equality_family is set when the polygon is unimodularly
    equivalent to a member of one of the sharp families.
    """

    slack_wh: Coord
    slack_wl: Coord
    slack_simplex: Coord | None
    slack_square: Coord | None
    equality_family: EqualityFamily | None


def extremal_family(P: ConvexPolygon) -> EqualityFamily | None:
    """Match a lattice polygon against the four equality families.

    Equivalence fixes the family parameter (the triangle size for the
    thin family, the lattice width for the width-extremal one), so each
    test is a single canonical-form comparison.
    """
    if not P.is_lattice:
        raise InvalidInputError("family membership is tested for lattice polygons")
    report = _report(P)
    l = report.ls_simplex
    if l >= 1 and lattice_equivalent(P, thin_triangle(l)):
        return EqualityFamily.THIN_TRIANGLE
    if l == 2 and lattice_equivalent(P, unit_square()):
        return EqualityFamily.UNIT_SQUARE
    if l == 3 and lattice_equivalent(P, exceptional_triangle()):
        return EqualityFamily.EXCEPTIONAL_TRIANGLE
    w = report.width
    if w >= 2 and w % 2 == 0 and lattice_equivalent(P, width_extremal_triangle(w)):
        return EqualityFamily.WIDTH_EXTREMAL_TRIANGLE
    return None


def check_bounds(P: ConvexPolygon) -> BoundsReport:
    """Evaluate every applicable bound on a full-dimensional polygon."""
    if P.dim != 2:
        raise DegenerateInputError("bounds apply to full-dimensional polygons")
    rep = _report(P)
    a = rep.area
    slack_wh = _norm(a - Fraction(3, 8) * rep.width * rep.ls_square)
    slack_wl = _norm(a - Fraction(1, 4) * rep.width * rep.ls_simplex)
    if P.is_lattice:
        slack_simplex = _norm(a - Fraction(rep.ls_simplex, 2))
        slack_square = _norm(a - Fraction(rep.ls_square, 2))
        # a family match forces one of the slacks to zero, so the search
        # is only worth running when a bound is tight
        family = None
        if 0 in (slack_wh, slack_wl, slack_simplex, slack_square):
            family = extremal_family(P)
    else:
        slack_simplex = None
        slack_square = None
        family = None
        if slack_wh == 0 or slack_wl == 0:
            # the width bounds are tight only on this family, up to a
            # unimodular map and a rational translation
            if lattice_equivalent(P, width_extremal_triangle(rep.width)):
                family = EqualityFamily.WIDTH_EXTREMAL_TRIANGLE
    return BoundsReport(slack_wh, slack_wl, slack_simplex, slack_square, family)
