"""Sharp lower bounds on area in terms of lattice width and lattice size.

Four inequalities hold for full-dimensional polygons P with width w,
square size h, triangle size l, and area A:

    8A >= 3wh   and   4A >= wl          (any rational polygon)
    2A >= l     and   2A >= h           (lattice polygons)

Each is tight, and the polygons attaining equality are classified by the
families below.  check_bounds reports the slack of every applicable bound
together with the equality family, if any.

2A >= h reduces to the minimal classes of square size h (see minimal).
Let P be full-dimensional with square size h, and drop vertices
(drop_vertex) while the square size stays h.  Each drop lies in the
polygon before it, so this ends at a minimal M inside P of square size h.

- If M is the axis segment of lattice length h, P holds that segment S
  and a lattice point q off its line, so conv(S, q), of twice the area
  h times q's lattice distance from the line, lies in P: 2A >= h.  With
  equality P is that triangle, q at distance 1, which is the thin
  triangle up to equivalence.
- Otherwise M is a full-dimensional class, and area is monotone under
  inclusion, so 2A(P) >= 2A(M).  If the two are equal, P = M, since a
  convex M inside P with the same area is P.

At h = 1 the segment is the only class.  The full-dimensional classes
are the triangles conv{(0,0),(a,h),(h,b)} and the quadrilaterals
conv{(a,0),(0,b),(h,h-c),(h-d,h)}, parameters in 1..h-1, and [0, h]^2
less their corner triangles gives their areas:

    triangle:       2A = h^2 - ab
    quadrilateral:  2A = h^2 - (h-p)(h-q),  p = a + d, q = b + c

A triangle has a, b <= h - 1, so 2A >= h^2 - (h-1)^2 = 2h - 1, with
equality exactly at a = b = h - 1.  A quadrilateral has p and q in
[2, 2h - 2], so 2A >= h^2 - (h-2)^2 = 4h - 4 > 2h - 1 for h >= 2.  So
every full-dimensional class has 2A >= 2h - 1 > h, and 2A >= h holds
with equality only for the thin triangle.

The same reduction sharpens the bound for a P of square size h >= 2
that holds no lattice segment of lattice length h: M is then not the
segment, so 2A >= 2A(M) >= 2h - 1, with equality exactly when P = M is
T_h = conv{(0,0),(h-1,h),(h,h-1)} up to equivalence.  T_h qualifies: it
holds h + 2 lattice points (Pick), so a segment of lattice length h in
it would be an edge, and its edges are primitive.  T_2 is the
exceptional triangle.

Both arguments need the classification to be complete, and that is
verified for h <= 14: the exhaustive sweep (verify_classification) has
been run up to h = 14 and finds exactly the family classes, and
test_square_bound_over_the_minimal_classes and
test_long_segment_free_bound check the areas.  Beyond h = 14 both rest
on the paper's classification.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DegenerateInputError, InvalidInputError
from .geometry import ConvexPolygon, Coord, _unscaled, area, hull
from .oracle import canonical_form
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
    """conv{(0,0),(l,0),(0,1)} for an integer l >= 1."""
    if type(l) is not int or l < 1:
        raise InvalidInputError(f"thin triangle needs an integer l >= 1, got {l!r}")
    return hull([(0, 0), (l, 0), (0, 1)])


def unit_square() -> ConvexPolygon:
    return hull([(0, 0), (1, 0), (1, 1), (0, 1)])


def exceptional_triangle() -> ConvexPolygon:
    return hull([(0, 0), (1, 2), (2, 1)])


def width_extremal_triangle(w) -> ConvexPolygon:
    """conv{(0,0),(w,w/2),(w/2,w)} for a positive int or Fraction w; a
    lattice polygon when w is even."""
    if type(w) not in (int, Fraction) or w <= 0:
        raise InvalidInputError(f"width must be a positive int or Fraction, got {w!r}")
    half = Fraction(w) / 2
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


def _has_form(P: ConvexPolygon, form: ConvexPolygon) -> bool:
    """Whether P is unimodularly equivalent to a polygon whose canonical
    form is form.  Equivalence keeps the vertex count and the area, P's
    read off its report, so those reject first, and a P that cannot match
    never builds its own form; otherwise the forms coincide exactly when
    the two are equivalent (canonical_form)."""
    return (len(P.vertices) == len(form.vertices) and _report(P)[0].area == area(form)
            and canonical_form(P) == form)


def extremal_family(P: ConvexPolygon) -> EqualityFamily | None:
    """Match a lattice polygon against the four equality families.

    Equivalence fixes the family parameter (the triangle size for the
    thin family, the lattice width for the width-extremal one), and each
    member's canonical form is written down below, so each test compares
    P's form with a written one and no member's form is built.  The
    canonical form of P is the least vertex tuple, in canonical vertex
    order, among the unimodular images of P translated to both coordinate
    minima zero that lie in [0, h]^2, h the square size of P.  A written
    form F of a member M is an image of M in that square, so it is M's
    form once no such image is smaller than F.  Tuples compare vertex by
    vertex.  An image starts at its least vertex (0, c), and one with
    c > 0 is larger than any F below, which all start at (0, 0).  Only
    the last vertex counterclockwise can lie above (0, c) on the y-axis,
    so every other vertex has x > 0.

    - Thin triangle: the form of thin_triangle(l) is conv{(0,0),(1,0),
      (0,l)}, the member's image under the swap of the axes.  A lattice
      image starts at (0, c) >= (0, 0), and its next vertex has x >= 1,
      so it is >= (1, 0).  Once the two are (0, 0) and (1, 0), area l/2
      puts the third vertex at y = l, so it is >= (0, l).  No image, in
      the square or not, is smaller.
    - Unit square: unit_square() is its own form.  A lattice image
      starts at a vertex >= (0, 0), then one >= (1, 0).  Its third
      vertex is not the last, so it has x >= 1, and it is >= (1, 1).
      Once the three are (0,0), (1,0), (1,1), area 1 puts the fourth on
      y = x + 1 with x >= 0, so it is >= (0, 1).
    - Exceptional triangle: exceptional_triangle(), of square size 2, is
      its own form, by a finite check in [0, 2]^2.  Take an image that
      starts at (0, 0).  With its second vertex (1, b), area 3/2 puts
      the third at height 3 + b*x >= 3, x its abscissa; with (2, 0), at
      height 3/2.  So the second vertex is (2, 1) or (2, 2).  After
      (2, 1), area 3/2 asks 2y - x = 3 of the third vertex (x, y), whose
      only solution in the square is (1, 2).  The square matters:
      conv{(0,0),(1,0),(2,3)} is a smaller image, outside it.
    - Width-extremal triangle: width_extremal_triangle(w) is w/2 times
      the exceptional triangle.  Scaling by a positive rational commutes
      with unimodular maps, with translating to minima zero and with
      the lexicographic order, and it scales the square size, so the
      form of cP is c times the form of P.  So the member is its own
      form for every w > 0, rational w included, which check_bounds
      uses on rational polygons.

    The tests pin the four forms and the module's audit compares these
    labels with lattice_equivalent against the members.
    """
    if not P.is_lattice:
        raise InvalidInputError("family membership is tested for lattice polygons")
    report = _report(P)[0]
    l = report.ls_simplex
    if l >= 1 and _has_form(P, hull([(0, 0), (1, 0), (0, l)])):
        return EqualityFamily.THIN_TRIANGLE
    if l == 2 and _has_form(P, unit_square()):
        return EqualityFamily.UNIT_SQUARE
    if l == 3 and _has_form(P, exceptional_triangle()):
        return EqualityFamily.EXCEPTIONAL_TRIANGLE
    w = report.width
    if w >= 2 and w % 2 == 0 and _has_form(P, width_extremal_triangle(w)):
        return EqualityFamily.WIDTH_EXTREMAL_TRIANGLE
    return None


def check_bounds(P: ConvexPolygon) -> BoundsReport:
    """Evaluate every applicable bound on a full-dimensional polygon.

    Each slack is computed on integers: P's report (_report) holds the
    width w, the square size h, the triangle size l and twice the area t
    of D*P, D the least common denominator of P's coordinates, and every
    bound is homogeneous, so a slack of P is that of D*P over D^2.
    """
    if P.dim != 2:
        raise DegenerateInputError("bounds apply to full-dimensional polygons")
    rep, D, _, w, h, l, t = _report(P)
    slack_wh = _unscaled(4 * t - 3 * w * h, 8 * D * D)
    slack_wl = _unscaled(2 * t - w * l, 4 * D * D)
    if D == 1:  # a lattice polygon
        slack_simplex = _unscaled(t - l, 2)
        slack_square = _unscaled(t - h, 2)
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
            # unimodular map and a rational translation; the member is its
            # own canonical form (extremal_family)
            if _has_form(P, width_extremal_triangle(rep.width)):
                family = EqualityFamily.WIDTH_EXTREMAL_TRIANGLE
    return BoundsReport(slack_wh, slack_wl, slack_simplex, slack_square, family)
