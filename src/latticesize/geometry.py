"""Exact planar convex geometry over the rationals.

Coordinates are ints or Fractions (ints whenever the value is integral,
which keeps lattice-polygon arithmetic fast), every predicate is exact,
and polygons are stored in the canonical vertex order hull returns:
counterclockwise, no three collinear, starting at the lexicographically
smallest vertex (_cycle rotates a mapped cycle into it).  Structural
equality of polygons is therefore geometric equality.  Computations on
a rational polygon P run on its integer multiple D*P, D the least common
denominator of its coordinates (_scaled): lattice_points scans the
columns of D*P, each edge bounding the columns it spans, and size
measures D*P once per query (size._report), whose integers the oracle
and bounds modules read.  hull, too, runs its monotone chain on
the integer pairs D*p of its input and maps the result back to the
input's Points.  A polygon hashes its vertices once, on first use, and
keeps the value, so the memos keyed by polygons hash a Fraction
coordinate once per polygon, not once per lookup.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Union

from .errors import InvalidInputError

Coord = Union[int, Fraction]
IntVec = tuple[int, int]
Target = Literal["square", "simplex"]

SQUARE: Target = "square"
SIMPLEX: Target = "simplex"

# the coordinate grammar of the text format; [0-9] rather than \d keeps
# out non-ASCII digits, which int() and Fraction() would accept
_COORD = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _norm(value) -> Coord:
    """Coerce to an exact rational, kept as a plain int (never a bool)
    when integral."""
    if value.__class__ is int:
        return value
    f = value if value.__class__ is Fraction else Fraction(value)
    return f.numerator if f.denominator == 1 else f


class Point(namedtuple("Point", "x y")):
    """An immutable (x, y) pair of exact coordinates, normalised by _norm."""

    __slots__ = ()

    def __new__(cls, x, y):
        return tuple.__new__(cls, (_norm(x), _norm(y)))

    @classmethod
    def _make(cls, xy):
        # namedtuple's _make skips __new__; _replace builds through it
        return cls(*xy)

    @property
    def is_lattice(self) -> bool:
        return isinstance(self.x, int) and isinstance(self.y, int)


def _cross(o, a, b) -> Coord:
    """The cross product of a - o and b - o, for Points or integer pairs:
    positive when o, a, b turn counterclockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class ConvexPolygon:
    """A point, segment, or convex polygon in canonical vertex order.

    The constructor accepts a tuple of Points exactly when hull gives it
    back unchanged.  hull returns the canonical tuple of any finite point
    set and returns a canonical tuple unchanged, so a tuple is canonical
    exactly when it is its own hull.

    A polygon hashes its vertices once, on first use, and keeps the
    value in the slot _hash: the memos of size and oracle look P up
    several times per query, and hashing a Fraction coordinate is far
    dearer than hashing an int.  _hash is a slot, not a field, so
    equality, repr and dataclasses.fields see the vertices alone.
    """

    __slots__ = ("vertices", "_hash")
    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        vs = tuple(self.vertices)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "_hash", None)
        if not vs:
            raise InvalidInputError("polygon needs at least one vertex")
        if not all(isinstance(v, Point) for v in vs):
            raise InvalidInputError("vertices must be Points")
        canonical = hull(vs)
        if canonical.vertices != vs:
            raise InvalidInputError(
                f"vertices are not in canonical order; their hull is {canonical!r}")

    @classmethod
    def _trusted(cls, vertices: tuple[Point, ...]) -> "ConvexPolygon":
        # internal fast path for callers that construct canonical tuples
        self = object.__new__(cls)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_hash", None)
        return self

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # the value dataclass would give, so set orders stay as they were
            h = hash((self.vertices,))
            object.__setattr__(self, "_hash", h)
        return h

    # the cached hash is not pickled: the reading process hashes afresh,
    # as its hash of a number may differ (the width is the platform's)
    def __getstate__(self):
        return self.vertices

    def __setstate__(self, vertices) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_hash", None)

    @property
    def dim(self) -> int:
        n = len(self.vertices)
        return n - 1 if n <= 2 else 2

    @property
    def is_lattice(self) -> bool:
        return all(v.is_lattice for v in self.vertices)

    def __repr__(self) -> str:
        body = ", ".join(f"({v.x}, {v.y})" for v in self.vertices)
        return f"ConvexPolygon[{body}]"


def _as_point(p) -> Point:
    if isinstance(p, Point):
        return p
    x, y = p[0], p[1]
    # a pair of ints needs no coercion (_point), the common case of hull
    return _point(x, y) if x.__class__ is int and y.__class__ is int else Point(x, y)


def hull(points: Iterable) -> ConvexPolygon:
    """Convex hull in canonical form; accepts Points or coordinate pairs.

    The hull is found on integers.  With D the least common denominator
    of the points' coordinates, the integer pairs D*p are deduplicated,
    sorted and chained, and the hull's pairs are mapped back to their
    Points.  Scaling by D > 0 keeps the lexicographic order and the sign
    of every turn, so the chain picks the same points it would pick
    among the Points themselves.  A lattice input (D = 1) is chained as
    its Points.
    """
    pts = [_as_point(p) for p in points]
    if not pts:
        raise InvalidInputError("hull of an empty point set")
    D = _lcd(pts)
    if D == 1:
        return ConvexPolygon._trusted(_chain(sorted(set(pts))))
    points_of = dict(zip(_integral(pts, D), pts))
    return ConvexPolygon._trusted(tuple(points_of[p] for p in _chain(sorted(points_of))))


def _chain(pts: list) -> tuple:
    """Andrew's monotone chain: the counterclockwise hull of distinct
    points sorted lexicographically, Points or integer pairs, from the
    first point, with no three vertices collinear."""
    if len(pts) == 1:
        return (pts[0],)
    lo: list = []
    for p in pts:
        while len(lo) >= 2 and _cross(lo[-2], lo[-1], p) <= 0:
            lo.pop()
        lo.append(p)
    hi: list = []
    for p in reversed(pts):
        while len(hi) >= 2 and _cross(hi[-2], hi[-1], p) <= 0:
            hi.pop()
        hi.append(p)
    return tuple(lo[:-1] + hi[:-1])


def _cycle(image: list, flipped: bool) -> tuple:
    """A polygon's vertex cycle mapped to image, as a tuple in canonical
    vertex order: reversed when the map has determinant -1 (flipped),
    then rotated to start at its lexicographically smallest vertex."""
    if flipped:
        image.reverse()
    k = image.index(min(image))
    return tuple(image[k:] + image[:k])


def _lcd(points) -> int:
    """The least common denominator of the Points' coordinates, 1 when
    they are all integers."""
    D = 1
    for v in points:
        if v.x.__class__ is not int:
            D = math.lcm(D, v.x.denominator)
        if v.y.__class__ is not int:
            D = math.lcm(D, v.y.denominator)
    return D


def _integral(points, D: int) -> list[IntVec]:
    """The integer pairs D*p of Points p whose denominators divide D."""
    return [(v.x.numerator * (D // v.x.denominator), v.y.numerator * (D // v.y.denominator))
            for v in points]


def _scaled(P: ConvexPolygon) -> tuple[int, ConvexPolygon]:
    """(D, D*P) for the least common denominator D of P's coordinates.

    D*P is a lattice polygon in canonical vertex order, since scaling by
    a positive number keeps both the lexicographic order and the
    orientation.  A lattice polygon comes back as (1, P) itself.
    """
    D = _lcd(P.vertices)
    if D == 1:
        return 1, P
    return D, ConvexPolygon._trusted(tuple(_point(x, y) for x, y in _integral(P.vertices, D)))


def _unscaled(value: int, D: int) -> Coord:
    """value / D as a Coord: an int whenever it is integral."""
    return value if D == 1 else _norm(Fraction(value, D))


def area(P: ConvexPolygon) -> Fraction:
    """Euclidean area by the shoelace sum; zero for segments and points."""
    vs = P.vertices
    s = 0
    for i, v in enumerate(vs):
        w = vs[(i + 1) % len(vs)]
        s += v.x * w.y - w.x * v.y
    return Fraction(s, 2)


def width(P: ConvexPolygon, u: IntVec) -> Coord:
    """Spread of the linear functional u over P (directional width)."""
    a, b = u
    if type(a) is not int or type(b) is not int:
        raise InvalidInputError("direction must have integer coordinates")
    if a == 0 and b == 0:
        raise InvalidInputError("direction must be nonzero")
    dots = [a * v.x + b * v.y for v in P.vertices]
    return max(dots) - min(dots)


@dataclass(frozen=True, slots=True)
class UnimodularMap:
    """Affine map x -> M x + t with M integer of determinant +-1.

    The translation is rational in general; lattice equivalence uses
    integer translations, and every map this package produces for a
    lattice polygon has one, kept as a pair of ints.
    """

    matrix: tuple[IntVec, IntVec]
    translation: tuple[Coord, Coord] = (0, 0)

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.matrix
        if not all(type(e) is int for e in (a, b, c, d)):
            raise InvalidInputError("matrix entries must be integers")
        if a * d - b * c not in (1, -1):
            raise InvalidInputError("matrix must have determinant +1 or -1")
        object.__setattr__(self, "matrix", ((a, b), (c, d)))
        tx, ty = self.translation
        object.__setattr__(self, "translation", (_norm(tx), _norm(ty)))

    def apply_point(self, p: Point) -> Point:
        (a, b), (c, d) = self.matrix
        tx, ty = self.translation
        return Point(a * p.x + b * p.y + tx, c * p.x + d * p.y + ty)


def apply_map(phi: UnimodularMap, P: ConvexPolygon) -> ConvexPolygon:
    """Image polygon, built without a hull.

    An affine bijection keeps three points collinear exactly when they
    were, so the image of P's strictly convex vertex cycle is again one.
    It keeps the counterclockwise orientation when the matrix has
    determinant +1 and reverses it when it has -1, so _cycle puts the
    image in canonical vertex order; a segment's two ends come out
    sorted either way.
    """
    (a, b), (c, d) = phi.matrix
    return ConvexPolygon._trusted(
        _cycle([phi.apply_point(v) for v in P.vertices], a * d - b * c < 0))


def lattice_points(P: ConvexPolygon) -> list[Point]:
    """All integer points inside or on P, sorted lexicographically.

    P is scanned as its integer multiple S = D*P (see _scaled): the
    integer points of P are the points of S with both coordinates
    divisible by D, divided by D.  Only the columns x = D*X between S's
    least and largest x are scanned, and a column's points are the
    multiples of D between its lower and upper bound, which start at
    S's least and largest y.  Each edge a -> b of S's counterclockwise
    cycle then bounds the columns it spans, by one integer division
    each: an edge heading right (dx > 0) lies on the lower chain and
    sets their lower bound to its height rounded up, one heading left
    (dx < 0) lies on the upper chain and sets their upper bound to its
    height rounded down, and a vertical edge sets nothing.

    No case is special.  A point or a vertical segment has no edge with
    dx != 0, so its box bounds are the answer.  A segment that is not
    vertical has two edges, which give the same line from both sides.
    Otherwise each chain is x-monotone over S's whole x range, so every
    column gets one bound from an edge of the lower chain that spans it
    and one from an edge of the upper chain; two edges that meet at a
    vertex's column both give the vertex's height there.  Columns ascend
    and each column ascends, so the output is sorted as it is made.
    """
    D, S = _scaled(P)
    vs = S.vertices
    x0 = -(-vs[0].x // D)
    n = max(v.x for v in vs) // D - x0 + 1
    lo = [-(-min(v.y for v in vs) // D)] * n
    hi = [max(v.y for v in vs) // D] * n
    for a, b in zip(vs, vs[1:] + vs[:1]):
        dx, dy = b.x - a.x, b.y - a.y
        # the edge's height at x = X*D, over D, is (a.y*dx + dy*(X*D - a.x)) / (dx*D)
        if dx > 0:
            for X in range(-(-a.x // D), b.x // D + 1):
                lo[X - x0] = -((a.y * dx + dy * (X * D - a.x)) // (-dx * D))
        elif dx < 0:
            for X in range(-(-b.x // D), a.x // D + 1):
                hi[X - x0] = (a.y * dx + dy * (X * D - a.x)) // (dx * D)
    return [_point(X, y) for X, l, h in zip(range(x0, x0 + n), lo, hi) for y in range(l, h + 1)]


def _point(x: int, y: int) -> Point:
    # internal fast path for integer coordinates, which need no coercion
    return tuple.__new__(Point, (x, y))


def drop_vertex(P: ConvexPolygon, v: Point) -> ConvexPolygon:
    """Hull of P's lattice points with the vertex v removed."""
    if not P.is_lattice:
        raise InvalidInputError("drop_vertex needs a lattice polygon")
    v = _as_point(v)
    if v not in P.vertices:
        raise InvalidInputError(f"({v.x}, {v.y}) is not a vertex")
    rest = [p for p in lattice_points(P) if p != v]
    if not rest:
        raise InvalidInputError("dropping the only lattice point leaves nothing")
    return hull(rest)


def contained_in_dilate(P: ConvexPolygon, dilate, target: Target) -> bool:
    """Whether P fits inside dilate times the unit square or the standard
    triangle with legs on the axes."""
    d = _norm(dilate)
    if d < 0:
        raise InvalidInputError("dilate must be nonnegative")
    if target == SQUARE:
        return all(0 <= v.x <= d and 0 <= v.y <= d for v in P.vertices)
    if target == SIMPLEX:
        return all(v.x >= 0 and v.y >= 0 and v.x + v.y <= d for v in P.vertices)
    raise InvalidInputError(f"unknown target {target!r}")


def parse_polygon_text(text: str) -> ConvexPolygon:
    """Read one 'x y' pair per line and hull the points.

    Blank lines are skipped and '#' starts a comment.  Coordinates are
    integers or fractions like 7/3 or -2/4: [+-]?[0-9]+(/[0-9]+)?.
    """
    pts: list[Point] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInputError(f"line {lineno}: expected 'x y', got {line!r}")
        for part in parts:
            if not _COORD.fullmatch(part):
                raise InvalidInputError(f"line {lineno}: bad coordinate {part!r}")
        try:
            pts.append(Point(Fraction(parts[0]), Fraction(parts[1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"line {lineno}: bad coordinate: {exc}") from exc
    if not pts:
        raise InvalidInputError("no points in input")
    return hull(pts)


def polygon_to_text(P: ConvexPolygon) -> str:
    """Canonical vertices, one 'x y' line each."""
    return "".join(f"{v.x} {v.y}\n" for v in P.vertices)
