"""Exact planar convex geometry over the rationals.

Coordinates are ints or Fractions (ints whenever the value is integral,
which keeps lattice-polygon arithmetic fast), every predicate is exact,
and polygons are stored in the canonical vertex order hull returns:
counterclockwise, no three collinear, starting at the lexicographically
smallest vertex (_cycle rotates a mapped cycle into it).  Structural
equality of polygons is therefore geometric equality.  Computations on
a rational polygon P run on its integer multiple D*P, D the least common
denominator of its coordinates (_scaled): lattice_points scans D*P in
integers, and the size and oracle modules measure D*P.
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
    f = Fraction(value)
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


def _cross(o: Point, a: Point, b: Point) -> Coord:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


@dataclass(frozen=True, slots=True)
class ConvexPolygon:
    """A point, segment, or convex polygon in canonical vertex order.

    The constructor accepts a tuple of Points exactly when hull gives it
    back unchanged.  hull returns the canonical tuple of any finite point
    set and returns a canonical tuple unchanged, so a tuple is canonical
    exactly when it is its own hull.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        vs = tuple(self.vertices)
        object.__setattr__(self, "vertices", vs)
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
        return self

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
    return p if isinstance(p, Point) else Point(p[0], p[1])


def hull(points: Iterable) -> ConvexPolygon:
    """Convex hull in canonical form; accepts Points or coordinate pairs."""
    pts = sorted({_as_point(p) for p in points})
    if not pts:
        raise InvalidInputError("hull of an empty point set")
    if len(pts) == 1:
        return ConvexPolygon._trusted((pts[0],))
    lo: list[Point] = []
    for p in pts:
        while len(lo) >= 2 and _cross(lo[-2], lo[-1], p) <= 0:
            lo.pop()
        lo.append(p)
    hi: list[Point] = []
    for p in reversed(pts):
        while len(hi) >= 2 and _cross(hi[-2], hi[-1], p) <= 0:
            hi.pop()
        hi.append(p)
    return ConvexPolygon._trusted(tuple(lo[:-1] + hi[:-1]))


def _cycle(image: list, flipped: bool) -> tuple:
    """A polygon's vertex cycle mapped to image, as a tuple in canonical
    vertex order: reversed when the map has determinant -1 (flipped),
    then rotated to start at its lexicographically smallest vertex."""
    if flipped:
        image.reverse()
    k = image.index(min(image))
    return tuple(image[k:] + image[:k])


def _scaled(P: ConvexPolygon) -> tuple[int, ConvexPolygon]:
    """(D, D*P) for the least common denominator D of P's coordinates.

    D*P is a lattice polygon in canonical vertex order, since scaling by
    a positive number keeps both the lexicographic order and the
    orientation.  A lattice polygon comes back as (1, P) itself.
    """
    D = 1
    for v in P.vertices:
        if v.x.__class__ is not int:
            D = math.lcm(D, v.x.denominator)
        if v.y.__class__ is not int:
            D = math.lcm(D, v.y.denominator)
    if D == 1:
        return 1, P
    return D, ConvexPolygon._trusted(tuple(
        _point(v.x.numerator * (D // v.x.denominator),
               v.y.numerator * (D // v.y.denominator)) for v in P.vertices))


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
    if not (isinstance(a, int) and isinstance(b, int)):
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
        if not all(isinstance(e, int) for e in (a, b, c, d)):
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
    """Image polygon; unimodular maps preserve strict convex position."""
    return hull(phi.apply_point(v) for v in P.vertices)


def lattice_points(P: ConvexPolygon) -> list[Point]:
    """All integer points inside or on P, sorted lexicographically.

    P is scanned as its integer multiple S = D*P (see _scaled): the
    integer points of P are the points of S with both coordinates
    divisible by D, divided by D.  A point or a vertical segment of S
    lies in one column.  Otherwise the lower chain runs from S's first
    vertex along the edges heading right and the upper chain from the
    top-left vertex back along the edges heading left (a segment is both
    chains); both span every column from the smallest x to the largest.
    Only the columns x = D*X are scanned, and a column's points are the
    multiples of D between the lower chain and the upper one: the chain
    heights are rounded up and down to multiples of D by one integer
    division each.  Columns ascend and each column ascends, so the output
    is sorted as it is made.
    """
    D, S = _scaled(P)
    vs = S.vertices
    n = len(vs)
    if n <= 2 and vs[-1].x == vs[0].x:
        x = vs[0].x
        if x % D:
            return []
        return [_point(x // D, y) for y in range(-(-vs[0].y // D), vs[-1].y // D + 1)]
    lower = [vs[0]]
    for v in vs[1:]:
        if v.x <= lower[-1].x:
            break
        lower.append(v)
    # the top-left vertex is vs[-1] when a vertical edge runs down to vs[0]
    top = n - 1 if vs[-1].x == vs[0].x else n
    upper = [vs[top % n]]
    for v in reversed(vs[:top]):
        if v.x <= upper[-1].x:
            break
        upper.append(v)
    out: list[Point] = []
    li = ui = 0
    for X in range(-(-vs[0].x // D), lower[-1].x // D + 1):
        x = X * D
        while lower[li + 1].x < x:
            li += 1
        while upper[ui + 1].x < x:
            ui += 1
        a, b = lower[li], lower[li + 1]
        c, d = upper[ui], upper[ui + 1]
        # the two chains' heights at x, over D, rounded up and down
        lo = -(((b.y - a.y) * (a.x - x) - a.y * (b.x - a.x)) // ((b.x - a.x) * D))
        hi = (c.y * (d.x - c.x) + (d.y - c.y) * (x - c.x)) // ((d.x - c.x) * D)
        out.extend(_point(X, y) for y in range(lo, hi + 1))
    return out


def _point(x: int, y: int) -> Point:
    # internal fast path for integer coordinates, which need no coercion
    return tuple.__new__(Point, (x, y))


def drop_vertex(P: ConvexPolygon, v: Point) -> ConvexPolygon:
    """Hull of P's lattice points with the vertex v removed.

    P is the union of the triangle T on v and its two neighbours and the
    hull of its other vertices, so every lattice point of P other than v
    lies in T or in that hull: the other vertices together with T's
    lattice points span the same hull, and only T is scanned.
    """
    if not P.is_lattice:
        raise InvalidInputError("drop_vertex needs a lattice polygon")
    v = _as_point(v)
    vs = P.vertices
    if v not in vs:
        raise InvalidInputError(f"({v.x}, {v.y}) is not a vertex")
    if len(vs) <= 3:
        near = lattice_points(P)   # T is P itself, or P is a segment
    else:
        i = vs.index(v)
        tri = _cycle([vs[i - 1], v, vs[(i + 1) % len(vs)]], False)
        near = lattice_points(ConvexPolygon._trusted(tri)) + list(vs)
    rest = [p for p in near if p != v]
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
