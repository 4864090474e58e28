"""Minimal polygons of a fixed square size: generation and verification.

A lattice polygon is minimal when every drop of a vertex strictly
shrinks its square size.  Up to unimodular equivalence the minimal
objects of square size h are the axis segment of lattice length h, the
triangles conv{(0,0),(a,h),(h,b)} with a + b >= h, and the
quadrilaterals conv{(a,0),(0,b),(h,h-c),(h-d,h)} with
min(a,b) + min(c,d) > h; quadrilaterals satisfying instead
max(a,c) + max(b,d) < h are mirror images of members of that family,
so the generator omits them.  verify_classification replays the whole
claim against an exhaustive grid sweep; its dihedral filter and its
square-size test are enumeration's.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Literal

from .enumeration import (
    _SYMMETRIES, _Grid, _has_smaller_image, _image, _square_size_is, map_polygons)
from .errors import InvalidInputError, ResourceLimitError
from .geometry import ConvexPolygon, Point, hull, lattice_points
from .oracle import canonical_form

Kind = Literal["segment", "triangle", "quad"]

DEFAULT_CLASSIFY_LIMIT = 5

_ARITY = {"segment": 0, "triangle": 2, "quad": 4}  # parameters per family kind


def _check_params(h: int, params: tuple[int, ...]) -> None:
    if type(h) is not int or h < 1:
        raise InvalidInputError("square size must be a positive integer")
    for p in params:
        if type(p) is not int or not 1 <= p <= h - 1:
            raise InvalidInputError(
                f"family parameters must be integers in 1..{h - 1}")


@dataclass(frozen=True, slots=True)
class MinimalFamily:
    """Symbolic descriptor of one classified minimal polygon.

    Parameters are (a, b) for a triangle and (a, b, c, d) for a
    quadrilateral; construction enforces the minimality condition, so
    every instance realizes an actually minimal polygon.
    """

    kind: Kind
    h: int
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        if not isinstance(self.kind, str) or self.kind not in _ARITY:
            raise InvalidInputError(f"unknown family kind {self.kind!r}")
        expected = _ARITY[self.kind]
        if len(self.params) != expected:
            raise InvalidInputError(
                f"{self.kind} family takes {expected} parameters")
        _check_params(self.h, self.params)
        if self.kind == "triangle" and sum(self.params) < self.h:
            raise InvalidInputError("triangle family needs a + b >= h")
        if self.kind == "quad":
            a, b, c, d = self.params
            if not min(a, b) + min(c, d) > self.h:
                raise InvalidInputError(
                    "quad family needs min(a,b) + min(c,d) > h")


def realize(family: MinimalFamily) -> ConvexPolygon:
    """The concrete polygon a family descriptor stands for."""
    h = family.h
    if family.kind == "segment":
        return hull([(0, 0), (h, 0)])
    if family.kind == "triangle":
        a, b = family.params
        return hull([(0, 0), (a, h), (h, b)])
    a, b, c, d = family.params
    return hull([(a, 0), (0, b), (h, h - c), (h - d, h)])


def triangle_minimal(h: int, a: int, b: int) -> bool:
    """Whether conv{(0,0),(a,h),(h,b)} is minimal for square size h."""
    _check_params(h, (a, b))
    return a + b >= h


def quad_minimal(h: int, a: int, b: int, c: int, d: int) -> bool:
    """Whether conv{(a,0),(0,b),(h,h-c),(h-d,h)} is minimal.

    The two clauses exclude each other and are swapped by the mirror
    (x, y) -> (h - x, y); see quad_reflect_params.
    """
    _check_params(h, (a, b, c, d))
    return min(a, b) + min(c, d) > h or max(a, c) + max(b, d) < h


def quad_reflect_params(h: int, a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """Parameters of the quadrilateral's image under (x, y) -> (h - x, y).

    The mirror swaps the two minimality clauses, which is why
    generation may restrict itself to the first clause.
    """
    _check_params(h, (a, b, c, d))
    return (h - a, h - c, h - b, h - d)


def minimal_families(h: int) -> Iterator[MinimalFamily]:
    """All family descriptors for square size h, first-clause quads only.

    Distinct descriptors may still realize equivalent polygons (the
    triangle parameter pair is unordered up to the diagonal mirror), so
    class counting must deduplicate downstream.
    """
    _check_params(h, ())
    yield MinimalFamily("segment", h)
    for a in range(1, h):
        for b in range(max(1, h - a), h):
            yield MinimalFamily("triangle", h, (a, b))
    for a, b, c, d in itertools.product(range(1, h), repeat=4):
        if min(a, b) + min(c, d) > h:
            yield MinimalFamily("quad", h, (a, b, c, d))


def _class_key(P: ConvexPolygon):
    return (len(P.vertices), P.vertices)


def _box_orbit(h: int, vs: tuple) -> tuple:
    """The least canonical vertex tuple among vs and its images under the
    7 other symmetries of the box [0, h]^2 (see enumeration._image)."""
    return min(vs, *(_image(vs, h, h, symmetry) for symmetry in _SYMMETRIES))


def generate_minimal(h: int) -> list[ConvexPolygon]:
    """Canonical representatives of the minimal classes of square size h,
    sorted by vertex count and then vertex list.

    Only one family member per orbit of the box [0, h]^2's 8 symmetries
    is canonicalised: a symmetry of the box is a unimodular map, so the
    members of one orbit share one class, and members of distinct orbits
    that are still equivalent meet in the set of canonical forms.  At
    h=4 that is 8 canonical forms for 14 members, at h=8 102 for 330.
    """
    members = {}
    for f in minimal_families(h):
        P = realize(f)
        members.setdefault(_box_orbit(h, P.vertices), P)
    classes = {canonical_form(P) for P in members.values()}
    return sorted(classes, key=_class_key)


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    """Outcome of checking the generated classes against a full sweep."""

    h: int
    family_classes: tuple[ConvexPolygon, ...]
    search_classes: tuple[ConvexPolygon, ...]
    only_in_families: tuple[ConvexPolygon, ...]
    only_in_search: tuple[ConvexPolygon, ...]

    @property
    def matches(self) -> bool:
        return not self.only_in_families and not self.only_in_search


def _sweep_one(h: int, vs: tuple) -> ConvexPolygon | None:
    """Canonical form of the polygon with vertex tuple vs, a tuple of the
    sweep's walk, which has square size h and both coordinate minima 0,
    if it is minimal and can be its own canonical form, else None;
    verify_classification argues the decisions, which all read integers,
    and the last of them the polygon's lattice points."""
    if (_has_smaller_image(vs)
            or any(_square_size_is(h, vs[:i] + vs[i + 1:]) for i in range(len(vs)))):
        return None
    P = ConvexPolygon._trusted(tuple(Point(x, y) for x, y in vs))
    points = lattice_points(P)
    if any(_square_size_is(h, [p for p in points if p != v]) for v in vs):
        return None
    return canonical_form(P)


def _sweep_start(grid: _Grid, start: tuple) -> set[ConvexPolygon]:
    """The classes _sweep_one finds among the chains of one start of the
    sweep's walk grid."""
    return {_sweep_one(grid.n, vs) for vs in grid.chains(start)} - {None}


def verify_classification(h: int, limit: int = DEFAULT_CLASSIFY_LIMIT,
                          jobs: int = 1) -> ClassificationReport:
    """Compare the generated classes with an exhaustive minimality sweep.

    Every equivalence class of square size h has its canonical form C
    inside the corner square of side h, so sweeping the full grid
    {0..h}^2 (degenerate members included) meets each class at least
    once.  The sweep rejects only polygons that cannot be such a C of a
    minimal polygon of square size h, and it decides minimality exactly
    for every polygon it keeps, so its class set is the full grid's.  C
    has both coordinate minima 0, so it is a tuple of _anchored_chains(h).
    The walk of _chains(h, anchored=True, sweep=True) yields only the
    tuples of square size h, and stops a chain once no tuple grown from
    it can be C: the segment rule, the pair prune, the band prune, the
    pinned rule, cuts A and B and the yield test, each argued in _chains.

    _sweep_one then makes two decisions on each tuple's integers before
    any polygon is built, and a third on the lattice points of the
    polygons left; only the minimal ones are reduced, by canonical_form:

    - Dihedral filter: C is no larger than its 7 other dihedral images,
      so _has_smaller_image keeps it (see enumerate_classes).
    - Drop: if the vertices other than some vertex v span a polygon of
      square size h, by _square_size_is (its docstring has the proof),
      the tuple is rejected.  That polygon lies inside drop_vertex(P, v),
      so, square size being monotone under inclusion, the drop keeps
      square size h and P is not minimal.  This cheap first pass reads
      vertices only.
    - Lattice drop: the polygons left, 22 at h=4 and 122 at h=6, are
      built, and their lattice points L(P) listed once.  P is minimal
      exactly when no vertex v gives _square_size_is(h, L(P) minus v)
      (see is_minimal: single drops decide).  drop_vertex(P, v) is the
      hull of L(P) minus v, which has the same extremes of x, y, x + y
      and x - y as those points, and _square_size_is reads only these.
      The drop lies in P, so in [0, h]^2: both its spans are at most h,
      as _square_size_is needs, and so is its square size, so the test
      decides exactly whether the drop keeps square size h.  This
      rejects 6 of the 22 at h=4 and 42 of the 122 at h=6.  It rejects
      every polygon left with at least 3 vertices that holds (0, y) and
      (h, y), or (x, 0) and (x, h): some vertex v is neither point, so
      L(P) minus v keeps that segment of lattice length h, and the drop
      has square size h, as for the pair prune (see _chains).

    The walk is split by start (see _chains), and each start's chains are
    generated, decided and tested by _sweep_start, so several jobs spread
    whole starts over worker processes (see map_polygons), each returning
    the classes it finds; one job runs the same loop in this process on
    one set of tables.  The sweep cost grows quickly with h, hence the
    guard; raise the limit explicitly for a longer run.
    """
    if type(h) is not int or h < 1:
        raise InvalidInputError(f"square size must be a positive integer, got {h!r}")
    if h > limit:
        raise ResourceLimitError(
            f"classification sweep for h={h} exceeds the limit {limit}; "
            "pass a larger limit to run it anyway")
    grid = _Grid(h, anchored=True, sweep=True)
    starts = list(grid.starts())
    found = set().union(*map_polygons(functools.partial(_sweep_start, grid), starts, jobs))
    family = tuple(generate_minimal(h))
    search = tuple(sorted(found, key=_class_key))
    family_set = set(family)
    return ClassificationReport(
        h=h,
        family_classes=family,
        search_classes=search,
        only_in_families=tuple(p for p in family if p not in found),
        only_in_search=tuple(p for p in search if p not in family_set),
    )
