import itertools
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

import latticesize.oracle
from latticesize import (
    DegenerateInputError,
    EqualityFamily,
    InvalidInputError,
    apply_map,
    area,
    canonical_form,
    check_bounds,
    drop_vertex,
    enumerate_classes,
    enumerate_convex,
    exceptional_triangle,
    extremal_family,
    generate_minimal,
    hull,
    invariants,
    is_minimal,
    lattice_equivalent,
    lattice_points,
    ls_square,
    minimal_families,
    realize,
    thin_triangle,
    unit_square,
    width_extremal_triangle,
)
from conftest import (
    random_lattice_polygon,
    random_rational_polygon,
    random_unimodular,
)


class TestConstructors:
    def test_thin(self):
        assert thin_triangle(3) == hull([(0, 0), (3, 0), (0, 1)])
        for bad in (0, -1, 2.5, 3.0, True, "3", None):
            with pytest.raises(InvalidInputError):
                thin_triangle(bad)

    def test_width_extremal(self):
        assert width_extremal_triangle(4) == hull([(0, 0), (4, 2), (2, 4)])
        P = width_extremal_triangle(3)
        assert area(P) == Fraction(27, 8)
        assert not P.is_lattice
        assert width_extremal_triangle(Fraction(3)) == P
        for bad in (0, -2, Fraction(-1, 2), 3.0, True, "x", "3", None):
            with pytest.raises(InvalidInputError):
                width_extremal_triangle(bad)

    def test_exceptional_matches_even_width_two(self):
        assert exceptional_triangle() == width_extremal_triangle(2)


class TestCheckBounds:
    def test_exceptional_triangle(self):
        rep = check_bounds(exceptional_triangle())
        assert (rep.slack_wh, rep.slack_wl) == (0, 0)
        assert (rep.slack_simplex, rep.slack_square) == (0, Fraction(1, 2))
        assert rep.equality_family is EqualityFamily.EXCEPTIONAL_TRIANGLE

    def test_thin_triangle(self):
        rep = check_bounds(thin_triangle(5))
        assert (rep.slack_wh, rep.slack_wl) == (Fraction(5, 8), Fraction(5, 4))
        assert (rep.slack_simplex, rep.slack_square) == (0, 0)
        assert rep.equality_family is EqualityFamily.THIN_TRIANGLE

    def test_unit_square(self):
        rep = check_bounds(unit_square())
        assert (rep.slack_wh, rep.slack_wl) == (Fraction(5, 8), Fraction(1, 2))
        assert (rep.slack_simplex, rep.slack_square) == (0, Fraction(1, 2))
        assert rep.equality_family is EqualityFamily.UNIT_SQUARE

    def test_no_family(self):
        rep = check_bounds(hull([(0, 0), (3, 0), (0, 2)]))
        assert rep.slack_wh == Fraction(3, 4)
        assert rep.slack_wl == Fraction(3, 2)
        assert rep.slack_simplex == Fraction(3, 2)
        assert rep.slack_square == Fraction(3, 2)
        assert rep.equality_family is None

    @pytest.mark.parametrize("w", [4, 6])
    def test_width_extremal_even(self, w):
        rep = check_bounds(width_extremal_triangle(w))
        assert (rep.slack_wh, rep.slack_wl) == (0, 0)
        assert rep.slack_simplex == Fraction(3, 8) * w * w - Fraction(3, 2) * w / 2
        assert rep.equality_family is EqualityFamily.WIDTH_EXTREMAL_TRIANGLE

    def test_width_extremal_rational(self):
        rep = check_bounds(width_extremal_triangle(3))
        assert (rep.slack_wh, rep.slack_wl) == (0, 0)
        assert rep.slack_simplex is None
        assert rep.slack_square is None
        assert rep.equality_family is EqualityFamily.WIDTH_EXTREMAL_TRIANGLE

    def test_width_extremal_rational_translated(self):
        base = width_extremal_triangle(3)
        shifted = hull([(v.x + Fraction(1, 2), v.y + Fraction(1, 3))
                        for v in base.vertices])
        rep = check_bounds(shifted)
        assert (rep.slack_wh, rep.slack_wl) == (0, 0)
        assert rep.equality_family is EqualityFamily.WIDTH_EXTREMAL_TRIANGLE

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            check_bounds(hull([(0, 0), (3, 0)]))

    def test_random_lattice_slacks_nonnegative(self):
        rng = random.Random(97)
        for _ in range(300):
            rep = check_bounds(random_lattice_polygon(rng))
            assert rep.slack_wh >= 0
            assert rep.slack_wl >= 0
            assert rep.slack_simplex >= 0
            assert rep.slack_square >= 0

    def test_random_rational_slacks_nonnegative(self):
        rng = random.Random(101)
        for _ in range(300):
            rep = check_bounds(random_rational_polygon(rng))
            assert rep.slack_wh >= 0
            assert rep.slack_wl >= 0
            assert rep.slack_simplex is None
            assert rep.slack_square is None


def _width_bound_census(n):
    """The class count of {0..n}^2 and the sorted widths of its classes on
    which the width bounds are tight, asserting that they are tight
    exactly on the width-extremal triangles.

    Both 8A >= 3wh and 4A >= wl are homogeneous of degree 2, so a
    rational polygon P with denominators dividing D is tight exactly when
    the lattice polygon D*P is.  The lattice classes of {0..n}^2 therefore
    cover every rational polygon with vertices in (1/D)Z^2 inside
    [0, n/D]^2, for every D.  Membership is tested rather than the label,
    since width_extremal_triangle(2) is the exceptional triangle and
    check_bounds reports that label.  Larger grids run outside the suite:

        PYTHONPATH=src:tests python -c \
            "import test_bounds; print(test_bounds._width_bound_census(6))"
    """
    count, tight = 0, []
    for P in enumerate_classes(n, limit=n):
        count += 1
        rep = check_bounds(P)
        w = invariants(P).width
        member = w % 2 == 0 and lattice_equivalent(P, width_extremal_triangle(w))
        assert (rep.slack_wh == 0) == member, P
        assert (rep.slack_wl == 0) == member, P
        if member:
            tight.append(w)
    return count, sorted(tight)


def test_width_bound_equality_census():
    """The width bounds are tight exactly on the width-extremal triangles,
    over the 1,517 classes of {0..4}^2 (see _width_bound_census)."""
    assert _width_bound_census(4) == (1_517, [2, 4])


def test_square_bound_over_the_minimal_classes():
    """2A >= h holds with slack on every full-dimensional minimal class of
    square size h, h = 2..14, whose least 2A is 2h - 1.  Only the
    triangle (1, 1) at h = 2, the exceptional one, and the triangle
    (h/2, h/2) at even h >= 4, of width h, fall in an equality family.
    A lattice polygon of square size h holds a minimal one of the same
    square size, found by dropping vertices, and so at least its area."""
    for h in range(2, 15):
        classes = [P for P in generate_minimal(h) if P.dim == 2]
        reports = [check_bounds(P) for P in classes]
        assert all(rep.slack_square > 0 for rep in reports)
        assert min(2 * area(P) for P in classes) == 2 * h - 1
        families = [rep.equality_family for rep in reports if rep.equality_family]
        if h == 2:
            assert families == [EqualityFamily.EXCEPTIONAL_TRIANGLE]
        elif h % 2 == 0:
            assert families == [EqualityFamily.WIDTH_EXTREMAL_TRIANGLE]
        else:
            assert families == []


def _longest_segment(P):
    """The largest lattice length of a segment between two lattice points
    of P."""
    pts = lattice_points(P)
    return max(gcd(q.x - p.x, q.y - p.y) for p, q in itertools.combinations(pts, 2))


def test_long_segment_free_bound():
    """The module docstring's area identities hold on every family member
    for h = 2..15.  Over the full-dimensional classes of {0..4}^2, the 240
    of square size h >= 2 that hold no lattice segment of lattice length
    h have 2A >= 2h - 1, with equality exactly on the class of
    T_h = conv{(0,0),(h-1,h),(h,h-1)}, once for each h = 2, 3, 4."""
    for h in range(2, 16):
        for f in minimal_families(h):
            twice = 2 * area(realize(f))
            if f.kind == "triangle":
                a, b = f.params
                assert twice == h * h - a * b, f
            elif f.kind == "quad":
                a, b, c, d = f.params
                assert twice == h * h - (h - a - d) * (h - b - c), f
    count, tight = 0, []
    for P in enumerate_classes(4):
        h = ls_square(P)
        if h < 2 or _longest_segment(P) >= h:
            continue
        count += 1
        assert 2 * area(P) >= 2 * h - 1, P
        T = hull([(0, 0), (h - 1, h), (h, h - 1)])
        assert (2 * area(P) == 2 * h - 1) == lattice_equivalent(P, T), P
        if 2 * area(P) == 2 * h - 1:
            tight.append(h)
    assert (count, sorted(tight)) == (240, [2, 3, 4])


def test_thin_triangle_drops_to_the_segment():
    """Dropping the apex (0, 1) of the thin triangle leaves the axis
    segment of lattice length h with the same square size, so the thin
    triangle, with 2A = h, is not minimal and reduces to the segment: the
    segment case of the module's argument for 2A >= h."""
    for h in range(1, 13):
        T = thin_triangle(h)
        assert 2 * area(T) == h
        assert drop_vertex(T, (0, 1)) == hull([(0, 0), (h, 0)])
        assert ls_square(T) == ls_square(drop_vertex(T, (0, 1))) == h
        assert not is_minimal(T)


class TestExtremalFamily:
    members = [
        (thin_triangle(1), EqualityFamily.THIN_TRIANGLE),
        (thin_triangle(4), EqualityFamily.THIN_TRIANGLE),
        (unit_square(), EqualityFamily.UNIT_SQUARE),
        (exceptional_triangle(), EqualityFamily.EXCEPTIONAL_TRIANGLE),
        (width_extremal_triangle(4), EqualityFamily.WIDTH_EXTREMAL_TRIANGLE),
        (width_extremal_triangle(6), EqualityFamily.WIDTH_EXTREMAL_TRIANGLE),
    ]

    def test_members_and_images(self):
        rng = random.Random(103)
        for P, family in self.members:
            assert extremal_family(P) is family
            for _ in range(10):
                Q = apply_map(random_unimodular(rng), P)
                assert extremal_family(Q) is family

    def test_non_member(self):
        assert extremal_family(hull([(0, 0), (3, 0), (0, 2)])) is None

    def test_exceptional_precedence(self):
        # width 2 makes the sporadic triangle a member of both candidate
        # families; the sporadic label wins
        assert extremal_family(width_extremal_triangle(2)) is \
            EqualityFamily.EXCEPTIONAL_TRIANGLE

    def test_non_lattice_rejected(self):
        with pytest.raises(InvalidInputError):
            extremal_family(width_extremal_triangle(3))

    def test_point_and_segments(self, monkeypatch):
        # the vertex count rejects them in front of any form comparison:
        # canonical_form, replaced in every package module that binds it,
        # is never reached
        form = latticesize.oracle.canonical_form

        def unreachable(P):
            raise AssertionError(f"canonical form of {P}")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "latticesize" and getattr(module, "canonical_form", None) is form:
                monkeypatch.setattr(module, "canonical_form", unreachable)
        assert extremal_family(hull([(2, 3)])) is None
        for k in range(1, 5):
            assert extremal_family(hull([(0, 0), (k, 0)])) is None
            assert extremal_family(hull([(1, 1), (1 + k, 1 + 2 * k)])) is None


class TestWrittenForms:
    """The canonical forms extremal_family compares with, each argued in
    its docstring."""

    def test_thin_triangle(self):
        for l in range(1, 41):
            assert canonical_form(thin_triangle(l)) == hull([(0, 0), (1, 0), (0, l)]), l

    def test_unit_square_and_exceptional_triangle(self):
        for M in (unit_square(), exceptional_triangle()):
            assert canonical_form(M) == M

    def test_width_extremal_triangle(self):
        widths = [*range(2, 41, 2), *(Fraction(k, q) for k in range(1, 13) for q in range(1, 6))]
        for w in widths:
            M = width_extremal_triangle(w)
            assert canonical_form(M) == M, w


def _reference_family(P):
    """The equality family of a full-dimensional P by lattice_equivalent
    against the members themselves, in extremal_family's order; a
    rational P can only be a width-extremal triangle, of any positive
    width."""
    rep = invariants(P)
    l, w = rep.ls_simplex, rep.width
    if not P.is_lattice:
        member = lattice_equivalent(P, width_extremal_triangle(w))
        return EqualityFamily.WIDTH_EXTREMAL_TRIANGLE if member else None
    if lattice_equivalent(P, thin_triangle(l)):
        return EqualityFamily.THIN_TRIANGLE
    if l == 2 and lattice_equivalent(P, unit_square()):
        return EqualityFamily.UNIT_SQUARE
    if l == 3 and lattice_equivalent(P, exceptional_triangle()):
        return EqualityFamily.EXCEPTIONAL_TRIANGLE
    if w % 2 == 0 and lattice_equivalent(P, width_extremal_triangle(w)):
        return EqualityFamily.WIDTH_EXTREMAL_TRIANGLE
    return None


def _audit_family_labels(n):
    """check_bounds(P).equality_family against _reference_family on every
    full-dimensional polygon of enumerate_convex(n), and on each of them
    scaled by 1/2 and by 1/3, which takes the rational branch unless the
    scaled polygon is again a lattice one: (polygons, tight,
    disagreements), tight counting the polygons with a zero slack, the
    only ones whose family check_bounds looks for.  Outside the tests,
    run it as
    PYTHONPATH=src:tests python -c "import test_bounds as t; print(t._audit_family_labels(4))"
    """
    count, tight, disagreements = 0, 0, 0
    for P in enumerate_convex(n):
        if P.dim != 2:
            continue
        for s in (1, Fraction(1, 2), Fraction(1, 3)):
            Q = hull((v.x * s, v.y * s) for v in P.vertices)
            rep = check_bounds(Q)
            count += 1
            tight += 0 in (rep.slack_wh, rep.slack_wl, rep.slack_simplex, rep.slack_square)
            disagreements += rep.equality_family is not _reference_family(Q)
    return count, tight, disagreements


def test_family_labels_match_the_members():
    assert _audit_family_labels(2) == (504, 93, 0)
