import random
import time
from fractions import Fraction

import latticesize.geometry
import latticesize.size
from latticesize import (
    SIMPLEX,
    SQUARE,
    ContainmentCertificate,
    InvariantsReport,
    LatticeBasis,
    UnimodularMap,
    apply_map,
    area,
    check_touch,
    enumerate_convex,
    gauss_reduce,
    hull,
    invariants,
    lattice_width,
    ls_square,
    simplex_dilates,
    width,
)
from latticesize.geometry import _scaled, _unscaled
from conftest import random_lattice_polygon, random_shear, random_unimodular
from test_rational import POLYGONS as RATIONAL_POLYGONS

quad = hull([(0, 0), (0, 3), (2, 2), (1, 3)])
pentagon = hull([(4, 0), (5, 0), (2, 2), (0, 3), (1, 2)])
tri = hull([(0, 0), (2, 1), (1, 2)])


def swap(P):
    return hull([(v.y, v.x) for v in P.vertices])


class TestSimplexDilates:
    def test_quad(self):
        assert simplex_dilates(quad) == (4, 5, 3, 5)

    def test_standard_simplex(self):
        assert simplex_dilates(hull([(0, 0), (1, 0), (0, 1)])) == (1, 2, 2, 2)

    def test_swap_symmetry(self):
        # swapping the axes fixes the first two dilates, swaps the last two
        rng = random.Random(43)
        for _ in range(100):
            P = random_lattice_polygon(rng)
            l1, l2, l3, l4 = simplex_dilates(P)
            assert simplex_dilates(swap(P)) == (l1, l2, l4, l3)

    def test_translation_invariant(self):
        shifted = hull([(v.x + 7, v.y - 4) for v in quad.vertices])
        assert simplex_dilates(shifted) == simplex_dilates(quad)


class TestInvariants:
    def check(self, P, expected):
        rep = invariants(P)
        got = (rep.width, rep.ls_square, rep.ls_simplex, rep.area)
        assert got == expected
        assert rep.cert_square.verify(P)
        assert rep.cert_simplex.verify(P)
        assert rep.cert_square.dilate == rep.ls_square
        assert rep.cert_simplex.dilate == rep.ls_simplex
        return rep

    def test_pentagon(self):
        rep = self.check(pentagon, (2, 2, 3, Fraction(5, 2)))
        assert rep.basis == LatticeBasis((1, 1), (1, 2))

    def test_pentagon_under_huge_shear(self):
        # the cost of reduction grows with log |k|, not with the shear k
        shear = UnimodularMap(((1, 10**12), (0, 1)))
        start = time.perf_counter()
        self.check(apply_map(shear, pentagon), (2, 2, 3, Fraction(5, 2)))
        assert time.perf_counter() - start < 0.5

    def test_quad(self):
        self.check(quad, (2, 3, 3, Fraction(7, 2)))

    def test_short_triangle(self):
        self.check(tri, (2, 2, 3, Fraction(3, 2)))

    def test_thin_triangle(self):
        self.check(hull([(0, 0), (4, 0), (0, 1)]), (1, 4, 4, 2))

    def test_segment(self):
        self.check(hull([(0, 0), (3, 0)]), (0, 3, 3, 0))

    def test_point(self):
        # a point goes through the general path: the reduction keeps the
        # standard basis and both certificates translate it to the origin
        for p in [(5, -2), (0, 0), (Fraction(1, 3), Fraction(5, 2)), (Fraction(-7, 4), 2)]:
            P = hull([p])
            rep = self.check(P, (0, 0, 0, 0))
            to_origin = UnimodularMap(((1, 0), (0, 1)), (-p[0], -p[1]))
            want = InvariantsReport(
                width=0, ls_square=0, ls_simplex=0, area=Fraction(0),
                basis=LatticeBasis((1, 0), (0, 1)),
                cert_square=ContainmentCertificate(to_origin, SQUARE, 0),
                cert_simplex=ContainmentCertificate(to_origin, SIMPLEX, 0))
            assert rep == want
            # the same types too: int sizes and dilates, a Fraction area
            assert list(map(type, _numbers(rep))) == list(map(type, _numbers(want)))
            assert type(ls_square(P)) is int and ls_square(P) == 0
            assert type(lattice_width(P)) is int and lattice_width(P) == 0

    def test_shortcuts_agree(self):
        rng = random.Random(47)
        for _ in range(100):
            P = random_lattice_polygon(rng)
            rep = invariants(P)
            assert lattice_width(P) == rep.width
            assert ls_square(P) == rep.ls_square

    def test_chain(self):
        # width <= square size <= triangle size <= twice the square size
        rng = random.Random(53)
        for _ in range(200):
            rep = invariants(random_lattice_polygon(rng))
            assert rep.width <= rep.ls_square
            assert rep.ls_square <= rep.ls_simplex
            assert rep.ls_simplex <= 2 * rep.ls_square

    def test_unimodular_invariance(self):
        rng = random.Random(59)
        for _ in range(100):
            P = random_lattice_polygon(rng)
            Q = apply_map(random_unimodular(rng), P)
            rp, rq = invariants(P), invariants(Q)
            assert (rp.width, rp.ls_square, rp.ls_simplex) == \
                (rq.width, rq.ls_square, rq.ls_simplex)
            assert rp.area == rq.area

    def test_certificates_are_tight(self):
        # the same map never fits the next smaller dilate
        rng = random.Random(61)
        polygons = [random_lattice_polygon(rng) for _ in range(100)]
        for P in polygons + [P for P in RATIONAL_POLYGONS if P.dim == 2]:
            rep = invariants(P)
            for cert in (rep.cert_square, rep.cert_simplex):
                assert cert.verify(P)
                if cert.dilate >= 1:
                    smaller = ContainmentCertificate(
                        cert.map, cert.target, cert.dilate - 1)
                    assert not smaller.verify(P)


def image_invariants(P):
    """The image-polygon path that invariants replaced, kept as its
    reference: the reduced image of D*P is built by apply_map, its
    extremes and simplex_dilates read off that polygon, and both widths
    measured again on D*P."""
    D, S = _scaled(P)
    basis = gauss_reduce(S)
    reduce_map = UnimodularMap((basis.u1, basis.u2))
    Q = apply_map(reduce_map, S)
    min_x = min(v.x for v in Q.vertices)
    max_x = max(v.x for v in Q.vertices)
    min_y = min(v.y for v in Q.vertices)
    max_y = max(v.y for v in Q.vertices)
    square_side = _unscaled(width(S, basis.u2), D)
    cert_square = ContainmentCertificate(
        UnimodularMap(reduce_map.matrix, (_unscaled(-min_x, D), _unscaled(-min_y, D))),
        SQUARE, square_side)
    dilates = simplex_dilates(Q)
    best = min(dilates)
    sx, sy = ((1, 1), (-1, -1), (1, -1), (-1, 1))[dilates.index(best)]
    (r1a, r1b), (r2a, r2b) = reduce_map.matrix
    flipped = ((sx * r1a, sx * r1b), (sy * r2a, sy * r2b))
    shift = (-min_x if sx > 0 else max_x, -min_y if sy > 0 else max_y)
    cert_simplex = ContainmentCertificate(
        UnimodularMap(flipped, (_unscaled(shift[0], D), _unscaled(shift[1], D))),
        SIMPLEX, _unscaled(best, D))
    return InvariantsReport(
        width=_unscaled(width(S, basis.u1), D), ls_square=square_side,
        ls_simplex=_unscaled(best, D), area=area(P), basis=basis,
        cert_square=cert_square, cert_simplex=cert_simplex)


def _numbers(rep):
    return (rep.width, rep.ls_square, rep.ls_simplex, rep.area,
            rep.cert_square.dilate, *rep.cert_square.map.translation,
            rep.cert_simplex.dilate, *rep.cert_simplex.map.translation)


class TestFrameRead:
    """invariants reads its report off the reduced frame coordinates; the
    image-polygon path must give the same report, field by field and
    type by type."""

    @staticmethod
    def check(P):
        got, want = invariants(P), image_invariants(P)
        assert got == want, P
        assert [type(x) for x in _numbers(got)] == [type(x) for x in _numbers(want)], P
        assert got.cert_square.verify(P) and got.cert_simplex.verify(P)

    def test_small_grid(self):
        for P in enumerate_convex(3, include_degenerate=True):
            if len(P.vertices) > 1:
                self.check(P)

    def test_rational(self):
        for P in RATIONAL_POLYGONS:
            if len(P.vertices) > 1:
                self.check(P)

    def test_sheared(self):
        rng = random.Random(103)
        rational = [P for P in RATIONAL_POLYGONS if P.dim > 0]
        for i in range(200):
            P = random_lattice_polygon(rng) if i % 2 else rng.choice(rational)
            self.check(random_shear(rng, P))

    def test_no_image_polygon(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(latticesize.size, "apply_map",
                            counted("apply_map", latticesize.size.apply_map))
        monkeypatch.setattr(latticesize.geometry, "hull",
                            counted("hull", latticesize.geometry.hull))
        for P in (pentagon, quad, RATIONAL_POLYGONS[5]):
            invariants(P)
        assert calls == []


class TestCheckTouch:
    def test_short_triangle(self):
        assert check_touch(tri) == (2, 2)

    def test_square(self):
        box = hull([(0, 0), (3, 0), (3, 3), (0, 3)])
        assert check_touch(box) == (3, 3)

    def test_unequal_spans(self):
        box = hull([(0, 0), (2, 0), (2, 3), (0, 3)])
        assert check_touch(box) is None

    def test_matches_invariants_on_corpus(self, corpus3):
        hits = 0
        for P in corpus3:
            got = check_touch(P)
            if got is None:
                continue
            hits += 1
            rep = invariants(P)
            assert got == (rep.ls_square, rep.width)
        assert hits > 0

    def test_equal_spans_in_four_grid(self):
        # the fact check_touch's docstring proves, over every polygon of
        # {0..4}^2 with equal axis spans, points and segments included
        hits = 0
        for P in enumerate_convex(4, include_degenerate=True):
            got = check_touch(P)
            if got is not None:
                hits += 1
                assert got == (ls_square(P), lattice_width(P)), P
        assert hits == 14_240

    def test_equal_spans_rational(self):
        # the proof holds for any convex polygon, not only lattice ones
        hits = [P for P in RATIONAL_POLYGONS if check_touch(P) is not None]
        assert (len(hits), sum(P.dim == 2 for P in hits)) == (34, 5)
        for P in hits:
            assert check_touch(P) == (ls_square(P), lattice_width(P)), P
