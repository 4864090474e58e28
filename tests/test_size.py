import random
import time
from fractions import Fraction

from latticesize import (
    ContainmentCertificate,
    LatticeBasis,
    UnimodularMap,
    apply_map,
    check_touch,
    hull,
    invariants,
    lattice_width,
    ls_square,
    simplex_dilates,
)
from conftest import random_lattice_polygon, random_unimodular

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
        rep = self.check(hull([(5, -2)]), (0, 0, 0, 0))
        assert rep.cert_square.dilate == 0

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
        for _ in range(100):
            P = random_lattice_polygon(rng)
            rep = invariants(P)
            for cert in (rep.cert_square, rep.cert_simplex):
                smaller = ContainmentCertificate(
                    cert.map, cert.target, cert.dilate - 1)
                assert not smaller.verify(P)


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
