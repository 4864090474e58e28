import random

import pytest

from latticesize import (
    InvalidInputError,
    LatticeBasis,
    apply_map,
    gauss_reduce,
    hull,
    width,
)
from latticesize.reduction import argmin_shift, is_reduced
from conftest import random_lattice_polygon, random_unimodular

quad = hull([(0, 0), (0, 3), (2, 2), (1, 3)])
pentagon = hull([(4, 0), (5, 0), (2, 2), (0, 3), (1, 2)])


class TestLatticeBasis:
    def test_det(self):
        assert LatticeBasis((1, 0), (0, 1)).det == 1
        assert LatticeBasis((0, 1), (1, 0)).det == -1

    def test_non_unimodular_rejected(self):
        with pytest.raises(InvalidInputError):
            LatticeBasis((1, 0), (0, 2))
        with pytest.raises(InvalidInputError):
            LatticeBasis((2, 1), (4, 2))


class TestArgminShift:
    def test_already_optimal(self):
        assert argmin_shift(quad, (1, 0), (0, 1)) == 0

    def test_long_walk(self):
        box = hull([(0, 0), (5, 0), (5, 1), (0, 1)])
        # width of (1, 3+k) over the box is 5 + |3+k|, minimized at k = -3
        assert argmin_shift(box, (0, 1), (1, 3)) == -3

    def test_two_sided_tie_returns_zero(self):
        square = hull([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert argmin_shift(square, (1, 0), (0, 1)) == 0

    def test_constant_along_zero_width_direction(self):
        seg = hull([(0, 0), (3, 0)])
        assert argmin_shift(seg, (0, 1), (1, 0)) == 0

    def test_non_unimodular_rejected(self):
        with pytest.raises(InvalidInputError):
            argmin_shift(quad, (1, 0), (2, 0))

    def test_matches_scan(self):
        rng = random.Random(23)
        for _ in range(80):
            P = random_lattice_polygon(rng)
            phi = random_unimodular(rng)
            u1, u2 = phi.matrix
            k = argmin_shift(P, u1, u2)
            best = width(P, (u2[0] + k * u1[0], u2[1] + k * u1[1]))
            scanned = min(
                width(P, (u2[0] + j * u1[0], u2[1] + j * u1[1]))
                for j in range(-60, 61))
            assert best == scanned


class TestGaussReduce:
    def test_standard_basis_already_reduced(self):
        assert gauss_reduce(quad) == LatticeBasis((1, 0), (0, 1))

    def test_pentagon(self):
        basis = gauss_reduce(pentagon)
        assert (width(pentagon, basis.u1), width(pentagon, basis.u2)) == (2, 2)
        assert is_reduced(pentagon, basis)

    def test_unit_square(self):
        assert gauss_reduce(hull([(0, 0), (1, 0), (1, 1), (0, 1)])) == \
            LatticeBasis((1, 0), (0, 1))

    def test_segment_normal_first(self):
        basis = gauss_reduce(hull([(0, 0), (3, 0)]))
        assert width(hull([(0, 0), (3, 0)]), basis.u1) == 0
        assert basis == LatticeBasis((0, 1), (1, 0))
        diag = hull([(0, 0), (2, 2)])
        dbasis = gauss_reduce(diag)
        assert width(diag, dbasis.u1) == 0

    def test_point(self):
        assert gauss_reduce(hull([(7, -2)])) == LatticeBasis((1, 0), (0, 1))

    def test_deterministic(self):
        rng = random.Random(29)
        for _ in range(40):
            P = random_lattice_polygon(rng)
            assert gauss_reduce(P) == gauss_reduce(P)

    def test_output_is_reduced(self):
        rng = random.Random(31)
        for _ in range(200):
            P = random_lattice_polygon(rng, span=6)
            assert is_reduced(P, gauss_reduce(P))

    def test_width_pair_is_equivalence_invariant(self):
        rng = random.Random(37)
        for _ in range(100):
            P = random_lattice_polygon(rng)
            Q = apply_map(random_unimodular(rng), P)
            bp, bq = gauss_reduce(P), gauss_reduce(Q)
            pair_p = sorted([width(P, bp.u1), width(P, bp.u2)])
            pair_q = sorted([width(Q, bq.u1), width(Q, bq.u2)])
            assert pair_p == pair_q

    def test_first_width_is_global_minimum(self):
        # the reduced first direction must beat every small direction
        rng = random.Random(41)
        dirs = [(a, b) for a in range(-8, 9) for b in range(-8, 9)
                if (a, b) != (0, 0)]
        for _ in range(30):
            P = random_lattice_polygon(rng, span=3)
            w = width(P, gauss_reduce(P).u1)
            assert w == min(width(P, u) for u in dirs)


class TestIsReduced:
    def test_rejects_unordered(self):
        assert not is_reduced(quad, LatticeBasis((0, 1), (1, 0)))

    def test_rejects_shiftable(self):
        box = hull([(0, 0), (5, 0), (5, 1), (0, 1)])
        assert not is_reduced(box, LatticeBasis((0, 1), (1, 3)))

    def test_accepts_known(self):
        assert is_reduced(pentagon, LatticeBasis((1, 1), (1, 2)))
