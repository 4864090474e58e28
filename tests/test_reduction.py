import random

import pytest

from latticesize import (
    InvalidInputError,
    LatticeBasis,
    UnimodularMap,
    apply_map,
    gauss_reduce,
    hull,
    width,
)
from latticesize import reduction
from latticesize.reduction import argmin_shift, is_reduced
from conftest import random_lattice_polygon, random_unimodular

quad = hull([(0, 0), (0, 3), (2, 2), (1, 3)])
pentagon = hull([(4, 0), (5, 0), (2, 2), (0, 3), (1, 2)])


@pytest.fixture()
def width_calls(monkeypatch):
    calls = []

    def counting(P, u):
        calls.append(u)
        return width(P, u)

    monkeypatch.setattr(reduction, "width", counting)
    return calls


class TestLatticeBasis:
    def test_det(self):
        assert LatticeBasis((1, 0), (0, 1)).det == 1
        assert LatticeBasis((0, 1), (1, 0)).det == -1

    def test_non_unimodular_rejected(self):
        with pytest.raises(InvalidInputError):
            LatticeBasis((1, 0), (0, 2))
        with pytest.raises(InvalidInputError):
            LatticeBasis((2, 1), (4, 2))

    @pytest.mark.parametrize("u1, u2", [
        ((1.0, 0), (0, 1)), ((1, 0), (0, 1.0)), ((True, 0), (0, True)), ((1, False), (0, 1))],
        ids=["float-u1", "float-u2", "bool-both", "bool-u1"])
    def test_non_int_entries_rejected(self, u1, u2):
        with pytest.raises(InvalidInputError, match="determinant"):
            LatticeBasis(u1, u2)


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

    @pytest.mark.parametrize("u1, u2", [
        ((1.0, 0), (0, 1)), ((1, 0), (0.0, 1)), ((True, 0), (0, 1)), ((1, 0), (False, 1))],
        ids=["float-u1", "float-u2", "bool-u1", "bool-u2"])
    def test_non_int_entries_rejected(self, u1, u2):
        with pytest.raises(InvalidInputError, match="unimodular"):
            argmin_shift(quad, u1, u2)

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


def _walk_shift(P, u1, u2):
    """The one-step walk argmin_shift replaced, kept as its reference:
    from 0, move while the width strictly drops."""
    def shifted(k):
        return width(P, (u2[0] + k * u1[0], u2[1] + k * u1[1]))

    w0, wp, wm = shifted(0), shifted(1), shifted(-1)
    if w0 <= wp and w0 <= wm:
        return 0
    step, best = (1, wp) if wp < w0 else (-1, wm)
    k = step
    while True:
        nxt = shifted(k + step)
        if nxt >= best:
            return k
        k += step
        best = nxt


def _doubling_shift(P, u1, u2):
    """The search from k = 0 that argmin_shift replaced, kept as its
    reference: after the sign test, double j until stops(j), then bisect."""
    widths = {}

    def shifted(k):
        if k not in widths:
            widths[k] = width(P, (u2[0] + k * u1[0], u2[1] + k * u1[1]))
        return widths[k]

    if shifted(1) < shifted(0):
        sign = 1
    elif shifted(-1) < shifted(0):
        sign = -1
    else:
        return 0

    def stops(j):
        return shifted(sign * (j + 1)) >= shifted(sign * j)

    lo, hi = 0, 1
    while not stops(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stops(mid):
            hi = mid
        else:
            lo = mid
    return sign * hi


def _random_pair(rng, e):
    """The rows of a product of one to four shears, each log-uniform in
    [1, 10**e] with either sign, and swaps: a unimodular pair."""
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 4)):
        k = rng.choice((1, -1)) * int(10 ** rng.uniform(0, e))
        if rng.random() < 0.5:
            m = ((m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]), m[1])
        else:
            m = (m[0], (m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]))
        if rng.random() < 0.3:
            m = (m[1], m[0])
    return m


def _audit_shift_search(e):
    """argmin_shift against _doubling_shift on seeded polygons of {0..6}^2
    under random unimodular maps with shears up to 10**e, searched along
    the axes in both orders: (cases, disagreements, most width calls in
    one search).  Outside the tests, run it as
    PYTHONPATH=src:tests python -c "import test_reduction as t; print(t._audit_shift_search(12))"
    """
    rng = random.Random(61)
    calls = []

    def counting(P, u):
        calls.append(u)
        return width(P, u)

    cases = wrong = most = 0
    for _ in range(50_000):
        Q = random_lattice_polygon(rng, span=6, points=rng.randint(3, 8))
        P = apply_map(UnimodularMap(_random_pair(rng, e)), Q)
        for u1, u2 in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
            calls.clear()
            reduction.width = counting
            try:
                k = argmin_shift(P, u1, u2)
            finally:
                reduction.width = width
            most = max(most, len(calls))
            cases += 1
            wrong += k != _doubling_shift(P, u1, u2)
    return cases, wrong, most


class TestShiftSearch:
    def test_matches_walk_on_seeded_shears(self):
        rng = random.Random(59)
        for _ in range(300):
            P = random_lattice_polygon(rng, span=5)
            # an axis u1 and u2 the other axis sheared by up to 300
            u1 = (1, 0) if rng.random() < 0.5 else (0, 1)
            k = rng.randint(-300, 300)
            u2 = (k, 1) if u1 == (1, 0) else (1, k)
            assert argmin_shift(P, u1, u2) == _walk_shift(P, u1, u2)
            # and a random unimodular pair
            u1, u2 = random_unimodular(rng, shear=30).matrix
            assert argmin_shift(P, u1, u2) == _walk_shift(P, u1, u2)

    def test_matches_doubling_on_huge_shears(self):
        rng = random.Random(67)
        for _ in range(600):
            P = random_lattice_polygon(rng, span=rng.randint(1, 6))
            u1, u2 = _random_pair(rng, 12)
            assert argmin_shift(P, u1, u2) == _doubling_shift(P, u1, u2)
            assert argmin_shift(P, u2, u1) == _doubling_shift(P, u2, u1)

    @pytest.mark.parametrize("P", [
        hull([(0, 0), (7, 0), (7, 2), (0, 2)]), hull([(0, 0), (1, 0), (1, 9), (0, 9)]),
        # the widths along (k, 1) are 3 for k in -1..2
        hull([(0, 0), (0, 3), (1, 1)])], ids=["box7x2", "box1x9", "plateau"])
    def test_matches_doubling_on_sheared_plateaus(self, P):
        for e in range(13):
            for k in (10**e, -10**e, 3 * 10**e + 1):
                for u1, u2 in (((0, 1), (1, k)), ((1, 0), (k, 1)), ((1, 1), (k, k + 1))):
                    assert argmin_shift(P, u1, u2) == _doubling_shift(P, u1, u2)

    def test_matches_walk_on_plateaus(self):
        box = hull([(0, 0), (7, 0), (7, 2), (0, 2)])
        for k in range(-40, 41):
            for u1 in ((0, 1), (1, 0)):
                u2 = (1, k) if u1 == (0, 1) else (k, 1)
                assert argmin_shift(box, u1, u2) == _walk_shift(box, u1, u2)

    @pytest.mark.parametrize("u2, want", [((1, 0), 0), ((1, 1), -1), ((1, -1), 1)])
    def test_small_shift_costs_at_most_four_widths(self, width_calls, u2, want):
        assert argmin_shift(quad, (0, 1), u2) == want
        assert len(width_calls) <= 4

    def test_huge_shear_is_logarithmic(self, width_calls):
        box = hull([(0, 0), (5, 0), (5, 1), (0, 1)])
        k = 10**12
        assert argmin_shift(box, (0, 1), (1, k)) == -k
        assert len(width_calls) <= 4 * k.bit_length() + 3

    @pytest.mark.parametrize("e", [3, 6, 12, 40])
    @pytest.mark.parametrize("P", [hull([(0, 0), (5, 0), (5, 1), (0, 1)]), pentagon],
                             ids=["box", "pentagon"])
    def test_shear_costs_a_fixed_number_of_widths(self, width_calls, P, e):
        # _doubling_shift takes 39, 79, 159 and 531 widths here
        want = _doubling_shift(P, (0, 1), (1, 10**e))
        width_calls.clear()
        assert argmin_shift(P, (0, 1), (1, 10**e)) == want
        assert len(width_calls) <= 13


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

    @pytest.mark.parametrize("matrix, want", [
        (((1, 0), (0, 1)), 10), (((1, 7), (0, 1)), 15), (((1, 0), (40, 1)), 16)])
    def test_widths_carried_across_rounds(self, width_calls, monkeypatch, matrix, want):
        # gauss_reduce measures the two axes, then only each shifted u2;
        # every other width is argmin_shift's own
        shifts, inner = [], []

        def recording(P, u1, u2):
            before = len(width_calls)
            shifts.append(argmin_shift(P, u1, u2))
            inner.append(len(width_calls) - before)
            return shifts[-1]

        monkeypatch.setattr(reduction, "argmin_shift", recording)
        P = apply_map(UnimodularMap(matrix), pentagon)
        basis = gauss_reduce(P)
        assert len(width_calls) - sum(inner) == 2 + sum(1 for k in shifts if k)
        assert len(width_calls) == want
        assert is_reduced(P, basis)

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
