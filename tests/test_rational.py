"""Rational polygons against references that run on their Fraction vertices.

invariants, brute_force_lattice_size, check_bounds and canonical_form
measure a rational polygon P as its integer multiple D*P.  The references
below are the direct computations on P itself: basis reduction, widths,
the direction search and the hull-built images, all in Fraction
arithmetic.  The direction search's reference, which takes each pair's
four flip dilates from flip_dilates over its dot products, also checks
the search on lattice polygons, where it reads only the pairs whose sum
it scanned and their two flip dilates through that sum.
"""
import math
import random
from fractions import Fraction

import pytest

from latticesize import (
    SIMPLEX,
    SQUARE,
    ConvexPolygon,
    EqualityFamily,
    Point,
    UnimodularMap,
    apply_map,
    area,
    brute_force_lattice_size,
    canonical_form,
    check_bounds,
    enumerate_convex,
    gauss_reduce,
    hull,
    invariants,
    lattice_width,
    ls_square,
    width,
    width_extremal_triangle,
)
from latticesize.geometry import _norm, _scaled
from latticesize.oracle import _scan, candidate_directions
from latticesize.size import flip_dilates, simplex_dilates
from conftest import random_lattice_polygon, random_shear, random_unimodular


def _coord(rng):
    q = rng.randint(2, 12)
    return Fraction(rng.randint(0, 3 * q), q)


def _polygons():
    """About 300 seeded rational polygons: points, segments, polygons of
    3 to 7 random points with denominators 2 to 12 (mixed, so D is often
    their product), some of them sheared, and the width-extremal
    triangles of odd width, whose bounds are tight."""
    rng = random.Random(4)
    out = [hull([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 3))]),
           hull([(Fraction(1, 2), Fraction(1, 3)), (Fraction(5, 2), 1), (1, Fraction(7, 3))])]
    while len(out) < 300:
        kind = len(out) % 10
        if kind == 0:
            P = hull([(_coord(rng), _coord(rng))])
        elif kind == 1:
            P = hull([(_coord(rng), _coord(rng)), (_coord(rng), _coord(rng))])
        elif kind == 2:
            P = width_extremal_triangle(rng.choice((1, 3, 5)))
        else:
            P = hull((_coord(rng), _coord(rng)) for _ in range(rng.randint(3, 7)))
        if kind == 2 or kind % 3 == 0:
            phi = random_unimodular(rng, shear=rng.choice((3, 40)))
            P = apply_map(UnimodularMap(phi.matrix, (_coord(rng), _coord(rng))), P)
        if not P.is_lattice:
            out.append(P)
    return out


POLYGONS = _polygons()
FULL = [P for P in POLYGONS if P.dim == 2]


def _ref_invariants(P):
    """width, square size, triangle size, basis and both certificate
    maps, computed on P's own coordinates."""
    basis = gauss_reduce(P)
    reduce_map = UnimodularMap((basis.u1, basis.u2))
    Q = apply_map(reduce_map, P)
    xs = [v.x for v in Q.vertices]
    ys = [v.y for v in Q.vertices]
    dilates = simplex_dilates(Q)
    sx, sy = ((1, 1), (-1, -1), (1, -1), (-1, 1))[dilates.index(min(dilates))]
    (a, b), (c, d) = reduce_map.matrix
    square = UnimodularMap(reduce_map.matrix, (-min(xs), -min(ys)))
    simplex = UnimodularMap(((sx * a, sx * b), (sy * c, sy * d)),
                            (-min(xs) if sx > 0 else max(xs), -min(ys) if sy > 0 else max(ys)))
    return (width(P, basis.u1), width(P, basis.u2), min(dilates), basis, square, simplex)


def _ref_search(P, target):
    _, h, l, basis, _, _ = _ref_invariants(P)
    dirs = candidate_directions(P, h if target == SQUARE else l, basis)
    dots = {u: [u[0] * v.x + u[1] * v.y for v in P.vertices] for u in dirs}
    values = []
    for i, u in enumerate(dirs):
        for v in dirs[i + 1:]:
            if u[0] * v[1] - u[1] * v[0] in (1, -1):
                if target == SQUARE:
                    values.append(max(max(dots[u]) - min(dots[u]), max(dots[v]) - min(dots[v])))
                else:
                    values.append(min(flip_dilates(dots[u], dots[v])))
    return min(values)


def _disagreements(polygons):
    """How many of the two searches over the full-dimensional polygons
    differ from _ref_search."""
    return sum(brute_force_lattice_size(P, target) != _ref_search(P, target)
               for P in polygons for target in (SQUARE, SIMPLEX))


def _audit_triangle_search(n):
    """Both brute-force searches over the full-dimensional polygons of
    enumerate_convex(n) checked against _ref_search: (polygons,
    disagreements).  Outside the tests, run it as
    PYTHONPATH=src:tests python -c "import test_rational as t; print(t._audit_triangle_search(4))"
    """
    full = [P for P in enumerate_convex(n) if P.dim == 2]
    return len(full), _disagreements(full)


def _ref_canonical(P):
    """The minimum of the images hulled one by one."""
    basis = gauss_reduce(P)
    side = width(P, basis.u2)
    if P.dim < 2:
        return hull([(0, 0), (0, side)])
    dirs = candidate_directions(P, side, basis)
    dots = {u: [u[0] * v.x + u[1] * v.y for v in P.vertices] for u in dirs}
    narrow = [u for u in dirs if max(dots[u]) - min(dots[u]) <= side]
    images = []
    for u in narrow:
        for v in narrow:
            if u[0] * v[1] - u[1] * v[0] not in (1, -1):
                continue
            for sx in (1, -1):
                for sy in (1, -1):
                    xs = [sx * a for a in dots[u]]
                    ys = [sy * b for b in dots[v]]
                    images.append(hull(Point(x - min(xs), y - min(ys))
                                       for x, y in zip(xs, ys)).vertices)
    return ConvexPolygon(min(images))


def _assert_int_when_integral(*values):
    for value in values:
        if Fraction(value).denominator == 1:
            assert type(value) is int, value


def test_inputs_cover_the_cases():
    dims = {P.dim for P in POLYGONS}
    assert dims == {0, 1, 2}
    assert len(POLYGONS) == 300
    assert 6 in {_scaled(P)[0] for P in POLYGONS}
    assert any(max(abs(v.x) for v in P.vertices) > 20 for P in POLYGONS)  # sheared


def test_scaled_is_the_integer_multiple():
    for P in POLYGONS:
        D, S = _scaled(P)
        assert D == math.lcm(*(Fraction(c).denominator for v in P.vertices for c in (v.x, v.y)))
        assert S.is_lattice
        assert S == hull((v.x * D, v.y * D) for v in P.vertices)
    lattice = hull([(0, 0), (2, 1), (1, 3)])
    D, S = _scaled(lattice)
    assert D == 1 and S is lattice


@pytest.mark.parametrize("chunk", range(3))
def test_invariants_match_fraction_reference(chunk):
    for P in POLYGONS[chunk::3]:
        rep = invariants(P)
        assert rep.area == area(P)
        if P.dim == 0:
            assert (rep.width, rep.ls_square, rep.ls_simplex) == (0, 0, 0)
            continue
        w, h, l, basis, square, simplex = _ref_invariants(P)
        assert (rep.width, rep.ls_square, rep.ls_simplex, rep.basis) == (w, h, l, basis), P
        assert (rep.cert_square.map, rep.cert_simplex.map) == (square, simplex), P
        assert (rep.cert_square.dilate, rep.cert_simplex.dilate) == (h, l)
        assert rep.cert_square.verify(P) and rep.cert_simplex.verify(P)
        assert lattice_width(P) == w and ls_square(P) == h
        _assert_int_when_integral(
            rep.width, rep.ls_square, rep.ls_simplex, lattice_width(P), ls_square(P),
            *rep.cert_square.map.translation, *rep.cert_simplex.map.translation)


@pytest.mark.parametrize("chunk", range(3))
def test_search_matches_fraction_reference(chunk):
    for P in FULL[chunk::3]:
        for target in (SQUARE, SIMPLEX):
            got = brute_force_lattice_size(P, target)
            assert got == _ref_search(P, target), (P, target)
            _assert_int_when_integral(got)


def test_search_matches_reference_on_small_grid():
    assert _audit_triangle_search(3) == (2719, 0)


def test_search_matches_reference_on_sheared_lattice_polygons():
    rng = random.Random(25)
    sheared = [random_shear(rng, random_lattice_polygon(rng)) for _ in range(200)]
    assert _disagreements(sheared) == 0


def test_triangle_search_reads_only_pairs_whose_sum_is_scanned(corpus3):
    # the u-v flips of a unimodular pair (u, v) are the u+v flips of
    # (v, u-v) or of (u, v-u), whichever the scan's signs hold, so the
    # triangle search skips every pair whose u+v the scan lacks
    pairs = with_sum = with_dif = 0
    for P in corpus3:
        if P.dim < 2:
            continue
        dots = {u: row for u, row, _, _ in _scan(P)[1]}
        dirs = list(dots)
        for i, u in enumerate(dirs):
            for v in dirs[i + 1:]:
                if u[0] * v[1] - u[1] * v[0] not in (1, -1):
                    continue
                pairs += 1
                with_sum += (u[0] + v[0], u[1] + v[1]) in dots
                dif = (u[0] - v[0], u[1] - v[1])
                if dif in dots:
                    flips = flip_dilates(dots[v], dots[dif])
                elif (-dif[0], -dif[1]) in dots:
                    flips = flip_dilates(dots[u], dots[-dif[0], -dif[1]])
                else:
                    continue
                with_dif += 1
                assert {*flip_dilates(dots[u], dots[v])[2:]} == {*flips[:2]}, (P, u, v)
    assert (pairs, with_sum, with_dif) == (12863, 5072, 10144)


@pytest.mark.parametrize("chunk", range(3))
def test_bounds_match_fraction_reference(chunk):
    tight = 0
    for P in FULL[chunk::3]:
        rep = check_bounds(P)
        w, h, l, _, _, _ = _ref_invariants(P)
        a = area(P)
        want_wh = a - Fraction(3, 8) * w * h
        want_wl = a - Fraction(1, 4) * w * l
        assert (rep.slack_wh, rep.slack_wl) == (want_wh, want_wl), P
        assert rep.slack_simplex is None and rep.slack_square is None
        family = None
        if 0 in (want_wh, want_wl) and \
                _ref_canonical(P) == _ref_canonical(width_extremal_triangle(w)):
            family = EqualityFamily.WIDTH_EXTREMAL_TRIANGLE
            tight += 1
        assert rep.equality_family == family, P
        _assert_int_when_integral(rep.slack_wh, rep.slack_wl)
    assert tight > 0


def _fraction_slacks(P):
    """check_bounds' four slacks by Fraction formulas on the invariants."""
    rep = invariants(P)
    a = rep.area
    lattice = P.is_lattice
    return (_norm(a - Fraction(3, 8) * rep.width * rep.ls_square),
            _norm(a - Fraction(1, 4) * rep.width * rep.ls_simplex),
            _norm(a - Fraction(rep.ls_simplex, 2)) if lattice else None,
            _norm(a - Fraction(rep.ls_square, 2)) if lattice else None)


def test_integer_slacks_match_fraction_formulas(corpus3):
    for P in corpus3 + FULL:
        rep = check_bounds(P)
        got = (rep.slack_wh, rep.slack_wl, rep.slack_simplex, rep.slack_square)
        want = _fraction_slacks(P)
        assert got == want, P
        assert [type(x) for x in got] == [type(x) for x in want], P


@pytest.mark.parametrize("chunk", range(3))
def test_canonical_form_matches_hulled_images(chunk):
    for P in POLYGONS[chunk::3]:
        got = canonical_form(P)
        assert got == _ref_canonical(P), P
        assert ConvexPolygon(got.vertices) == got
        _assert_int_when_integral(*(c for v in got.vertices for c in (v.x, v.y)))


def test_lattice_canonical_form_matches_hulled_images(corpus3):
    for P in corpus3[::7]:
        assert canonical_form(P) == _ref_canonical(P)
