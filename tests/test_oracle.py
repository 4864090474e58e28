import contextlib
import dataclasses
import functools
import importlib
import importlib.util
import io
import itertools
import pathlib
import pickle
import random
import sys
import types
from fractions import Fraction
from math import gcd

import pytest

import latticesize.cli
import latticesize.geometry
import latticesize.reduction
import latticesize.size
from latticesize import (
    SIMPLEX,
    SQUARE,
    ConvexPolygon,
    DegenerateInputError,
    EqualityFamily,
    InvalidInputError,
    LatticeBasis,
    Point,
    UnimodularMap,
    apply_map,
    brute_force_lattice_size,
    canonical_form,
    check_bounds,
    drop_vertex,
    enumerate_convex,
    gauss_reduce,
    hull,
    invariants,
    is_minimal,
    lattice_equivalent,
    lattice_points,
    ls_square,
    thin_triangle,
    verify_classification,
    width,
    width_extremal_triangle,
)
from latticesize import oracle
from latticesize.enumeration import map_polygons
from latticesize.geometry import _scaled, _unscaled
from latticesize.oracle import _cycle, candidate_directions
from latticesize.size import _MEMO
from conftest import (
    MEMOS,
    random_lattice_polygon,
    random_rational_polygon,
    random_shear,
    random_unimodular,
)
from test_rational import POLYGONS as RATIONAL_POLYGONS

tri = hull([(0, 0), (1, 2), (2, 1)])
pentagon = hull([(4, 0), (5, 0), (2, 2), (0, 3), (1, 2)])
quad = hull([(0, 0), (0, 3), (2, 2), (1, 3)])


def reduced_directions(P, cap):
    return candidate_directions(P, cap, gauss_reduce(P))


class TestCandidateDirections:
    def test_short_triangle(self):
        assert reduced_directions(tri, 2) == [(0, 1), (1, -1), (1, 0)]

    def test_unit_square(self):
        square = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert reduced_directions(square, 1) == [(0, 1), (1, 0)]

    def test_zero_cap(self):
        assert reduced_directions(tri, 0) == []

    def test_degenerate_rejected(self):
        seg = hull([(0, 0), (3, 0)])
        with pytest.raises(DegenerateInputError):
            candidate_directions(seg, 2, gauss_reduce(seg))

    def test_negative_cap_rejected(self):
        with pytest.raises(InvalidInputError):
            reduced_directions(tri, -1)

    def test_any_frame(self):
        # the shell-stopping argument holds in every unimodular frame; the
        # reduced one only shortens the scan
        identity = LatticeBasis((1, 0), (0, 1))
        for P in enumerate_convex(3):
            basis = gauss_reduce(P)
            for cap in range(5):
                assert (candidate_directions(P, cap, identity)
                        == candidate_directions(P, cap, basis))

    def test_matches_box_scan(self):
        # an oversized direct scan must find exactly the same directions
        rng = random.Random(67)
        box = [(a, b) for a in range(0, 25) for b in range(-24, 25)
               if (a > 0 or b > 0) and gcd(a, b) == 1]
        for _ in range(30):
            P = random_lattice_polygon(rng)
            cap = invariants(P).ls_square
            found = reduced_directions(P, cap)
            assert all(max(abs(a), abs(b)) <= 12 for a, b in found)
            assert set(found) == {u for u in box if width(P, u) <= cap}


def shell_directions(P, cap, basis):
    """The square-shell walk that candidate_directions replaced, kept as
    its reference: shells max(|a|, |b|) = r of the frame are scanned
    outward, both signs of each direction measured, until the narrowest
    point of a shell clears cap by the larger axis width."""
    dots1 = [basis.u1[0] * v.x + basis.u1[1] * v.y for v in P.vertices]
    dots2 = [basis.u2[0] * v.x + basis.u2[1] * v.y for v in P.vertices]

    def reduced_width(a, b):
        dots = [a * p + b * q for p, q in zip(dots1, dots2)]
        return max(dots) - min(dots)

    slack = max(reduced_width(1, 0), reduced_width(0, 1))
    found = []
    r = 0
    while True:
        r += 1
        shell_min = None
        for a in range(-r, r + 1):
            for b in (range(-r, r + 1) if abs(a) == r else (-r, r)):
                w = reduced_width(a, b)
                if shell_min is None or w < shell_min:
                    shell_min = w
                if w <= cap and gcd(a, b) == 1:
                    x = a * basis.u1[0] + b * basis.u2[0]
                    y = a * basis.u1[1] + b * basis.u2[1]
                    if x < 0 or (x == 0 and y < 0):
                        x, y = -x, -y
                    found.append((x, y))
        if shell_min > cap + slack:
            return sorted(set(found))


def frame_column(u, basis):
    """|a| for the frame coordinates (a, b) of u = a*u1 + b*u2."""
    (p, q), (r, s) = basis.u1, basis.u2
    return abs((u[0] * s - u[1] * r) * (p * s - q * r))


def breakpoint_bound(P, cap, basis):
    """max over vertex pairs with dy > 0 of floor(cap*dy / width(dy, -dx)),
    in frame coordinates."""
    (p, q), (r, s) = basis.u1, basis.u2
    xs = [p * v.x + q * v.y for v in P.vertices]
    ys = [r * v.x + s * v.y for v in P.vertices]
    bound = 0
    for (x1, y1), (x2, y2) in itertools.combinations(zip(xs, ys), 2):
        dx, dy = (x1 - x2, y1 - y2) if y1 > y2 else (x2 - x1, y2 - y1)
        if dy > 0:
            spread = [dy * x - dx * y for x, y in zip(xs, ys)]
            bound = max(bound, cap * dy // (max(spread) - min(spread)))
    return bound


class TestDirectionScan:
    """candidate_directions against the shell walk it replaced."""

    IDENTITY = LatticeBasis((1, 0), (0, 1))

    @pytest.mark.parametrize("chunk", range(4))
    def test_matches_shell_walk_small_grid(self, corpus3, chunk):
        for P in corpus3[chunk::4]:
            for basis in (self.IDENTITY, gauss_reduce(P)):
                for cap in range(7):
                    assert (candidate_directions(P, cap, basis)
                            == shell_directions(P, cap, basis)), (P, cap, basis)

    def test_matches_shell_walk_rational(self):
        # rational polygons as their integer multiples D*P, which the
        # oracle scans at the scaled caps of their own reports
        rng = random.Random(97)
        for _ in range(200):
            D, S = _scaled(random_rational_polygon(rng, span=4, max_den=12))
            rep = invariants(S)
            for cap in (rep.width, rep.ls_square, rep.ls_simplex, rep.ls_simplex + D):
                assert (candidate_directions(S, cap, rep.basis)
                        == shell_directions(S, cap, rep.basis)), (S, cap)

    def test_matches_shell_walk_sheared(self):
        rng = random.Random(101)
        for _ in range(100):
            P = random_shear(rng, random_lattice_polygon(rng))
            rep = invariants(P)
            for cap in (rep.width, rep.ls_square, rep.ls_simplex):
                assert (candidate_directions(P, cap, rep.basis)
                        == shell_directions(P, cap, rep.basis)), (P, cap)

    def test_no_hit_past_breakpoint_bound(self, corpus3):
        on_bound = 0
        for P in corpus3[::3]:
            for basis in (self.IDENTITY, gauss_reduce(P)):
                for cap in range(1, 7):
                    bound = breakpoint_bound(P, cap, basis)
                    columns = [frame_column(u, basis)
                               for u in shell_directions(P, cap, basis)]
                    assert all(a <= bound for a in columns), (P, cap, basis)
                    on_bound += bound in columns
        assert on_bound > 0   # the bound is reached, not just safe


class TestSharedScan:
    """The one scan record of a query: its common denominator is _scaled's,
    its square rows are the scan at the square cap, in order, and every
    entry carries its direction's dot row and that row's extremes."""

    @staticmethod
    def check(polygons):
        for P in polygons:
            D, S = _scaled(P)
            rep = invariants(P)
            scan_D, scan, square_rows = oracle._scan(P)
            assert scan_D == D, P
            assert [u for u, *_ in scan] == candidate_directions(
                S, rep.ls_simplex * D, rep.basis), P
            for u, row, lo, hi in scan:
                assert row == [u[0] * v.x + u[1] * v.y for v in S.vertices], P
                assert (lo, hi) == (min(row), max(row)), P
            square = [u for u, *_ in square_rows]
            assert square == candidate_directions(S, rep.ls_square * D, rep.basis), P

    def test_small_grid(self, corpus3):
        self.check(corpus3)

    def test_unimodular_images(self, corpus3):
        rng = random.Random(109)
        self.check([apply_map(random_unimodular(rng), P) for P in corpus3])

    def test_rational(self):
        self.check([P for P in RATIONAL_POLYGONS if P.dim == 2])


def _query(P):
    """The five public calls of one oracle query, in the benchmark's order."""
    return (invariants(P), brute_force_lattice_size(P, SQUARE),
            brute_force_lattice_size(P, SIMPLEX), check_bounds(P), canonical_form(P))


def _record_calls(monkeypatch, owner, name) -> list:
    """Record the first argument of every call of owner.name from here on,
    replaced in every package module that binds it."""
    calls = []
    fn = getattr(owner, name)

    def counted(arg, *rest):
        calls.append(arg)
        return fn(arg, *rest)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "latticesize" and getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, counted)
    return calls


def _count_reductions(monkeypatch) -> list:
    """Record the polygon of every basis reduction from here on: gauss_reduce
    and the memo-free reduction of ls_square and lattice_width both go
    through reduction._reduce."""
    return _record_calls(monkeypatch, latticesize.reduction, "_reduce")


class TestOneReduction:
    """From a cold memo, every public call reduces its polygon once, and so
    does a whole query: its calls share one report, and its searches and
    canonical form one direction scan.  The report scales a rational
    polygon once, and the others read its integers."""

    @pytest.mark.parametrize("query", [
        invariants,
        lambda P: brute_force_lattice_size(P, SQUARE),
        lambda P: brute_force_lattice_size(P, SIMPLEX),
        canonical_form,
    ], ids=["invariants", "brute-square", "brute-simplex", "canonical"])
    def test_reduces_once(self, monkeypatch, query):
        polygons = _count_reductions(monkeypatch)
        for P in (pentagon, quad):
            query(P)
        assert polygons == [pentagon, quad]

    def test_query_reduces_once(self, monkeypatch):
        polygons = _count_reductions(monkeypatch)
        for P in (pentagon, quad):
            _query(P)
        assert polygons == [pentagon, quad]

    def test_query_scans_once(self, monkeypatch):
        # both searches and the canonical form read one direction scan
        scanned = []
        scan = oracle.candidate_directions

        def counted(P, cap, basis):
            scanned.append(P)
            return scan(P, cap, basis)

        monkeypatch.setattr(oracle, "candidate_directions", counted)
        for P in (pentagon, quad, RATIONAL_POLYGONS[5]):
            assert _query(P)[3].equality_family is None
        assert scanned == [pentagon, quad, _scaled(RATIONAL_POLYGONS[5])[1]]

    def test_rational_query_scales_once(self, monkeypatch):
        # one common denominator and one integer multiple D*P per query
        for memo in MEMOS:
            memo.cache_clear()
        P = hull([(Fraction(1, 2), Fraction(5, 2)), (Fraction(3, 4), Fraction(7, 4)),
                  (Fraction(7, 4), Fraction(3, 2)), (Fraction(13, 4), Fraction(3, 2)),
                  (Fraction(15, 4), Fraction(5, 2)), (Fraction(5, 2), Fraction(13, 4))])
        assert len(P.vertices) == 6
        lcds = _record_calls(monkeypatch, latticesize.geometry, "_lcd")
        scalings = _record_calls(monkeypatch, latticesize.geometry, "_scaled")
        _query(P)
        assert (len(lcds), scalings) == (1, [P])

    def test_tight_query_reduces_each_polygon_once(self, monkeypatch):
        # check_bounds compares a tight P's canonical form with its
        # family's written form, so no family member is reduced
        P = apply_map(UnimodularMap(((1, 3), (0, 1)), (2, -1)), thin_triangle(4))
        polygons = _count_reductions(monkeypatch)
        assert _query(P)[3].equality_family is EqualityFamily.THIN_TRIANGLE
        assert polygons == [P]

    def test_tight_bounds_build_only_their_own_form(self, monkeypatch):
        # a tight lattice polygon and a tight rational width-extremal
        # image: check_bounds builds the canonical form of P and of no
        # family member
        built = []
        canonical = oracle._canonical

        def recorded(P):
            built.append(P)
            return canonical(P)

        monkeypatch.setattr(oracle, "_canonical", recorded)
        m = UnimodularMap(((1, 3), (0, 1)), (2, -1))
        for M, family in ((thin_triangle(4), EqualityFamily.THIN_TRIANGLE),
                          (width_extremal_triangle(4), EqualityFamily.WIDTH_EXTREMAL_TRIANGLE),
                          (width_extremal_triangle(Fraction(3, 2)),
                           EqualityFamily.WIDTH_EXTREMAL_TRIANGLE)):
            P = apply_map(m, M)
            built.clear()
            assert check_bounds(P).equality_family is family
            assert built and set(built) == {P}, M

    def test_sweep_class_reduces_once(self, monkeypatch):
        # the sweep's minimality test and canonical form share one report
        # of each class it builds; the drops is_minimal tests are other
        # polygons
        classes = verify_classification(4).search_classes
        assert classes
        polygons = _count_reductions(monkeypatch)
        for C in classes:
            for memo in MEMOS:
                memo.cache_clear()
            assert is_minimal(C)
            assert canonical_form(C) == C
            assert polygons.count(C) == 1, C


def _typed(value):
    """value with the type of every field, element and number beside it,
    so that 1 and Fraction(1) compare unequal."""
    if dataclasses.is_dataclass(value):
        return type(value), tuple(_typed(getattr(value, f.name))
                                  for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return type(value), tuple(_typed(v) for v in value)
    return type(value), value


class TestMemo:
    """The memos of size and oracle hold the last _MEMO polygons; a hit
    must return what a cold computation would, and nothing the benchmark
    tracer wraps may be a memo."""

    @staticmethod
    def calls(P):
        calls = [invariants]
        if P.dim == 2:
            calls += [functools.partial(brute_force_lattice_size, target=SQUARE),
                      functools.partial(brute_force_lattice_size, target=SIMPLEX),
                      check_bounds]
        return calls + [canonical_form]

    def check(self, polygons):
        for P in polygons:
            warm = [_typed(call(P)) for call in self.calls(P)]
            cold = []
            for call in self.calls(P):
                for memo in MEMOS:
                    memo.cache_clear()
                cold.append(_typed(call(P)))
            assert warm == cold, P

    def test_rational_memoized_equals_cold(self):
        self.check(RATIONAL_POLYGONS)

    def test_sheared_memoized_equals_cold(self):
        rng = random.Random(107)
        self.check([random_shear(rng, random_lattice_polygon(rng)) for _ in range(200)])

    def test_bounded(self):
        for P in enumerate_convex(3, include_degenerate=True):
            invariants(P)
            canonical_form(P)
            if P.dim == 2:
                brute_force_lattice_size(P, SQUARE)
                check_bounds(P)
            assert all(memo.cache_info().currsize <= _MEMO for memo in MEMOS), P
        assert all(memo.cache_info().currsize == _MEMO for memo in MEMOS)

    def test_equal_polygons_share_one_entry(self):
        # an equal polygon hashes alike and hits the same memo entry, however
        # it was built, its hash cached or not, in this process or a worker
        rng = random.Random(109)
        sources = RATIONAL_POLYGONS[:30] + [random_lattice_polygon(rng) for _ in range(10)]
        pooled = list(map_polygons(canonical_form, sources, 2))
        swap = ((0, 1), (1, 0))
        for P, pooled_form in zip(sources, pooled):
            C = canonical_form(P)
            hash(C)
            moved = apply_map(UnimodularMap(swap, (3, -2)), P)
            for group in ([P, hull(P.vertices), hull((v.x, v.y) for v in P.vertices),
                           ConvexPolygon(P.vertices), pickle.loads(pickle.dumps(P)),
                           apply_map(UnimodularMap(swap, (2, -3)), moved)],
                          [C, canonical_form(apply_map(random_unimodular(rng), P)),
                           ConvexPolygon(C.vertices), pickle.loads(pickle.dumps(C)),
                           pooled_form]):
                assert all(X == group[0] and hash(X) == hash(group[0]) for X in group), P
                for memo in MEMOS:
                    memo.cache_clear()
                for X in group:
                    invariants(X)
                info = latticesize.size._report.cache_info()
                assert (info.currsize, info.hits) == (1, len(group) - 1), P

    def test_query_hashes_fractions_once(self, monkeypatch):
        # a query looks P up in the memos several times; each lookup must
        # reuse P's cached hash rather than hash its Fractions again
        pairs = [(Fraction(1, 3), Fraction(1, 2)), (Fraction(7, 3), Fraction(1, 4)),
                 (Fraction(11, 3), Fraction(3, 2)), (Fraction(10, 3), Fraction(7, 2)),
                 (Fraction(4, 3), Fraction(15, 4)), (Fraction(1, 4), Fraction(5, 2))]
        calls = 0
        fraction_hash = Fraction.__hash__

        def counting(self):
            nonlocal calls
            calls += 1
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        P = hull(pairs)
        invariants(P)
        brute_force_lattice_size(P, SQUARE)
        brute_force_lattice_size(P, SIMPLEX)
        check_bounds(P)
        canonical_form(P)
        assert len(P.vertices) == 6 and not P.is_lattice
        assert 0 < calls <= 2 * len(P.vertices)

    def test_traced_functions_stay_plain(self):
        # the tracer's self-check reads fn.__code__, which a memo lacks
        tracer = _bench_tracer()
        for module, name in tracer.TRACED:
            fn = getattr(importlib.import_module(f"latticesize.{module}"), name)
            assert isinstance(fn, types.FunctionType), f"{module}.{name}"

    def test_tracer_self_check(self):
        # every traced function is exercised by a small corpus check, and
        # each call runs through the module attribute the tracer wraps
        tracer = _bench_tracer()

        def work():
            # self_check runs work twice; memo hits on the second run
            # would count fewer calls than the first
            for memo in MEMOS:
                memo.cache_clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert latticesize.cli.main(["corpus-check", "--n", "2", "--jobs", "1"]) == 0

        assert tracer.self_check(work) == []


def _reference_is_minimal(P):
    """is_minimal with the drop of every vertex tested."""
    if len(P.vertices) == 1:
        return True
    h = ls_square(P)
    return all(ls_square(drop_vertex(P, v)) < h for v in P.vertices)


def _bench_tracer():
    """bench/tracer.py, loaded from the source checkout."""
    path = pathlib.Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


class TestBruteForce:
    def test_pentagon(self):
        assert brute_force_lattice_size(pentagon, SQUARE) == 2
        assert brute_force_lattice_size(pentagon, SIMPLEX) == 3

    def test_quad(self):
        assert brute_force_lattice_size(quad, SQUARE) == 3
        assert brute_force_lattice_size(quad, SIMPLEX) == 3

    def test_thin_triangle(self):
        thin = hull([(0, 0), (4, 0), (0, 1)])
        assert brute_force_lattice_size(thin, SQUARE) == 4
        assert brute_force_lattice_size(thin, SIMPLEX) == 4

    def test_long_thin_triangle(self):
        # the scan holds l + 2 directions, l + 1 of width l; read in width
        # order, the searches stop after the first pair of width l rather
        # than reading all of the scan's pairs
        P = thin_triangle(20_000)
        for Q in (P, apply_map(UnimodularMap(((1, 7919), (0, 1))), P)):
            rep = invariants(Q)
            assert brute_force_lattice_size(Q, SQUARE) == rep.ls_square == 20_000
            assert brute_force_lattice_size(Q, SIMPLEX) == rep.ls_simplex == 20_000

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            brute_force_lattice_size(hull([(0, 0), (3, 0)]), SQUARE)

    def test_unknown_target_rejected(self):
        with pytest.raises(InvalidInputError):
            brute_force_lattice_size(tri, "hexagon")

    def test_agrees_with_fast_path_small_grid(self):
        for P in enumerate_convex(2):
            rep = invariants(P)
            assert brute_force_lattice_size(P, SQUARE) == rep.ls_square
            assert brute_force_lattice_size(P, SIMPLEX) == rep.ls_simplex


def _normalized_images(P, side, basis):
    """Every image the canonical form chooses from, built in full: the
    generator whose minimum canonical_form took before _least_image."""
    dirs = candidate_directions(P, side, basis)
    dots = {u: [u[0] * v.x + u[1] * v.y for v in P.vertices] for u in dirs}
    for u in dirs:
        for v in dirs:
            det = u[0] * v[1] - u[1] * v[0]
            if det not in (1, -1):
                continue
            du, dv = dots[u], dots[v]
            for sx in (1, -1):
                xs = [sx * a for a in du]
                mx = min(xs)
                for sy in (1, -1):
                    ys = [sy * b for b in dv]
                    my = min(ys)
                    yield _cycle([(x - mx, y - my) for x, y in zip(xs, ys)],
                                 det * sx * sy < 0)


def _least_built(P):
    """canonical_form(P) as the minimum of every image, built."""
    D, S = _scaled(P)
    basis = gauss_reduce(S)
    least = min(_normalized_images(S, width(S, basis.u2), basis))
    return tuple(Point(_unscaled(x, D), _unscaled(y, D)) for x, y in least)


def _recording_builds(record):
    """A stand-in for oracle._cycle that appends each image it builds to
    record."""
    def recording(image, flipped):
        record.append(image)
        return _cycle(image, flipped)
    return recording


def _audit_least_image(n):
    """canonical_form(P) against the minimum of every image, built
    (_least_built), on every full-dimensional polygon of
    enumerate_convex(n) and on each of them scaled by 1/2 and by 1/3:
    (polygons, images _least_image built, disagreements).  Outside the
    tests, run it as
    PYTHONPATH=src:tests python -c "import test_oracle as t; print(t._audit_least_image(4))"
    """
    count, built, disagreements = 0, [], 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_cycle", _recording_builds(built))
        for P in enumerate_convex(n):
            if P.dim != 2:
                continue
            for s in (1, Fraction(1, 2), Fraction(1, 3)):
                Q = hull((v.x * s, v.y * s) for v in P.vertices)
                count += 1
                disagreements += canonical_form(Q).vertices != _least_built(Q)
    return count, len(built), disagreements


# a strictly convex polygon meets a supporting line in a vertex or an
# edge: these have a vertical edge on their left or right, and their
# mirror images one on the other side.  The first two lose their forms
# when either y sign takes the wrong vertex of a two-vertex face
TWO_VERTEX_FACES = {
    "left": hull([(0, 0), (2, 2), (0, 3)]),
    "right": hull([(0, 0), (1, 0), (2, 1), (2, 3)]),
    "left-mirrored": hull([(0, 0), (-2, 2), (0, 3)]),
    "right-mirrored": hull([(0, 0), (-1, 0), (-2, 1), (-2, 3)]),
}


class TestLeastImage:
    """canonical_form builds only the images that tie on the least first
    two vertices; it must pick the minimum of every image, built."""

    @staticmethod
    def check(P):
        assert canonical_form(P).vertices == _least_built(P), P

    def test_grid(self):
        for P in enumerate_convex(4):
            self.check(P)

    def test_rational(self):
        for P in RATIONAL_POLYGONS:
            if P.dim == 2:
                self.check(P)

    @pytest.mark.parametrize("P", TWO_VERTEX_FACES.values(), ids=TWO_VERTEX_FACES.keys())
    def test_two_vertex_face(self, P):
        self.check(P)

    @pytest.mark.parametrize("P", [
        hull([(0, 0), (Fraction(10, 3), 0), (0, Fraction(1, 3))]), thin_triangle(10),
    ], ids=["rational", "lattice"])
    def test_thin_triangle_builds_ties_only(self, monkeypatch, P):
        # 12 square rows give 42 unimodular row pairs and 168 signed
        # images; only those tying on the least first two vertices are built
        built = []
        monkeypatch.setattr(oracle, "_cycle", _recording_builds(built))
        self.check(P)
        assert len(oracle._scan(P)[2]) == 12
        assert 1 <= len(built) <= 6

    def test_audit_small_grid(self):
        assert _audit_least_image(2) == (504, 3528, 0)


class TestCanonicalForm:
    def test_idempotent(self):
        rng = random.Random(71)
        for _ in range(25):
            C = canonical_form(random_lattice_polygon(rng))
            assert canonical_form(C) == C

    def test_corner_square_and_minima(self):
        rng = random.Random(73)
        for _ in range(25):
            P = random_lattice_polygon(rng)
            C = canonical_form(P)
            side = ls_square(P)
            assert min(v.x for v in C.vertices) == 0
            assert min(v.y for v in C.vertices) == 0
            assert max(v.x for v in C.vertices) <= side
            assert max(v.y for v in C.vertices) <= side

    def test_swap_and_translate(self):
        swapped = hull([(v.y + 5, v.x - 3) for v in tri.vertices])
        assert canonical_form(swapped) == canonical_form(tri)

    def test_unimodular_invariance(self):
        rng = random.Random(79)
        for _ in range(50):
            P = random_lattice_polygon(rng)
            Q = apply_map(random_unimodular(rng), P)
            assert canonical_form(P) == canonical_form(Q)

    def test_segment(self):
        assert canonical_form(hull([(2, 2), (5, 5)])) == \
            hull([(0, 0), (0, 3)])

    def test_point(self):
        assert canonical_form(hull([(9, -4)])) == hull([(0, 0)])


class TestLatticeEquivalent:
    def test_reflexive_under_maps(self):
        rng = random.Random(83)
        for _ in range(50):
            P = random_lattice_polygon(rng)
            assert lattice_equivalent(P, apply_map(random_unimodular(rng), P))

    def test_vertex_count_mismatch(self):
        square = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert not lattice_equivalent(tri, square)

    def test_area_mismatch(self):
        small = hull([(0, 0), (1, 0), (0, 1)])
        big = hull([(0, 0), (2, 0), (0, 1)])
        assert not lattice_equivalent(small, big)

    def test_same_invariants_not_equivalent(self):
        # equal width and sizes, unequal areas
        wide = hull([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert not lattice_equivalent(tri, wide)


class TestIsMinimal:
    def test_examples(self):
        assert is_minimal(hull([(0, 0), (3, 0)]))
        assert is_minimal(tri)
        assert not is_minimal(hull([(0, 0), (1, 3), (3, 1)]))
        assert is_minimal(hull([(2, 2)]))

    def test_non_lattice_rejected(self):
        from fractions import Fraction
        with pytest.raises(InvalidInputError):
            is_minimal(hull([(0, 0), (Fraction(1, 2), 0), (0, 1)]))

    @staticmethod
    def brute_minimal(P):
        pts = lattice_points(P)
        h = ls_square(P)
        for k in range(1, len(pts)):
            for subset in itertools.combinations(pts, k):
                Q = hull(subset)
                if Q != P and ls_square(Q) >= h:
                    return False
        return True

    def test_matches_subset_search_small_grid(self):
        for P in enumerate_convex(2, include_degenerate=True):
            if len(P.vertices) == 1:
                continue
            assert is_minimal(P) == self.brute_minimal(P)

    def test_matches_subset_search_sampled(self, corpus3):
        rng = random.Random(89)
        lean = [P for P in corpus3 if len(lattice_points(P)) <= 10]
        for P in rng.sample(lean, 40):
            assert is_minimal(P) == self.brute_minimal(P)

    @staticmethod
    def grid_and_images():
        """{0..3}^2 with points and segments, and a seeded unimodular image
        of each member."""
        rng = random.Random(101)
        grid = list(enumerate_convex(3, include_degenerate=True))
        return grid + [apply_map(random_unimodular(rng), P) for P in grid]

    def test_matches_all_drops(self):
        assert all(is_minimal(P) == _reference_is_minimal(P) for P in self.grid_and_images())

    def test_skewed_polygon_scans_its_image(self, monkeypatch):
        """A shear of the unit triangle is decided on its image in
        [0, h]^2: every polygon whose lattice points are listed has an x
        span of at most h, not the 10^6 of the sheared input."""
        seen = []
        scan = latticesize.geometry.lattice_points

        def recording(P):
            seen.append(P)
            return scan(P)

        monkeypatch.setattr(latticesize.geometry, "lattice_points", recording)
        P = hull([(0, 0), (1, 0), (10**6, 1)])
        assert not is_minimal(P)
        h = ls_square(P)
        assert seen and all(width(Q, (1, 0)) <= h for Q in seen)
