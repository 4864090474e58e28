import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticesize import (
    ConvexPolygon,
    InvalidInputError,
    Point,
    UnimodularMap,
    apply_map,
    area,
    contained_in_dilate,
    drop_vertex,
    enumerate_convex,
    hull,
    lattice_points,
    parse_polygon_text,
    polygon_to_text,
    width,
)
from latticesize.geometry import _cross
from conftest import random_lattice_polygon, random_rational_polygon, random_unimodular

coords = st.integers(min_value=-6, max_value=6)
points = st.tuples(coords, coords)
directions = points.filter(lambda u: u != (0, 0))


def polygons(min_points=3, max_points=8):
    return st.lists(points, min_size=min_points, max_size=max_points).map(hull)


class TestHull:
    def test_interior_point_removed(self):
        P = hull([(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))])
        assert len(P.vertices) == 4
        assert P.dim == 2

    def test_collinear_gives_segment(self):
        P = hull([(0, 0), (2, 0), (1, 0)])
        assert P.vertices == (Point(0, 0), Point(2, 0))
        assert P.dim == 1

    def test_single_point(self):
        P = hull([(3, 5), (3, 5)])
        assert P.vertices == (Point(3, 5),)
        assert P.dim == 0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            hull([])

    def test_starts_at_lex_min(self):
        P = hull([(2, 2), (0, 1), (1, 0), (2, 0), (0, 2)])
        assert P.vertices[0] == min(P.vertices)

    def test_hull_of_vertices_is_identity(self):
        P = hull([(0, 0), (3, 1), (2, 3), (0, 2)])
        assert hull(P.vertices) == P

    @given(polygons())
    def test_vertices_pass_validation(self, P):
        # reconstructing through the validating constructor must succeed
        assert ConvexPolygon(P.vertices) == P


def _reference_hull(points) -> ConvexPolygon:
    """The earlier hull, kept as the reference for hull: the monotone
    chain on the normalised Points themselves, in Fraction arithmetic."""
    pts = sorted({p if isinstance(p, Point) else Point(p[0], p[1]) for p in points})
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


def _reference_hull_corpus():
    """Seeded point sets for hull: random points with denominators 1 to
    12, the same points given as ints, Fractions and floats, collinear
    runs, vertical and horizontal segments and single points."""
    rng = random.Random(31)
    for den in range(1, 13):
        for k in range(1, 9):
            for _ in range(6):
                yield [(Fraction(rng.randint(-4 * den, 4 * den), den),
                        Fraction(rng.randint(-4 * den, 4 * den), rng.choice((1, den))))
                       for _ in range(k)]
    # one value in four spellings, so dedup sees equal points of different types
    spellings = ((1, Fraction(2, 2), 1.0), (0.5, Fraction(1, 2), Fraction(2, 4)))
    for _ in range(100):
        pts = [(rng.choice(rng.choice(spellings)), rng.choice(rng.choice(spellings)))
               for _ in range(rng.randint(1, 6))]
        yield pts + [(rng.randint(-1, 2), Fraction(rng.randint(-3, 3), 3))]
    for den in (1, 2, 3, 5, 12):
        step = Fraction(rng.randint(1, 5), den)
        for direction in ((1, 0), (0, 1), (1, 1), (2, -3)):
            run = [(direction[0] * i * step, direction[1] * i * step) for i in range(-3, 5)]
            rng.shuffle(run)
            yield run                                        # a collinear run: a segment
            yield run + [(Fraction(1, den), Fraction(7, 2))]    # and with a point off it
        yield [(Fraction(5, den), Fraction(y, den)) for y in (4, -1, 9, 4)]   # vertical
        yield [(Fraction(x, den), Fraction(-2, den)) for x in (3, 8, -6)]     # horizontal
        yield [(Fraction(7, den), Fraction(-3, 2 * den))] * 3                 # one point
        yield [(Fraction(2 * den, den), 0.25)]


class TestHullReference:
    def test_same_vertices_and_types_as_reference(self):
        cases = list(_reference_hull_corpus())
        assert len(cases) == 736
        for pts in cases:
            got, want = hull(pts), _reference_hull(pts)
            assert got.vertices == want.vertices, pts
            assert [type(c) for v in got.vertices for c in v] == \
                [type(c) for v in want.vertices for c in v], pts

    def test_cross_on_points_and_pairs(self):
        o, a, b = (Fraction(1, 2), 0), (2, Fraction(1, 3)), (1, 1)
        assert _cross(Point(*o), Point(*a), Point(*b)) == _cross(o, a, b) == Fraction(4, 3)
        assert _cross((0, 0), (2, 0), (4, 0)) == 0
        assert _cross((0, 0), (0, 1), (1, 0)) == -1


class TestPolygonValidation:
    def test_no_vertex(self):
        with pytest.raises(InvalidInputError, match="at least one vertex"):
            ConvexPolygon(())

    def test_repeated_vertex(self):
        with pytest.raises(InvalidInputError):
            ConvexPolygon((Point(0, 0), Point(1, 0), Point(0, 0)))

    def test_clockwise_rejected(self):
        with pytest.raises(InvalidInputError):
            ConvexPolygon((Point(0, 0), Point(0, 1), Point(1, 0)))

    def test_collinear_rejected(self):
        with pytest.raises(InvalidInputError):
            ConvexPolygon((Point(0, 0), Point(1, 0), Point(2, 0)))

    def test_wrong_start_rejected(self):
        with pytest.raises(InvalidInputError):
            ConvexPolygon((Point(1, 0), Point(1, 1), Point(0, 0)))

    def test_double_winding_rejected(self):
        # five-point star: every turn is a left turn but the cycle wraps twice
        star = ((-1, 2), (2, 0), (1, 4), (0, 0), (3, 2))
        with pytest.raises(InvalidInputError):
            ConvexPolygon(tuple(Point(x, y) for x, y in star))

    def test_segment_order(self):
        with pytest.raises(InvalidInputError):
            ConvexPolygon((Point(1, 0), Point(0, 0)))


def _reference_validate(vertices) -> None:
    """The earlier hand-written validator of ConvexPolygon, kept verbatim
    as the reference for which vertex tuples it accepts, but for its cross
    product, which is geometry's."""
    def _edge_group(dx, dy):
        # 0 for directions pointing lexicographically forward, 1 for backward
        return 0 if dx > 0 or (dx == 0 and dy > 0) else 1

    vs = tuple(vertices)
    n = len(vs)
    if n == 0:
        raise InvalidInputError("polygon needs at least one vertex")
    if not all(isinstance(v, Point) for v in vs):
        raise InvalidInputError("vertices must be Points")
    if n >= 2 and len(set(vs)) != n:
        raise InvalidInputError("repeated vertex")
    if n == 2 and vs[1] < vs[0]:
        raise InvalidInputError("segment endpoints out of canonical order")
    if n >= 3:
        if min(vs) != vs[0]:
            raise InvalidInputError("vertex list must start at its lexicographic minimum")
        seen_backward = False
        for i in range(n):
            a, b, c = vs[i], vs[(i + 1) % n], vs[(i + 2) % n]
            if _cross(a, b, c) <= 0:
                raise InvalidInputError("vertices must be strictly convex counterclockwise")
            g = _edge_group(b.x - a.x, b.y - a.y)
            if g == 0 and seen_backward:
                # a second angular wrap would mean the cycle winds twice
                raise InvalidInputError("vertex cycle is not a simple polygon")
            seen_backward = seen_backward or g == 1


def _validation_corpus():
    """Seeded vertex tuples, valid and invalid: every polygon of
    {0..2}^2 (points and segments included) with each rotation, its
    reversal, a repeated first vertex and one swapped pair; random tuples
    of 1 to 7 rational Points with their hulls and their star cycles
    (every second vertex, which winds twice for odd n >= 5); and the
    five-point star, the empty tuple and a tuple of plain pairs."""
    rng = random.Random(13)
    for P in enumerate_convex(2, include_degenerate=True):
        vs = P.vertices
        for k in range(len(vs)):
            yield vs[k:] + vs[:k]
        yield vs[::-1]
        yield vs[:1] + vs
        if len(vs) >= 2:
            i = rng.randrange(len(vs) - 1)
            yield vs[:i] + (vs[i + 1], vs[i]) + vs[i + 2:]
    for _ in range(2500):
        vs = tuple(Point(Fraction(rng.randint(-4, 4), d), Fraction(rng.randint(-4, 4), d))
                   for d in (rng.randint(1, 3) for _ in range(rng.randint(1, 7))))
        yield vs
        hv = hull(vs).vertices
        yield hv
        yield hv[::2] + hv[1::2]
    yield tuple(Point(x, y) for x, y in ((-1, 2), (2, 0), (1, 4), (0, 0), (3, 2)))
    yield ()
    yield ((0, 0), (1, 0), (0, 1))


def _accepts(validate, vs) -> bool:
    try:
        validate(vs)
    except InvalidInputError:
        return False
    return True


class TestValidationReference:
    def test_same_decisions_as_reference(self):
        cases = list(_validation_corpus())
        want = [_accepts(_reference_validate, vs) for vs in cases]
        got = [_accepts(ConvexPolygon, vs) for vs in cases]
        assert got == want
        assert len(cases) == 8834 and sum(want) == 4065

    def test_rejection_shows_the_hull(self):
        with pytest.raises(InvalidInputError, match=r"\(0, 0\), \(1, 0\), \(0, 1\)"):
            ConvexPolygon((Point(0, 0), Point(0, 1), Point(1, 0)))


class TestPoint:
    def test_is_a_normalised_pair(self):
        p = Point(1, 2)
        assert p == (1, 2) and hash(p) == hash((1, 2))
        x, y = p
        assert (x, y) == (1, 2)
        assert sorted([Point(1, 0), Point(0, 5), Point(0, -1)]) == \
            [Point(0, -1), Point(0, 5), Point(1, 0)]
        assert repr(p) == "Point(x=1, y=2)"
        with pytest.raises(AttributeError):
            p.x = 3
        for q in (Point(Fraction(4, 2), 1), Point._make((Fraction(4, 2), 1)),
                  Point(1, 2)._replace(x=Fraction(4, 2))):
            assert q.x == 2 and type(q.x) is int
        # equal to its pair, yet a pair is still not a vertex
        with pytest.raises(InvalidInputError):
            ConvexPolygon(((0, 0), (1, 0), (0, 1)))

    def test_bool_coordinates_become_ints(self):
        P = hull([(True, False), (3, 0), (0, 2)])
        assert all(type(v.x) is int and type(v.y) is int for v in P.vertices)
        assert polygon_to_text(P) == "0 2\n1 0\n3 0\n"


class TestPickle:
    def test_point_round_trip(self):
        for p in (Point(3, -4), Point(Fraction(1, 2), 7), Point(-2, Fraction(-5, 3))):
            q = pickle.loads(pickle.dumps(p))
            assert q == p
            assert (type(q.x), type(q.y)) == (type(p.x), type(p.y))

    def test_polygon_round_trip(self):
        P = hull([(0, 0), (Fraction(5, 2), 1), (2, Fraction(7, 3)), (0, 3)])
        Q = pickle.loads(pickle.dumps(P))
        assert Q == P
        assert [(type(v.x), type(v.y)) for v in Q.vertices] == \
            [(type(v.x), type(v.y)) for v in P.vertices]
        # the integer fast path of lattice_points builds its Points directly
        pts = lattice_points(P)
        assert pickle.loads(pickle.dumps(pts)) == pts


class TestArea:
    def test_triangle(self):
        assert area(hull([(0, 0), (1, 2), (2, 1)])) == Fraction(3, 2)

    def test_unit_square(self):
        assert area(hull([(0, 0), (1, 0), (1, 1), (0, 1)])) == 1

    def test_quadrilateral(self):
        assert area(hull([(0, 0), (0, 3), (2, 2), (1, 3)])) == Fraction(7, 2)

    def test_degenerate(self):
        assert area(hull([(0, 0), (2, 0)])) == 0
        assert area(hull([(1, 1)])) == 0

    @given(polygons())
    def test_nonnegative_rational(self, P):
        a = area(P)
        assert isinstance(a, Fraction)
        assert a >= 0


class TestWidth:
    quad = hull([(0, 0), (0, 3), (2, 2), (1, 3)])

    def test_known_directions(self):
        assert width(self.quad, (1, 0)) == 2
        assert width(self.quad, (0, 1)) == 3
        assert width(self.quad, (1, 1)) == 4
        assert width(self.quad, (1, -1)) == 3

    def test_zero_direction_rejected(self):
        with pytest.raises(InvalidInputError):
            width(self.quad, (0, 0))

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidInputError):
            width(self.quad, (Fraction(1, 2), 1))
        with pytest.raises(InvalidInputError, match="integer coordinates"):
            width(hull([(0, 0), (3, 0), (0, 2)]), (True, False))

    def test_translation_invariance(self):
        moved = hull((v.x + 5, v.y + 7) for v in self.quad.vertices)
        assert width(moved, (1, 0)) == width(self.quad, (1, 0))

    @given(polygons(min_points=1), directions, st.integers(1, 5))
    def test_homogeneous(self, P, u, k):
        assert width(P, (k * u[0], k * u[1])) == k * width(P, u)

    @given(polygons(min_points=1), directions, directions)
    def test_subadditive(self, P, u, v):
        s = (u[0] + v[0], u[1] + v[1])
        if s == (0, 0):
            return
        assert width(P, s) <= width(P, u) + width(P, v)


class TestUnimodularMap:
    def test_det_validated(self):
        with pytest.raises(InvalidInputError):
            UnimodularMap(((1, 0), (0, 2)))
        with pytest.raises(InvalidInputError):
            UnimodularMap(((Fraction(1, 2), 0), (0, 2)))
        with pytest.raises(InvalidInputError, match="matrix entries must be integers"):
            UnimodularMap(((True, 0), (0, True)))

    def test_rational_translation_flagged(self):
        phi = UnimodularMap(((1, 0), (0, 1)), (Fraction(1, 2), 0))
        assert phi.translation == (Fraction(1, 2), 0)
        assert type(phi.translation[1]) is int


class TestApplyMap:
    def test_known_image(self):
        P = hull([(4, 0), (5, 0), (2, 2), (0, 3), (1, 2)])
        phi = UnimodularMap(((1, 1), (-1, -2)), (-3, 6))
        assert apply_map(phi, P) == hull([(1, 2), (2, 1), (1, 0), (0, 0), (0, 1)])

    def test_identity(self):
        P = hull([(0, 0), (2, 1), (1, 2)])
        assert apply_map(UnimodularMap(((1, 0), (0, 1))), P) == P

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(50):
            P = random_lattice_polygon(rng)
            phi = random_unimodular(rng)
            # x -> M^-1 (x - t), with M^-1 = det * adj(M) for det = +-1
            (a, b), (c, d) = phi.matrix
            det = a * d - b * c
            tx, ty = phi.translation
            m = ((d * det, -b * det), (-c * det, a * det))
            inverse = UnimodularMap(m, (-(m[0][0] * tx + m[0][1] * ty),
                                        -(m[1][0] * tx + m[1][1] * ty)))
            assert apply_map(inverse, apply_map(phi, P)) == P

    def test_pullback_and_area(self):
        rng = random.Random(13)
        for _ in range(100):
            P = random_lattice_polygon(rng)
            phi = random_unimodular(rng)
            u = (rng.randint(-5, 5), rng.randint(-5, 5))
            if u == (0, 0):
                u = (1, 0)
            Q = apply_map(phi, P)
            (a, b), (c, d) = phi.matrix
            pulled = (a * u[0] + c * u[1], b * u[0] + d * u[1])
            assert width(Q, u) == width(P, pulled)
            assert area(Q) == area(P)

    @staticmethod
    def check(phi, P):
        # apply_map orders the mapped vertex cycle without a hull; it must
        # give what the hull of the mapped vertices gives, types included
        got, want = apply_map(phi, P), hull(phi.apply_point(v) for v in P.vertices)
        assert got == want, (phi, P)
        assert [type(c) for v in got.vertices for c in v] == \
            [type(c) for v in want.vertices for c in v], (phi, P)

    def test_both_determinants(self):
        rng = random.Random(19)
        dets = set()
        for P in enumerate_convex(3, include_degenerate=True):
            phi = random_unimodular(rng)
            (a, b), (c, d) = phi.matrix
            dets.add(a * d - b * c)
            self.check(phi, P)
        assert dets == {1, -1}

    def test_rational_translations(self):
        rng = random.Random(23)
        for i in range(200):
            P = random_lattice_polygon(rng) if i % 2 else random_rational_polygon(rng)
            t = (Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                 Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
            self.check(UnimodularMap(random_unimodular(rng).matrix, t), P)

    def test_points_and_segments(self):
        rng = random.Random(29)
        for _ in range(100):
            ends = [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-9, 9))
                    for _ in range(rng.randint(1, 2))]
            self.check(random_unimodular(rng), hull(ends))


class TestLatticePoints:
    def test_triangle(self):
        pts = lattice_points(hull([(0, 0), (2, 0), (0, 2)]))
        assert pts == [Point(0, 0), Point(0, 1), Point(0, 2),
                       Point(1, 0), Point(1, 1), Point(2, 0)]

    def test_fractional_triangle_empty(self):
        P = hull([(Fraction(1, 3), Fraction(1, 3)),
                  (Fraction(2, 3), Fraction(1, 3)),
                  (Fraction(1, 2), Fraction(2, 3))])
        assert lattice_points(P) == []

    def test_offset_rational_box(self):
        P = hull([(Fraction(1, 2), Fraction(1, 2)),
                  (Fraction(3, 2), Fraction(1, 2)),
                  (Fraction(3, 2), Fraction(3, 2)),
                  (Fraction(1, 2), Fraction(3, 2))])
        assert lattice_points(P) == [Point(1, 1)]

    def test_segment_and_point(self):
        assert lattice_points(hull([(0, 0), (3, 0)])) == [
            Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)]
        assert lattice_points(hull([(0, 0), (2, 1)])) == [Point(0, 0), Point(2, 1)]
        assert lattice_points(hull([(Fraction(1, 2), 0)])) == []

    def test_pick_formula(self):
        # interior + boundary/2 - 1 must reproduce the shoelace area
        rng = random.Random(17)
        for _ in range(60):
            P = random_lattice_polygon(rng, span=5)
            vs = P.vertices
            boundary = sum(
                math.gcd(abs(vs[i].x - vs[(i + 1) % len(vs)].x),
                         abs(vs[i].y - vs[(i + 1) % len(vs)].y))
                for i in range(len(vs)))
            total = len(lattice_points(P))
            interior = total - boundary
            assert area(P) == interior + Fraction(boundary, 2) - 1


class TestDrop:
    def test_known_drop(self):
        P = hull([(0, 0), (2, 0), (0, 2)])
        assert drop_vertex(P, Point(2, 0)) == hull([(0, 0), (1, 0), (1, 1), (0, 2)])

    def test_dimension_drop(self):
        P = hull([(0, 0), (1, 0), (0, 1)])
        assert drop_vertex(P, Point(1, 0)) == hull([(0, 0), (0, 1)])

    def test_square_corner(self):
        P = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert drop_vertex(P, Point(1, 1)) == hull([(0, 0), (1, 0), (0, 1)])

    def test_non_vertex_rejected(self):
        P = hull([(0, 0), (2, 0), (0, 2)])
        with pytest.raises(InvalidInputError):
            drop_vertex(P, Point(1, 1))

    def test_non_lattice_rejected(self):
        P = hull([(0, 0), (2, 0), (0, Fraction(1, 2))])
        with pytest.raises(InvalidInputError):
            drop_vertex(P, Point(2, 0))

    def test_only_point_rejected(self):
        with pytest.raises(InvalidInputError, match="only lattice point"):
            drop_vertex(hull([(2, 3)]), (2, 3))

    def test_subset_property(self):
        rng = random.Random(19)
        for _ in range(30):
            P = random_lattice_polygon(rng)
            v = rng.choice(P.vertices)
            Q = drop_vertex(P, v)
            kept = set(lattice_points(Q))
            assert v not in kept
            assert kept == {p for p in lattice_points(P) if p != v}


def _brute_points(P):
    """Bounding-box points on the inner side of every edge, by cross
    products; a segment's points are the collinear ones in its box."""
    vs = [(v.x, v.y) for v in P.vertices]
    xs, ys = [x for x, _ in vs], [y for _, y in vs]
    n = len(vs)
    out = []
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1):
            crosses = [(bx - ax) * (y - ay) - (by - ay) * (x - ax)
                       for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1])]
            if n == 1:
                inside = vs[0] == (x, y)
            elif n == 2:
                inside = crosses[0] == 0
            else:
                inside = min(crosses) >= 0
            if inside:
                out.append((x, y))
    return out


def _tuple_hull(points):
    """Monotone-chain hull of coordinate pairs in the package's vertex
    order: counterclockwise from the lexicographic minimum."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def half(seq):
        chain = []
        for x, y in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                chain.pop()
            chain.append((x, y))
        return chain[:-1]

    return tuple(half(pts) + half(pts[::-1]))


def _pairs(points):
    return [(p.x, p.y) for p in points]


class TestAgainstBruteForce:
    def test_grid_corpus(self):
        # every point set of {0..4}^2 in convex position, points and segments too
        for P in enumerate_convex(4, include_degenerate=True):
            ref = _brute_points(P)
            assert _pairs(lattice_points(P)) == ref
            if len(P.vertices) == 1:
                continue
            for v in P.vertices:
                want = _tuple_hull(p for p in ref if p != (v.x, v.y))
                assert tuple(_pairs(drop_vertex(P, v).vertices)) == want

    def test_rational_polygons(self):
        rng = random.Random(53)
        for _ in range(200):
            P = random_rational_polygon(rng, span=6, max_den=5)
            assert _pairs(lattice_points(P)) == _brute_points(P)
        for k in range(3):
            seg = hull([(Fraction(k, 3), 0), (3, Fraction(2 * k, 3))])
            assert _pairs(lattice_points(seg)) == _brute_points(seg)

        # negative coordinates: the column range and the chain heights
        # are rounded from numerators of either sign
        def coord():
            den = rng.randint(1, 6)
            return Fraction(rng.randint(-10 * den, 10 * den), den)

        for k in [1, 2, 3, 4, 6] * 40:
            P = hull((coord(), coord()) for _ in range(k))
            pts = lattice_points(P)
            assert _pairs(pts) == _brute_points(P), P
            assert all(type(p.x) is int and type(p.y) is int for p in pts)
        # rational boxes, with a vertical edge at both ends; polygons whose
        # x range holds no integer, so no column is scanned; and triangles
        # with a vertical edge at the right end only
        for _ in range(40):
            (x0, x1), (y0, y1, y2) = sorted([coord(), coord()]), sorted([coord() for _ in range(3)])
            k, d = rng.randint(-10, 9), rng.randint(2, 7)
            for P in [hull([(x0, y0), (x1, y0), (x1, y2), (x0, y2)]),
                      hull((Fraction(rng.randint(k * d + 1, k * d + d - 1), d), coord())
                           for _ in range(rng.randint(1, 4))),
                      hull([(x0, y1), (x1, y0), (x1, y2)])]:
                assert _pairs(lattice_points(P)) == _brute_points(P), P
        # single points, rational or not
        for p in [(Fraction(1, 3), Fraction(5, 2)), (Fraction(-7, 4), 2),
                  (-3, Fraction(-1, 2)), (Fraction(-6, 3), 3)]:
            P = hull([p])
            assert _pairs(lattice_points(P)) == _brute_points(P)
        # segments whose lattice points are all interior, or which have none
        half, third = Fraction(1, 2), Fraction(1, 3)
        for ends, want in [
                (((half, 0), (5 * half, 0)), [(1, 0), (2, 0)]),
                (((-5 * third, -5 * third), (7 * third, 7 * third)),
                 [(-1, -1), (0, 0), (1, 1), (2, 2)]),
                (((-half, half / 2), (7 * half, 9 * half / 2)), [(1, 1), (3, 2)]),
                (((2, -half), (2, 5 * half)), [(2, 0), (2, 1), (2, 2)]),
                (((half, -3 * half), (half, 7 * half)), [])]:
            seg = hull(ends)
            assert _pairs(lattice_points(seg)) == _brute_points(seg) == want


class TestContainment:
    image = hull([(1, 2), (2, 1), (1, 0), (0, 0), (0, 1)])

    def test_examples(self):
        assert contained_in_dilate(self.image, 2, "square")
        assert contained_in_dilate(self.image, 3, "simplex")
        assert not contained_in_dilate(self.image, 2, "simplex")

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            contained_in_dilate(self.image, -1, "square")

    def test_unknown_target_rejected(self):
        with pytest.raises(InvalidInputError):
            contained_in_dilate(self.image, 1, "octagon")

    def test_rational_dilate(self):
        P = hull([(0, 0), (Fraction(3, 2), 0), (0, Fraction(3, 2))])
        assert contained_in_dilate(P, Fraction(3, 2), "simplex")
        assert not contained_in_dilate(P, Fraction(4, 3), "simplex")


class TestTextFormat:
    def test_round_trip(self):
        P = hull([(0, 0), (3, 1), (2, 3), (0, 2)])
        assert parse_polygon_text(polygon_to_text(P)) == P

    def test_comments_fractions_and_hulling(self):
        text = """
        # a square with a redundant interior point
        0 0
        1 0
        1/2 1/2
        1 1
        0 1
        """
        assert parse_polygon_text(text) == hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert parse_polygon_text("7/3 -2/4\n") == hull([(Fraction(7, 3), Fraction(-1, 2))])

    def test_bad_lines(self):
        with pytest.raises(InvalidInputError):
            parse_polygon_text("1 2 3\n")
        with pytest.raises(InvalidInputError):
            parse_polygon_text("a b\n")
        with pytest.raises(InvalidInputError):
            parse_polygon_text("1/0 2\n")
        # outside [+-]?[0-9]+(/[0-9]+)?, though Fraction() would take them
        for token in ("1e200000", "1.5", "1_000", "\u0661/\u0663"):
            with pytest.raises(InvalidInputError):
                parse_polygon_text(f"0 {token}\n")
        with pytest.raises(InvalidInputError):
            parse_polygon_text("# nothing\n")
