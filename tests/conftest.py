import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from latticesize import ConvexPolygon, UnimodularMap, apply_map, enumerate_convex, hull
from latticesize import oracle, size

settings.register_profile(
    "exact", deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
settings.load_profile("exact")

# the package's per-process memos of its last few polygons
MEMOS = (size._report, oracle._scan, oracle._canonical)


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts from empty memos, so none sees another's entries."""
    for memo in MEMOS:
        memo.cache_clear()


def random_unimodular(rng: random.Random, shear: int = 4) -> UnimodularMap:
    """Random products of shears and swaps keep the determinant at +-1."""
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(2, 5)):
        k = rng.randint(-shear, shear)
        if rng.random() < 0.5:
            m = ((m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]), m[1])
        else:
            m = (m[0], (m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]))
        if rng.random() < 0.3:
            m = (m[1], m[0])
    return UnimodularMap(m, (rng.randint(-9, 9), rng.randint(-9, 9)))


def random_shear(rng: random.Random, P: ConvexPolygon) -> ConvexPolygon:
    """P under one shear with a factor log-uniform on [1, 1e4], either sign,
    and a random lattice translation."""
    k = rng.choice((1, -1)) * round(10 ** rng.uniform(0, 4))
    m = ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))
    return apply_map(UnimodularMap(m, (rng.randint(-50, 50), rng.randint(-50, 50))), P)


def random_lattice_polygon(rng: random.Random, span: int = 4,
                           points: int = 6) -> ConvexPolygon:
    while True:
        P = hull((rng.randint(0, span), rng.randint(0, span))
                 for _ in range(points))
        if P.dim == 2:
            return P


def random_rational_polygon(rng: random.Random, span: int = 10,
                            max_den: int = 16) -> ConvexPolygon:
    def coord():
        den = rng.randint(1, max_den)
        return Fraction(rng.randint(0, span * den), den)

    while True:
        P = hull((coord(), coord()) for _ in range(rng.randint(3, 8)))
        if P.dim == 2:
            return P


@pytest.fixture(scope="session")
def corpus3():
    """Every convex lattice polygon with vertices in [0,3]^2."""
    return list(enumerate_convex(3))
