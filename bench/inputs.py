"""Seeded workload inputs, built without calling the package.

Every polygon is produced here from the workload seed as a tuple of
vertex pairs; the package only ever sees those pairs.  The round make-up
is stratified (fixed shares of vertex counts, of rational polygons and of
shear magnitudes) so that the mean cost of a round depends on the seed as
little as possible, while the polygons themselves vary with it.
"""
from __future__ import annotations

import random
from fractions import Fraction

GRID = 4                      # lattice polygons have vertices in {0..GRID}^2
DENOMINATORS = (3, 4)         # rational polygons: no coordinate in Z, all in (1/q)Z
VERTEX_COUNTS = (3, 4, 5, 6)
CYCLE = 4 * len(VERTEX_COUNTS)  # one polygon of every (rational?, vertex count) class
MAX_SHEAR_EXP = 4             # shears are log-uniform on [1, 10**MAX_SHEAR_EXP]
MAX_TRANSLATION = 50

# the eight signed permutation matrices
DIHEDRAL = (
    ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((1, 0), (0, -1)),
    ((-1, 0), (0, -1)), ((0, -1), (1, 0)), ((0, 1), (-1, 0)), ((0, -1), (-1, 0)),
)


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> tuple:
    """Monotone-chain hull, counterclockwise, no collinear vertices."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def _polygon(rng: random.Random, m: int, q: int) -> tuple:
    """Hull of random points of (1/q)Z^2 in [0, GRID]^2 with exactly m
    vertices; for q > 1 no coordinate is an integer, so every rational
    polygon carries the same number of fractional coordinates."""
    top = GRID * q
    numerators = [a for a in range(top + 1) if q == 1 or a % q]
    while True:
        pts = [(rng.choice(numerators), rng.choice(numerators))
               for _ in range(rng.randint(m, m + 3))]
        vs = convex_hull(pts)
        if len(vs) == m:
            return tuple((_rat(x, q), _rat(y, q)) for x, y in vs)


def _rat(a: int, q: int):
    return a // q if a % q == 0 else Fraction(a, q)


def small_polygons(seed: int, count: int) -> list[tuple]:
    """count polygons; every CYCLE consecutive ones hold each vertex count
    once as a rational polygon and three times as a lattice polygon, and
    the rational ones take the denominators in turn, CYCLE at a time."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        m = VERTEX_COUNTS[(i // 4) % len(VERTEX_COUNTS)]
        q = DENOMINATORS[(i // CYCLE) % len(DENOMINATORS)] if i % 4 == 3 else 1
        out.append(_polygon(rng, m, q))
    return out


def _matmul(a, b):
    (p, q), (r, s) = a
    (t, u), (v, w) = b
    return ((p * t + q * v, p * u + q * w), (r * t + s * v, r * u + s * w))


def apply(matrix, translation, vertices) -> tuple:
    (a, b), (c, d) = matrix
    tx, ty = translation
    return tuple((a * x + b * y + tx, c * x + d * y + ty) for x, y in vertices)


def skewed_polygons(seed: int, count: int) -> list[tuple]:
    """(source, matrix, translation, image) for count small polygons.

    The shear magnitude of polygon i is 10 to the midpoint of the i-th of
    count equal slices of [0, MAX_SHEAR_EXP], so the magnitudes are
    log-uniform and every seed covers the range the same way; the map is
    E * (1, +-k; 0, 1) * F with E, F seeded signed permutations, plus a
    seeded integer translation.  The order is shuffled afterwards.
    """
    rng = random.Random(seed ^ 0x5EED)
    sources = small_polygons(seed, count)
    out = []
    for i, src in enumerate(sources):
        k = round(10 ** (MAX_SHEAR_EXP * (i + 0.5) / count))
        shear = ((1, rng.choice((1, -1)) * k), (0, 1))
        matrix = _matmul(_matmul(rng.choice(DIHEDRAL), shear), rng.choice(DIHEDRAL))
        translation = (rng.randint(-MAX_TRANSLATION, MAX_TRANSLATION),
                       rng.randint(-MAX_TRANSLATION, MAX_TRANSLATION))
        out.append((src, matrix, translation, apply(matrix, translation, src)))
    rng.shuffle(out)
    return out
