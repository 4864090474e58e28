"""Gauss-style basis reduction under the width norm of a polygon.

Directional width is a seminorm on integer directions (a norm once the
polygon has interior), so the classical shortest-pair loop applies: shift
the wider basis vector by the best multiple of the narrower one, swap
while that strictly helps.  All tie-breaking is fixed, which makes the
output basis deterministic.

argmin_shift finds each best multiple k.  It starts from an estimate of
k read off the two vertices extreme along the narrower vector u1, then
gallops and bisects on the convex width along u2 + k*u1.  A search costs
O(log(2 + w(u2')/w(u1))) widths, where u2' = u2 + k*u1 is the shifted
vector: it follows the polygon's shape, not the size of k.  A box
sheared by 10**40 takes 13 widths, where a search from k = 0 takes 531.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .geometry import ConvexPolygon, Coord, IntVec, width

_MAX_ROUNDS = 10_000  # widths decrease strictly on swap; never reached


@dataclass(frozen=True, slots=True)
class LatticeBasis:
    """An ordered pair of integer directions spanning the whole lattice."""

    u1: IntVec
    u2: IntVec

    def __post_init__(self) -> None:
        object.__setattr__(self, "u1", tuple(self.u1))
        object.__setattr__(self, "u2", tuple(self.u2))
        if not _integers(self.u1, self.u2) or self.det not in (1, -1):
            raise InvalidInputError("basis must have determinant +1 or -1")

    @property
    def det(self) -> int:
        return self.u1[0] * self.u2[1] - self.u1[1] * self.u2[0]


def _integers(u1: IntVec, u2: IntVec) -> bool:
    # all four entries ints: a float or a bool could pass the determinant
    # test.  One chained comparison, as argmin_shift checks every call.
    return type(u1[0]) is type(u1[1]) is type(u2[0]) is type(u2[1]) is int


def _check_unimodular(u1: IntVec, u2: IntVec) -> None:
    if not _integers(u1, u2) or u1[0] * u2[1] - u1[1] * u2[0] not in (1, -1):
        raise InvalidInputError("directions must form a unimodular pair")


def argmin_shift(P: ConvexPolygon, u1: IntVec, u2: IntVec) -> int:
    """Integer k minimizing width(P, u2 + k*u1), the one nearest zero.

    Width along the line of directions u2 + k*u1 is a maximum minus a
    minimum of functions linear in k, hence convex in k.  So it drops
    from k = 0 in at most one direction: k = 1 is tried first and k = -1
    only when that does not drop, and if neither drops the answer is 0.
    Along the dropping direction the steps w(j+1) - w(j) never decrease,
    and the answer is the least j whose step does not drop (stops(j)).
    j = 1 is tested first, so a shift of 0 or +-1 costs at most 4
    widths.

    Past j = 1 the search starts where the answer must lie, not at 0.
    Let v and v' be vertices of P greatest and least along u1, so that
    w1 = u1.(v - v') is width(P, u1), and let d = u2.(v - v').  The
    width along u2 + t*u1 is at least its spread over v and v', so
    w(t) >= |d + t*w1| for every real t.  A drop needs w1 > 0, since
    w1 = 0 makes the width constant in k; so every real minimiser t
    lies within w(t)/w1 of t0 = -d/w1.  Let u2' = u2 + k*u1 be the
    answer's direction and m = w(u2') the least width.  The least real
    minimiser a of w(sign*j) lies within m/w1 of sign*t0, and the
    answer, the least integer j with stops(j), lies in (a - 1, a + 1),
    so within m/w1 + 2 of floor(sign*t0).  The search gallops from there,
    clamped to j >= 1, with steps 1, 2, 4, ... until stops changes, then
    bisects between the last two points; it finds the same least root
    as a search from 0.  Widths are computed once per k, O(log(2 +
    m/w1)) of them in all: the cost follows the polygon's shape, not
    the size of k.
    """
    _check_unimodular(u1, u2)
    widths: dict[int, Coord] = {}

    def shifted(k: int) -> Coord:
        if k not in widths:
            widths[k] = width(P, (u2[0] + k * u1[0], u2[1] + k * u1[1]))
        return widths[k]

    if shifted(1) < shifted(0):
        sign = 1
    elif shifted(-1) < shifted(0):
        sign = -1
    else:
        return 0

    def stops(j: int) -> bool:
        # the step from sign*j to sign*(j+1) does not drop
        return shifted(sign * (j + 1)) >= shifted(sign * j)

    if stops(1):
        return sign
    vs = P.vertices
    dots = [u1[0] * v.x + u1[1] * v.y for v in vs]
    top, low = dots.index(max(dots)), dots.index(min(dots))
    w1 = dots[top] - dots[low]   # > 0, as the width dropped
    d = u2[0] * (vs[top].x - vs[low].x) + u2[1] * (vs[top].y - vs[low].y)
    lo, hi = 1, max(1, (-sign * d) // w1)   # stops(lo) is false
    step = 1
    if stops(hi):   # gallop down to a j > lo that does not stop, or to lo
        while hi - step > lo and stops(hi - step):
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    else:           # gallop up to a j that stops
        lo = hi
        while not stops(lo + step):
            lo += step
            step *= 2
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stops(mid):
            hi = mid
        else:
            lo = mid
    return sign * hi


def gauss_reduce(P: ConvexPolygon) -> LatticeBasis:
    """Reduce the standard basis under P's width norm.

    The result (u1, u2) has width(u1) <= width(u2), and neither u2 + u1
    nor u2 - u1 is narrower than u2.  Points reduce to the standard
    basis; a segment yields its primitive normal direction (width zero)
    as u1.
    """
    return _reduce(P)[0]


def _reduce(P: ConvexPolygon) -> tuple[LatticeBasis, Coord, Coord]:
    """gauss_reduce's basis (u1, u2) with width(P, u1) and width(P, u2).

    The two widths are carried from round to round, so only a shifted u2
    is measured afresh, and neither is measured again at the end.
    """
    u1, u2 = (1, 0), (0, 1)
    w1, w2 = width(P, u1), width(P, u2)
    if w1 > w2:
        u1, u2, w1, w2 = u2, u1, w2, w1
    for _ in range(_MAX_ROUNDS):
        k = argmin_shift(P, u1, u2)
        if k:
            u2 = (u2[0] + k * u1[0], u2[1] + k * u1[1])
            w2 = width(P, u2)
        if w2 < w1:
            u1, u2, w1, w2 = u2, u1, w2, w1
        else:
            return LatticeBasis(u1, u2), w1, w2
    raise RuntimeError("basis reduction failed to converge")  # pragma: no cover


def is_reduced(P: ConvexPolygon, basis: LatticeBasis) -> bool:
    """Check the reducedness inequalities directly."""
    w1 = width(P, basis.u1)
    w2 = width(P, basis.u2)
    if w1 > w2:
        return False
    plus = (basis.u1[0] + basis.u2[0], basis.u1[1] + basis.u2[1])
    minus = (basis.u1[0] - basis.u2[0], basis.u1[1] - basis.u2[1])
    return width(P, plus) >= w2 and width(P, minus) >= w2
