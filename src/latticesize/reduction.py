"""Gauss-style basis reduction under the width norm of a polygon.

Directional width is a seminorm on integer directions (a norm once the
polygon has interior), so the classical shortest-pair loop applies: shift
the wider basis vector by the best multiple of the narrower one, swap
while that strictly helps.  All tie-breaking is fixed, which makes the
output basis deterministic.
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
        if self.det not in (1, -1):
            raise InvalidInputError("basis must have determinant +1 or -1")

    @property
    def det(self) -> int:
        return self.u1[0] * self.u2[1] - self.u1[1] * self.u2[0]


def _check_unimodular(u1: IntVec, u2: IntVec) -> None:
    if u1[0] * u2[1] - u1[1] * u2[0] not in (1, -1):
        raise InvalidInputError("directions must form a unimodular pair")


def argmin_shift(P: ConvexPolygon, u1: IntVec, u2: IntVec) -> int:
    """Integer k minimizing width(P, u2 + k*u1), the one nearest zero.

    Width along the line of directions u2 + k*u1 is a maximum minus a
    minimum of functions linear in k, hence convex in k.  So it drops
    from k = 0 in at most one direction: k = 1 is tried first and k = -1
    only when that does not drop, and if neither drops the answer is 0.
    Along the dropping direction the steps w(j+1) - w(j) never decrease,
    and the answer is the first j whose step does not drop: j = 1 is
    tested first, then j doubles until such a step turns up, then a
    bisection on the sign of the step finds the first.  Widths are
    computed once per k, O(log |k|) of them in all, and a shift of 0 or
    +-1 costs at most 4.
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

    lo, hi = 0, 1   # stops(lo) is false
    while not stops(hi):
        lo, hi = hi, 2 * hi
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
