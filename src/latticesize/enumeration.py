"""Exhaustive generation of polygons with vertices in a square grid.

Chains of grid points whose edge directions strictly advance in angle,
grown depth-first from each possible lexicographically smallest vertex,
visit every strictly convex polygon exactly once, already in canonical
vertex order.  Counts are cross-checked against subset brute force in
the test suite.  Grown from the column x = 0 only, pruned, and yielded
once they reach y = 0 (_chains' anchored option), the same chains are
the vertex tuples of the polygons whose coordinate minima are both 0
(_anchored_chains), with no second pass.  The dihedral filter
(_has_smaller_image) keeps those that can be canonical forms, for
enumerate_classes and the minimal sweep.  For that sweep, _chains' sweep
option also cuts every chain that holds a segment of lattice length at
least the grid size, a point on the box's sides that gives a dihedral
image a lower first vertex, or an unpinned vertex, read off the
directions of its edges, before it is grown further; it cuts or skips
the chains whose spans rule out the square size, so that it yields only
tuples of square size h, and the walk splits by start so that the sweep
can spread its starts over workers.
map_polygons maps a function over polygons or starts, in this process
or over a worker pool.
"""
from __future__ import annotations

import itertools
import multiprocessing
import os
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Iterator

from .errors import InvalidInputError
from .geometry import ConvexPolygon, Point, _cycle
from .oracle import canonical_form

DEFAULT_GRID_LIMIT = 5
_BATCH = 256  # items per worker task when mapping a stream over a pool

# the square's symmetries but the identity: (swap axes, then mirror x, then y)
_SYMMETRIES = tuple(itertools.product((False, True), repeat=3))[1:]


def _check_grid(n: int, limit: int) -> None:
    if type(n) is not int or not 1 <= n <= limit:
        raise InvalidInputError(f"grid size must be an integer in 1..{limit}, got {n!r}")


def enumerate_convex(n: int, include_degenerate: bool = False,
                     limit: int = DEFAULT_GRID_LIMIT) -> Iterator[ConvexPolygon]:
    """Every polygon whose vertex set lies in {0..n}^2 in strictly convex
    position, each exactly once, in unspecified order.

    Degenerate members (single points and segments) are included only on
    request.  The output grows quickly with n, so a grid larger than limit
    is refused; pass a larger limit explicitly to go beyond the default.
    """
    _check_grid(n, limit)
    return (ConvexPolygon._trusted(tuple(Point(x, y) for x, y in chain))
            for chain in _chains(n) if include_degenerate or len(chain) >= 3)


def _anchored_chains(n: int) -> Iterator[tuple]:
    """The vertex tuples of the members of enumerate_convex(n,
    include_degenerate=True) whose coordinate minima are both 0, as
    integer pairs, in the same order.

    Such a polygon starts at a vertex v0 in the column x = 0, so only
    chains from there are grown.  Counterclockwise from v0, the
    lexicographically smallest vertex, the edges heading forward
    (lexicographically) come first and those heading backward last, and
    the edge angles advance through less than a full turn.  So y falls
    along forward edges heading down, then rises, then falls back to v0
    along backward edges heading down.  Once a chain's last edge stops
    heading down, every later vertex of any polygon it grows into lies on
    that rise or on the final fall, hence no lower than the chain's last
    vertex or than v0.  A chain with every vertex above y = 0 whose last
    edge does not head down is therefore dropped together with every
    chain grown from it: no polygon reaching y = 0 is lost.  The walk
    carries each chain's smallest y (_grow's `lowest`) and yields a chain
    just when it is 0, as a scan would, at its place in the unpruned walk.
    """
    if type(n) is not int or n < 1:
        raise InvalidInputError(f"grid size must be a positive integer, got {n!r}")
    return _chains(n, anchored=True)


def _chains(n: int, anchored: bool = False, sweep: bool = False) -> Iterator[tuple]:
    """Chains, points and segments too, from each grid point in x-major
    order as their lexicographically smallest vertex; with anchored,
    only from the column x = 0, as _anchored_chains describes.

    The walk is split by start (_Grid.starts): each start point v0 gives
    one start (v0,) for its lone point and segments, when that start
    yields any, then one for each first edge v0 -> w a chain is grown
    from (_Grid.chains), in walk order.  Every mode runs the same walk,
    on tables built once per call (_Grid) and once per start point
    (_Grid.record).  The sweep's rules below are entries of those
    tables, which drop nothing outside the sweep's mode, or decisions
    on a chain's maxima, which only the sweep makes.

    With sweep too, n is the square size h of verify_classification's
    sweep, and the walk yields only the anchored tuples of square size h,
    less those that a prune or cut below shows cannot be the canonical
    form of a minimal polygon of square size h; what is left is a
    subsequence, in the same order.  From a start (v0,) it yields only
    the segments to the points of far[v0] (the segment rule): a lattice
    segment's square size is its lattice length, at most h in the grid,
    and the lone point's is 0.  So only v0 = (0, 0) has that start: a
    segment from (0, c), 0 < c < h, to y = 0 has lattice length at most
    c, and the band prune bans (0, h).
    A chain carries the set of points it may not take (_grow's
    `banned`):

    - pair prune: every point w' with gcd(w' - u) >= h for a vertex u of
      the chain.  Dropping a third vertex of a polygon that holds u and
      w' keeps the segment between them, of lattice length at least h,
      and square size is monotone under inclusion, so the drop keeps
      square size at least h: no such polygon of three or more vertices
      is minimal.  The segments (v0, w) to those points are the segment
      rule's, and no chain grows from them.
    - band prune: for v0 = (0, c), every point on a side of the box
      [0, n]^2 whose coordinate t along that side lies outside
      [c, n - c].  A polygon holding it has a dihedral image whose first
      vertex (0, c') has c' < c, so _has_smaller_image rejects every
      completion, segments among them.  With X, Y <= n the two spans, c'
      is at most (see _has_smaller_image): on y = 0, t for the swap and
      X - t for the swap then mirror y; on x = n = X, t for mirror x and
      Y - t for both mirrors; on y = n = Y, t for the swap then mirror x
      and X - t for the swap then both mirrors; on x = 0, Y - t for
      mirror y (no chain takes a point below v0 there).  When c > n - c,
      v0 itself is such a point, and nothing grows from it.
    - pinned rule: every chain with an unpinned vertex, one that is the
      only greatest point of none of the 8 forms +-x, +-y, +-(x + y),
      +-(x - y) over the chain.  Points added to a chain only raise a
      form's maximum or tie it, so a vertex unpinned in a chain stays
      unpinned in every polygon grown from it.  Dropping an unpinned v
      keeps every form's maximum, and _square_size_is reads only those
      (the two spans and the two shear widths), so it gives the same
      answer on the other vertices as on all of them.  Either the
      polygon's square size is not h, or its other vertices span a
      polygon of square size h inside the drop of v, which then keeps
      square size h: the polygon is not minimal.  Points and segments
      are always pinned.  Closed back to v0, a chain of three or more points is a
      strictly convex polygon, counterclockwise.  A vertex c with
      in-edge direction d and out-edge direction e is the only greatest
      point of p -> u . p exactly when u lies strictly inside c's normal
      cone, the open angle between the outward normals of its two
      edges: the left turn from d to e, less than a half turn, rotated
      by -90 degrees.  That rotation maps the 8 forms' directions, the
      compass rays, onto themselves, so c is pinned exactly when a
      compass ray lies strictly inside the turn from d to e.  With d in
      sector a and e in sector b (_sector), the first ray after d is
      sector a + 2 when a is a ray and a + 1 when a is an octant, and it
      lies strictly inside the turn exactly when e lies beyond it:
      (b - a) % 16 >= 3 - (a & 1), as the turn is less than a half turn
      (_PINNED).  Adding w after the last point c changes the neighbours
      of three vertices only, and each is tested on two sectors: c,
      whose edges b -> c and c -> w are final, by _Grid.fill, which
      drops such a w from successors; w, between c -> w and the closing
      edge w -> v0, by v0's ends; and v0, between w -> v0 and its first
      edge, by the start's banned set (see _Grid.record).  So a chain is
      cut at its first unpinned vertex.

    The sweep's walk is anchored, and a chain also carries its greatest
    x and y (_grow's top_x and top_y).  Its first point has x = 0 and it
    is yielded only once it reaches y = 0, so at a yield these are its
    two spans.  Three decisions read them:

    - cut A, fixed extremes: edges heading backward (lexicographically)
      have angles in (90, 270] degrees and come last (_Grid.fill), so
      after an edge heading backward and down, with an angle in
      (180, 270], every later edge turns left within (180, 270]: it heads
      down with x not increasing.  The chain's maxima are then final,
      and if both are below h every tuple grown from it fits the square
      of its larger span and has square size below h, so the chain is
      neither yielded nor grown.
    - cut B, box pins: once both maxima are h they are final, as the
      grid is [0, h]^2.  A vertex that is the only greatest point of
      none of x, -x, y and -y over the chain (_box_pinned) stays so as
      points are added, and dropping it from a tuple grown from the
      chain keeps both spans h, hence square size h, so the tuple is
      not minimal.  Such a chain is neither yielded nor grown, and as
      each of the 4 forms has at most one only greatest point, a chain
      with both maxima h keeps at most 4 points.
    - yield test: _grow yields a chain only when it has square size h:
      both maxima h, or one of them h and _square_size_is, which reads
      the two shear widths only then.  It grows the chain all the same.
      With the segment rule, every tuple of the walk has square size h.
    """
    grid = _Grid(n, anchored, sweep)
    for start in grid.starts():
        yield from grid.chains(start)


def _sector(dx: int, dy: int) -> int:
    """The sector of the nonzero direction (dx, dy) among 16: 2k for the
    compass ray at k * 45 degrees, 2k + 1 for the open octant between
    that ray and the next one counterclockwise."""
    quarter = 0
    while dx <= 0 or dy < 0:  # outside [0, 90) degrees: turn by -90 degrees
        dx, dy, quarter = dy, -dx, quarter + 4
    return quarter + (0 if not dy else 1 if dy < dx else 2 if dy == dx else 3)


# _PINNED[a * 16 + b]: whether a compass ray lies strictly inside the
# left turn from a direction of sector a to one of sector b
_PINNED = tuple((b - a) % 16 >= 3 - (a & 1) for a in range(16) for b in range(16))


class _Grid:
    """The tables of one walk of _chains over the grid {0..n}^2.

    points lists the grid in x-major order, which is lexicographic
    order, and a point's index i there is its bit 1 << i in a point set
    held as an int.  far[i] is the set of points that span a segment of
    lattice length at least n with point i, in the sweep's mode, and
    empty otherwise.  sectors maps each nonzero difference (dx, dy) of
    two grid points to its _sector, and pinned is the pinned rule's
    table: _PINNED in the sweep's mode, and all true otherwise, so that
    outside it the rule drops nothing.  successors[b *
    len(points) + c] is filled on first use with the points w that
    follow the edge from point b to point c (see _grow), each as (w, its
    two coordinates, its bit, its far set, the index of the edge c -> w,
    the sector of c -> w), in grid order.  records[i] is filled on first
    use with the tables of the starts from point i (see record).
    Nothing is kept from one walk to the next in this process; a grid
    sent to a worker process is rebuilt there through _shared_grid, so
    the worker keeps its tables across the starts it runs.
    """

    def __init__(self, n: int, anchored: bool, sweep: bool) -> None:
        self.n, self.anchored, self.sweep = n, anchored, sweep
        self.points = points = [(x, y) for x in range(n + 1) for y in range(n + 1)]
        self.far = [sum(1 << j for j, (x, y) in enumerate(points) if gcd(x - px, y - py) >= n)
                    if sweep else 0 for px, py in points]
        self.sectors = {(dx, dy): _sector(dx, dy)
                        for dx in range(-n, n + 1) for dy in range(-n, n + 1) if dx or dy}
        self.pinned = _PINNED if sweep else (True,) * 256
        self.successors = [None] * len(points) ** 2
        self.records = [None] * len(points)

    def __reduce__(self):
        return _shared_grid, (self.n, self.anchored, self.sweep)

    def starts(self) -> Iterator[tuple]:
        """The walk's starts in its order: (v0,) for the lone point v0
        and its segments, when that start yields any, then (v0, w) for
        each first edge a chain is grown from; none from a v0 the band
        prune bans."""
        n, points = self.n, self.points
        for i, v0 in enumerate(points[:n + 1] if self.anchored else points):
            band, targets, _, _ = self.records[i] or self.record(i)
            if band >> i & 1:
                continue
            if targets:
                yield (v0,)
            high = v0[1] if self.anchored else 0
            banned = band | self.far[i]
            for j in range(i + 1, len(points)):
                w = points[j]
                if not ((high and w[1] >= high) or banned >> j & 1):
                    yield (v0, w)

    def chains(self, start: tuple) -> Iterator[tuple]:
        """The chains of one start of starts(), in walk order.

        From (v0,), for each point p of v0's targets (see record) in
        grid order, the lone point v0 if p = v0 and the segment to p
        otherwise.  From (v0, w), every
        chain grown from that first edge, by _grow, whose banned set holds
        from the start: the points up to v0, the points not strictly left
        of v0 -> w, the band, the far sets of v0 and w and the points that
        leave v0 unpinned.
        """
        points, side = self.points, self.n + 1
        v0 = start[0]
        x0, y0 = v0
        i = x0 * side + y0
        band, targets, ends, unpins = self.records[i] or self.record(i)
        if len(start) == 1:
            yield from ((v0, points[j]) if j > i else start
                        for j in range(i, len(points)) if targets >> j & 1)
            return
        w = start[1]
        fx, fy = w[0] - x0, w[1] - y0
        j = w[0] * side + w[1]
        right = sum(1 << k for k, (x, y) in enumerate(points) if fx * (y - y0) - fy * (x - x0) <= 0)
        banned = ((1 << i) - 1 | right | band | self.far[i] | self.far[j]
                  | unpins[self.sectors[fx, fy]])
        yield from _grow(self, [v0, w], i * len(points) + j,
                         min(y0 if self.anchored else 0, w[1]), banned, ends,
                         w[0], max(y0, w[1]))

    def record(self, i: int) -> tuple:
        """records[i], built: the tables of the starts from point i = v0
        (see _chains), one scan of the grid.

        band is the band prune's set, empty outside the sweep's mode or
        when the walk is not anchored above y = 0.  targets holds the
        points p such that the start (v0,) yields the segment from v0 to
        p, or v0 itself for p = v0: p comes no earlier than v0, is not in
        the band, lies on y = 0 when the walk is anchored above it, and,
        in the sweep's mode, is in far[i] (the segment rule), which never
        holds v0.  ends and unpins are the pinned rule's two lists of
        masks, each indexed by a sector; every mask is empty outside the
        sweep's mode, where pinned is all true.  ends[s] holds the points w that are
        unpinned as the chain's last vertex after an edge of sector s.
        unpins[s] holds the points w that, as the last vertex, leave v0
        unpinned when v0's edge to the next vertex has sector s.  Both
        read the sector of the closing edge w -> v0.
        """
        n, pinned = self.n, self.pinned
        x0, y0 = self.points[i]
        high = y0 if self.anchored else 0
        reach = self.far[i] if self.sweep else -1
        band = targets = 0
        back = [0] * 16  # the points w by the sector of w -> v0
        for k, (x, y) in enumerate(self.points):
            if self.sweep and ((x in (0, n) and not high <= y <= n - high)
                               or (y in (0, n) and not high <= x <= n - high)):
                band |= 1 << k
            elif k >= i and reach >> k & 1 and not (high and y):
                targets |= 1 << k
            if k != i:
                back[self.sectors[x0 - x, y0 - y]] |= 1 << k
        ends = [sum(back[t] for t in range(16) if not pinned[s * 16 + t]) for s in range(16)]
        unpins = [sum(back[t] for t in range(16) if not pinned[t * 16 + s]) for s in range(16)]
        self.records[i] = band, targets, ends, unpins
        return self.records[i]

    def fill(self, edge: int) -> list:
        """successors[edge], built: every grid point w that makes a strict
        left turn at c after the edge b -> c, that does not head forward
        (lexicographically) from c when b -> c heads backward, and after
        which c is pinned, by pinned (see _chains)."""
        size = len(self.points)
        b, c = divmod(edge, size)
        (bx, by), (cx, cy) = B, C = self.points[b], self.points[c]
        lx, ly = cx - bx, cy - by
        backward = C < B
        sectors, pinned = self.sectors, self.pinned
        turn = sectors[lx, ly] * 16
        row = []
        for k, w in enumerate(self.points):
            wx, wy = w
            if lx * (wy - cy) - ly * (wx - cx) > 0 and not (backward and w > C):
                sector = sectors[wx - cx, wy - cy]
                if pinned[turn + sector]:
                    row.append((w, wx, wy, 1 << k, self.far[k], c * size + k, sector))
        self.successors[edge] = row
        return row


@lru_cache(maxsize=1)
def _shared_grid(n: int, anchored: bool, sweep: bool) -> _Grid:
    """The _Grid(n, anchored, sweep) of this process that unpickling
    returns: a pooled sweep pickles its grid with every start it sends,
    and a worker then fills one grid's successor lists across all the
    starts it runs, rather than one fresh grid's per start.  One grid is
    kept, as a pool serves one walk."""
    return _Grid(n, anchored, sweep)


def _grow(grid: _Grid, chain: list, edge: int, lowest: int, banned: int,
          ends: list, top_x: int, top_y: int) -> Iterator[tuple]:
    """Extend a chain of two or more grid points, v0 first, whose last
    edge has index edge in grid.successors, by one more point in all
    valid ways, yielding each polygon so made.

    A point w after the last point c is kept when the edge angles advance
    (a strict left turn at c, and no falling back from the edges heading
    backward, lexicographically, to those heading forward), when w comes
    after v0 in the grid, when w lies strictly left of the first edge
    and when v0 lies strictly left of the edge c -> w.  Every strictly
    convex polygon passes these at each of its vertices in turn, so none
    is lost.  The left turns at v0 and at w of the chain closed back to
    v0 are the last two, so a kept chain, closed, turns left everywhere,
    and as its edge angles advance through less than a full turn before
    the closing edge it winds once: it is a strictly convex polygon.  No
    point repeats: w = c makes no turn, and an earlier vertex w of that
    polygon has v0 on its arc from c to w, so v0 lies strictly right of
    c -> w.

    The first two tests depend only on the last edge b -> c and on w,
    so each edge takes them once, over every grid point:
    grid.successors[edge] holds exactly the points that pass them, in
    grid order, and only those are tried.  The next two depend only on
    the start, and the points that fail them are in banned from the
    start on (see _Grid.chains), so only the turn at v0 is computed
    here.  A point is kept exactly when it passes all five tests, and
    the points are tried in grid order, so the chains kept, and their
    order, are those of testing every grid point in turn.

    lowest is the chain's smallest y when only polygons reaching y = 0
    are wanted, and 0 otherwise.  While it is positive, an edge c -> w
    that does not head down ends the chain, and a kept chain grows on
    but is yielded only if w lies on y = 0 (see _anchored_chains).

    A point of banned ends the chain: it is neither yielded nor grown.
    A kept w adds its far set, the points it spans a long segment with,
    to the set its extensions get.  ends is the ends list of v0 (see
    _Grid.record), and a w unpinned as the last point, its bit in
    ends[sector of c -> w], ends the chain too.  top_x and top_y are
    the chain's greatest x and y.  In the sweep's mode cuts A and B,
    which read them, end the chain too, and the yield test decides the
    yield (see _chains); outside it, the far sets, the band and ends are
    empty, so the walk is the same with no prune.  The sweep's prunes
    and cuts hold for every extension of a chain they drop, so no chain
    the sweep keeps is lost.
    """
    successors = grid.successors[edge]
    if successors is None:
        successors = grid.fill(edge)
    x0, y0 = chain[0]
    cx, cy = chain[-1]
    gx, gy = x0 - cx, y0 - cy
    h, sweep = grid.n, grid.sweep
    for w, wx, wy, bit, far, after, sector in successors:
        if (banned & bit or (wx - cx) * gy - (wy - cy) * gx <= 0 or (lowest and wy >= cy)
                or ends[sector] & bit):
            continue
        keep = not (lowest and wy)
        X = wx if wx > top_x else top_x
        Y = wy if wy > top_y else top_y
        if sweep:
            if X == h == Y:
                if len(chain) > 3 or not _box_pinned(chain, w):
                    continue
            elif X < h and Y < h:
                if wy < cy and wx <= cx:
                    continue
                keep = False
            elif keep:
                keep = _square_size_is(h, (*chain, w))
        if keep:
            yield (*chain, w)
        chain.append(w)
        yield from _grow(grid, chain, after, min(lowest, wy), banned | far, ends, X, Y)
        chain.pop()


def _box_pinned(chain: list, w: tuple) -> bool:
    """Whether each of the chain's points and w is the only greatest
    point among them of one of x, -x, y and -y."""
    points = [*chain, w]
    soles = {values.index(t) for values in zip(*points)
             for t in (min(values), max(values)) if values.count(t) == 1}
    return len(soles) == len(points)


def _square_size_is(h: int, vs) -> bool:
    """Whether the lattice polygon conv(vs), both axis spans at most h,
    has square size h; vs holds its vertices and may hold more of its
    points.

    The axes fit it in the square of its larger span, so that span must
    be h.  If both spans are h, the square size is h (see check_touch).
    If one span is h and the other is below h, the square size is h
    exactly when both shear widths, along (1, 1) and (1, -1), are at
    least h.  Say the x span is h; the y case is the same with the axes
    swapped, and the same two directions come out.

    - If one shear width is below h, the unimodular basis {(1, +-1),
      (0, 1)} fits the polygon in a smaller square.
    - Conversely, say the square size is below h, through a unimodular
      basis whose two widths are both below h.  One vector u = (a, b) of
      that basis has a != 0; take a > 0.  Width is a seminorm, so the
      directions of width below h form a convex, symmetric set K.  K
      holds +-(0, 1), whose width is the y span, and +-u, so it holds
      the parallelogram conv{+-(0, 1), +-u}.  At first coordinate 1 the
      parallelogram has a section of length 2 - 2/a, at least 1 when
      a >= 2, and when a = 1 the section holds u itself; either way K
      holds some (1, k).  k != 0, since width(1, 0) = h.  The map
      k -> width(1, k) is convex and equals h at 0, so
      width(1, sign k) < h.
    """
    xs, ys = zip(*vs)
    X, Y = max(xs) - min(xs), max(ys) - min(ys)
    if (X < h and Y < h) or X == Y:
        return X == Y == h
    sums = [x + y for x, y in vs]
    diffs = [x - y for x, y in vs]
    return min(max(sums) - min(sums), max(diffs) - min(diffs)) >= h


def _image(vs: tuple, X: int, Y: int, symmetry: tuple) -> tuple:
    """The canonical vertex tuple of the image of vs under the symmetry
    (swap, fx, fy) of the box [0, X] x [0, Y], as in _SYMMETRIES: the
    axes swapped, then x mirrored in the image's box, then y."""
    swap, fx, fy = symmetry
    if swap:
        vs, X, Y = [(y, x) for x, y in vs], Y, X
    return _cycle([(X - x if fx else x, Y - y if fy else y) for x, y in vs], swap ^ fx ^ fy)


def _has_smaller_image(vs: tuple) -> bool:
    """Whether a symmetry of the square maps the polygon with vertex
    tuple vs, both coordinate minima 0, to a smaller vertex tuple once
    translated back to minima 0.  That image is a unimodular image of the
    same polygon, so vs is then not its canonical form, the least one.

    vs starts at (0, c), c the least y on x = 0, and an image starts at
    (0, c'), c' the least second coordinate of its vertices on its side
    x = 0.  That side comes from x = 0 or x = X of the box [0, X] x [0, Y],
    or with the swap from y = 0 or y = Y, so c' is the least other
    coordinate of the vertices there, or the span less the greatest when
    the image mirrors that coordinate.  An image with c' < c is smaller
    and one with c' > c is larger.  One with c' = c starts at vs[0] too,
    and its second vertex is read off before it is built: it is the image
    of the neighbour of the vertex mapped to (0, c), the next vertex when
    the symmetry keeps the orientation and the previous one when _image
    reverses the cycle.  A second vertex below vs[1] makes the image
    smaller and one above it larger, so only an image that ties on both
    vertices is built and compared in full.
    """
    xs, ys = zip(*vs)
    X, Y = max(xs), max(ys)
    left = [y for x, y in vs if not x]
    right = [y for x, y in vs if x == X]
    bottom = [x for x, y in vs if not y]
    top = [x for x, y in vs if y == Y]
    # c' of each image, in _SYMMETRIES order
    firsts = (Y - max(left), min(right), Y - max(right), min(bottom), X - max(bottom),
              min(top), X - max(top))
    c = vs[0][1]
    if min(firsts) < c:
        return True
    if len(vs) == 1:
        return False    # a point is its only image
    for first, (swap, fx, fy) in zip(firsts, _SYMMETRIES):
        if first != c:
            continue
        # the vertex mapped to (0, c), in the image's box [0, A] x [0, B]
        A, B = (Y, X) if swap else (X, Y)
        x, y = A if fx else 0, B - c if fy else c
        p = vs.index((y, x) if swap else (x, y))
        x, y = vs[p - 1] if swap ^ fx ^ fy else vs[(p + 1) % len(vs)]
        if swap:
            x, y = y, x
        second = (A - x if fx else x, B - y if fy else y)
        if second < vs[1] or second == vs[1] and _image(vs, X, Y, (swap, fx, fy)) < vs:
            return True
    return False


def enumerate_classes(n: int, include_degenerate: bool = False,
                      limit: int = DEFAULT_GRID_LIMIT) -> Iterator[ConvexPolygon]:
    """Canonical forms of the equivalence classes met in {0..n}^2, each
    exactly once, in the order of _anchored_chains; points and segments
    only with include_degenerate.

    A class met in the grid has square size at most n, so its canonical
    form lies in the corner square of side n, has both coordinate minima
    0 and is no larger than any of its 7 other dihedral images: it is a
    tuple of _anchored_chains(n) that _has_smaller_image keeps.  Those
    tuples that are their own canonical form are distinct classes, so no
    set of forms already seen is needed."""
    _check_grid(n, limit)
    polygons = (ConvexPolygon._trusted(tuple(Point(x, y) for x, y in vs))
                for vs in _anchored_chains(n)
                if (include_degenerate or len(vs) >= 3) and not _has_smaller_image(vs))
    return (P for P in polygons if canonical_form(P) == P)


def map_polygons(fn: Callable, polygons: Iterable, jobs: int) -> Iterator:
    """fn(item) for every item of the stream, in stream order.

    The items are polygons or the chain starts of the classification
    sweep.  One job maps in this process.  More jobs,
    capped at the CPU count, spread the items over a process pool: a
    list one item per task, since the sweep's starts differ widely in
    their work and are few, and any other stream in chunks of _BATCH
    items.  fn must then be picklable (a module-level function or a
    partial of one) and so must the items and the results.
    """
    if type(jobs) is not int or jobs < 1:
        raise InvalidInputError(f"worker count must be a positive integer, got {jobs!r}")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1:
        return map(fn, polygons)
    return _pooled(fn, polygons, jobs)


def _pooled(fn, items: Iterable, jobs: int) -> Iterator:
    chunk = 1 if isinstance(items, list) else _BATCH
    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(fn, items, chunksize=chunk)
