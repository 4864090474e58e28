"""Output checks computed apart from the package's fast path.

Areas, certificate images, lattice points, polygon and class counts are worked out
here from the vertex pairs alone.  Equivalence of lattice polygons is
decided by normal_form, an affine normal form independent of the
package's canonical form: every (start vertex, direction) of the vertex
cycle is mapped to the origin with the first edge along the positive x
axis, the polygon in the upper half plane and the next vertex's x in
[0, y), which leaves no freedom; the least such vertex sequence is the
form.  Each check returns a list of failure messages, empty on success.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from inputs import apply, convex_hull


def shoelace_area(vs) -> Fraction:
    n = len(vs)
    if n <= 2:
        return Fraction(0)
    twice = sum(vs[i][0] * vs[(i + 1) % n][1] - vs[(i + 1) % n][0] * vs[i][1]
                for i in range(n))
    return Fraction(twice) / 2


def lattice_points(vs) -> list[tuple[int, int]]:
    """Integer points of a lattice polygon given counterclockwise, by
    testing every point of the bounding box against every edge."""
    n = len(vs)
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if n == 1:
                inside = (x, y) == vs[0]
            elif n == 2:
                (ax, ay), (bx, by) = vs
                inside = (bx - ax) * (y - ay) == (by - ay) * (x - ax)
            else:
                inside = all((vs[(i + 1) % n][0] - vs[i][0]) * (y - vs[i][1])
                             - (vs[(i + 1) % n][1] - vs[i][1]) * (x - vs[i][0]) >= 0
                             for i in range(n))
            if inside:
                out.append((x, y))
    return out


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s*a + t*b == gcd(a, b) >= 0."""
    s0, t0, r0, s1, t1, r1 = 1, 0, a, 0, 1, b
    while r1:
        q = r0 // r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
        r0, r1 = r1, r0 - q * r1
    return (s0, t0) if r0 >= 0 else (-s0, -t0)


def normal_form(vs) -> tuple:
    """Complete invariant of a lattice polygon under x -> Mx + t with M
    integer of determinant +-1 and t integer (see the module docstring)."""
    n = len(vs)
    if n == 1:
        return ((0, 0),)
    if n == 2:
        (ax, ay), (bx, by) = vs
        return ((0, 0), (gcd(bx - ax, by - ay), 0))
    best = None
    for i in range(n):
        for step in (1, -1):
            seq = [vs[(i + step * j) % n] for j in range(n)]
            ox, oy = seq[0]
            rel = [(x - ox, y - oy) for x, y in seq]
            g = gcd(*rel[1])
            px, py = rel[1][0] // g, rel[1][1] // g
            s, t = _bezout(px, py)          # s*px + t*py == 1
            img = [(s * x + t * y, -py * x + px * y) for x, y in rel]
            if img[2][1] < 0:
                img = [(x, -y) for x, y in img]
            x2, y2 = img[2]
            shift = -(x2 // y2)
            cand = tuple((x + shift * y, y) for x, y in img)
            if best is None or cand < best:
                best = cand
    return best


def convex_polygon_count(n: int) -> int:
    """Number of convex polygons with nonzero area and vertices in
    {0..n}^2: the point sets of three or more grid points in strictly
    convex position, grown one point at a time in grid order (a subset of
    a set in convex position is in convex position)."""
    grid = [(x, y) for x in range(n + 1) for y in range(n + 1)]

    def grow(chosen: list, start: int) -> int:
        count = int(len(chosen) >= 3)
        for i in range(start, len(grid)):
            pts = chosen + [grid[i]]
            if len(convex_hull(pts)) == len(pts):
                count += grow(pts, i + 1)
        return count

    return grow([], 0)


def square_size_of_segment(vs) -> int:
    if len(vs) == 1:
        return 0
    (ax, ay), (bx, by) = vs
    return gcd(bx - ax, by - ay)


def family_classes(h: int) -> set:
    """Normal forms of the minimal polygons of square size h as the paper
    states them: the segment of lattice length h, the triangles
    conv{(0,0),(a,h),(h,b)} with a + b >= h, and the quadrilaterals
    conv{(a,0),(0,b),(h,h-c),(h-d,h)} with min(a,b) + min(c,d) > h or
    max(a,c) + max(b,d) < h, for parameters in 1..h-1."""
    forms = {normal_form(((0, 0), (h, 0)))}
    span = range(1, h)
    for a in span:
        for b in span:
            if a + b >= h:
                forms.add(normal_form(convex_hull([(0, 0), (a, h), (h, b)])))
            for c in span:
                for d in span:
                    if min(a, b) + min(c, d) > h or max(a, c) + max(b, d) < h:
                        forms.add(normal_form(convex_hull(
                            [(a, 0), (0, b), (h, h - c), (h - d, h)])))
    return forms


def _pairs(P) -> tuple:
    return tuple((v.x, v.y) for v in P.vertices)


def _cert_failures(cert, vs, size, target) -> list[str]:
    (a, b), (c, d) = cert.map.matrix
    if not all(isinstance(e, int) for e in (a, b, c, d)) or a * d - b * c not in (1, -1):
        return [f"{target} certificate map is not unimodular"]
    if cert.target != target or cert.dilate != size:
        return [f"{target} certificate claims {cert.target} {cert.dilate}, size is {size}"]
    image = apply(cert.map.matrix, cert.map.translation, vs)
    if target == "square":
        fits = all(0 <= x <= size and 0 <= y <= size for x, y in image)
    else:
        fits = all(x >= 0 and y >= 0 and x + y <= size for x, y in image)
    return [] if fits else [f"{target} certificate image leaves the dilate"]


def query_failures(vertices, out) -> list[str]:
    """Checks of one oracle query (see bench/README.md) on input vertices."""
    inv, sq, sx, bounds, canon = out
    vs = convex_hull(vertices)
    fails = []
    area = shoelace_area(vs)
    if inv.area != area:
        fails.append(f"area {inv.area} != shoelace {area}")
    fails += _cert_failures(inv.cert_square, vs, inv.ls_square, "square")
    fails += _cert_failures(inv.cert_simplex, vs, inv.ls_simplex, "simplex")
    if (sq, sx) != (inv.ls_square, inv.ls_simplex):
        fails.append(f"fast sizes {inv.ls_square}, {inv.ls_simplex} != search {sq}, {sx}")
    if not inv.width <= inv.ls_square <= inv.ls_simplex <= 2 * inv.ls_square:
        fails.append("width <= ls_square <= ls_simplex <= 2 ls_square fails")
    lattice = all(isinstance(x, int) and isinstance(y, int) for x, y in vs)
    w, h, l = inv.width, inv.ls_square, inv.ls_simplex
    want = [area - Fraction(3, 8) * w * h, area - Fraction(1, 4) * w * l,
            area - Fraction(l, 2) if lattice else None,
            area - Fraction(h, 2) if lattice else None]
    got = [bounds.slack_wh, bounds.slack_wl, bounds.slack_simplex, bounds.slack_square]
    if got != want:
        fails.append(f"slacks {got} != {want}")
    elif any(s is not None and s < 0 for s in got):
        fails.append(f"negative slack in {got}")
    if lattice:
        cv = _pairs(canon)
        if normal_form(cv) != normal_form(vs):
            fails.append("canonical form is not equivalent to the polygon")
        if min(x for x, _ in cv) != 0 or min(y for _, y in cv) != 0 or \
                max(max(x, y) for x, y in cv) != h:
            fails.append("canonical form does not sit in the corner square of side h")
    return fails


def classification_failures(report, h: int, brute_square) -> list[str]:
    """Checks of verify_classification(h); brute_square(vertex pairs) is
    the exhaustive square size of a full-dimensional lattice polygon."""
    fails = []
    if not report.matches or report.family_classes != report.search_classes:
        fails.append("family classes differ from sweep classes")
    found = [_pairs(P) for P in report.search_classes]
    expected = family_classes(h)
    if {normal_form(vs) for vs in found} != expected or len(found) != len(expected):
        fails.append(f"{len(found)} sweep classes, the stated families give {len(expected)}")
    for vs in found:
        if _square_size(vs, brute_square) != h:
            fails.append(f"class {vs} does not have square size {h}")
        pts = lattice_points(vs)
        for v in vs:
            drop = convex_hull(p for p in pts if p != v)
            if _square_size(drop, brute_square) >= h:
                fails.append(f"class {vs} keeps square size {h} without vertex {v}")
    return fails


def _square_size(vs, brute_square) -> int:
    return square_size_of_segment(vs) if len(vs) <= 2 else brute_square(vs)
