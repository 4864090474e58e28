import itertools
import os
import random
import sys
from math import gcd
from unittest import mock

import pytest

from latticesize import (
    InvalidInputError,
    canonical_form,
    enumerate_convex,
    MinimalFamily,
    ResourceLimitError,
    generate_minimal,
    hull,
    is_minimal,
    lattice_equivalent,
    ls_square,
    minimal_families,
    quad_minimal,
    realize,
    triangle_minimal,
    verify_classification,
)
from latticesize import enumeration
from latticesize.enumeration import (
    _SYMMETRIES, _anchored_chains, _chains, _has_smaller_image, _square_size_is)
from latticesize.geometry import _cycle, drop_vertex, lattice_points, width
from latticesize import minimal
from latticesize.minimal import (
    _class_key,
    _sweep_one,
    quad_reflect_params,
)


class TestRealize:
    def test_segment(self):
        assert realize(MinimalFamily("segment", 4)) == hull([(0, 0), (4, 0)])

    def test_triangle(self):
        P = realize(MinimalFamily("triangle", 2, (1, 1)))
        assert P == hull([(0, 0), (1, 2), (2, 1)])

    def test_quad(self):
        P = realize(MinimalFamily("quad", 3, (2, 2, 2, 2)))
        assert P == hull([(2, 0), (0, 2), (3, 1), (1, 3)])


class TestFamilyValidation:
    def test_triangle_below_threshold(self):
        with pytest.raises(InvalidInputError):
            MinimalFamily("triangle", 3, (1, 1))

    def test_quad_wrong_clause(self):
        # satisfies the mirror clause, not the generated one
        assert quad_minimal(4, 1, 1, 1, 1)
        with pytest.raises(InvalidInputError):
            MinimalFamily("quad", 4, (1, 1, 1, 1))

    def test_quad_not_minimal_at_all(self):
        with pytest.raises(InvalidInputError):
            MinimalFamily("quad", 4, (2, 2, 2, 2))

    def test_param_ranges(self):
        with pytest.raises(InvalidInputError):
            MinimalFamily("triangle", 3, (0, 2))
        with pytest.raises(InvalidInputError):
            MinimalFamily("triangle", 3, (1, 3))
        with pytest.raises(InvalidInputError):
            MinimalFamily("triangle", 3, (True, 2))

    def test_param_count(self):
        with pytest.raises(InvalidInputError):
            MinimalFamily("triangle", 3, (1, 2, 2))
        with pytest.raises(InvalidInputError):
            MinimalFamily("quad", 3, (2, 2))

    def test_kind_and_h(self):
        with pytest.raises(InvalidInputError):
            MinimalFamily("pentagon", 3, ())
        with pytest.raises(InvalidInputError):
            MinimalFamily("segment", 0)
        with pytest.raises(InvalidInputError):
            MinimalFamily("segment", True)

    @pytest.mark.parametrize("make, message", [
        (lambda: MinimalFamily("pentagon", 3, ()), "unknown family kind 'pentagon'"),
        (lambda: MinimalFamily(["quad"], 3, ()), "unknown family kind ['quad']"),
        (lambda: MinimalFamily("triangle", 3, (1, 2, 2)), "triangle family takes 2 parameters"),
        (lambda: MinimalFamily("segment", 2, (1,)), "segment family takes 0 parameters"),
        (lambda: MinimalFamily("quad", 3, (2, 2)), "quad family takes 4 parameters"),
        (lambda: MinimalFamily("segment", 0), "square size must be a positive integer"),
        (lambda: MinimalFamily("triangle", 3, (0, 2)),
         "family parameters must be integers in 1..2"),
        (lambda: MinimalFamily("triangle", 3, (1, 1)), "triangle family needs a + b >= h"),
        (lambda: MinimalFamily("quad", 4, (1, 1, 1, 1)),
         "quad family needs min(a,b) + min(c,d) > h"),
        (lambda: list(minimal_families(0)), "square size must be a positive integer"),
        (lambda: list(minimal_families(True)), "square size must be a positive integer"),
    ])
    def test_messages(self, make, message):
        with pytest.raises(InvalidInputError) as info:
            make()
        assert str(info.value) == message


class TestPredicates:
    def test_triangle(self):
        assert triangle_minimal(3, 1, 2)
        assert not triangle_minimal(3, 1, 1)
        assert triangle_minimal(2, 1, 1)
        with pytest.raises(InvalidInputError):
            triangle_minimal(3, 0, 1)

    def test_quad(self):
        assert quad_minimal(3, 2, 2, 2, 2)
        assert quad_minimal(3, 1, 1, 1, 1)
        assert not quad_minimal(4, 2, 2, 2, 2)

    def test_clauses_mutually_exclusive(self):
        for h in range(2, 13):
            for a, b, c, d in itertools.product(range(1, h), repeat=4):
                assert not (min(a, b) + min(c, d) > h
                            and max(a, c) + max(b, d) < h)


class TestReflection:
    def test_involution(self):
        for h in range(2, 8):
            for params in itertools.product(range(1, h), repeat=4):
                back = quad_reflect_params(h, *quad_reflect_params(h, *params))
                assert back == params

    def test_swaps_clauses(self):
        for h in range(2, 9):
            for a, b, c, d in itertools.product(range(1, h), repeat=4):
                ra, rb, rc, rd = quad_reflect_params(h, a, b, c, d)
                assert (min(a, b) + min(c, d) > h) == \
                    (max(ra, rc) + max(rb, rd) < h)

    @staticmethod
    def raw_quad(h, a, b, c, d):
        return hull([(a, 0), (0, b), (h, h - c), (h - d, h)])

    def test_mirror_images_are_equivalent(self):
        for h in range(3, 7):
            for params in itertools.product(range(1, h), repeat=4):
                if min(params[0], params[1]) + min(params[2], params[3]) <= h:
                    continue
                mirrored = self.raw_quad(h, *quad_reflect_params(h, *params))
                assert lattice_equivalent(self.raw_quad(h, *params), mirrored)


class TestGeneration:
    def test_family_list_h3(self):
        fams = list(minimal_families(3))
        assert len(fams) == 5
        kinds = sorted(f.kind for f in fams)
        assert kinds == ["quad", "segment", "triangle", "triangle", "triangle"]
        assert MinimalFamily("quad", 3, (2, 2, 2, 2)) in fams

    @pytest.mark.parametrize("h,count", [(1, 1), (2, 2), (3, 4), (4, 8)])
    def test_class_counts(self, h, count):
        assert len(generate_minimal(h)) == count

    def test_sorted_and_distinct(self):
        classes = generate_minimal(4)
        assert classes == sorted(classes, key=lambda P: (len(P.vertices), P.vertices))
        assert len(classes) == len(set(classes))

    def test_realizations_are_sound(self):
        for h in range(1, 5):
            for fam in minimal_families(h):
                P = realize(fam)
                assert ls_square(P) == h
                assert is_minimal(P)

    def test_bad_h(self):
        with pytest.raises(InvalidInputError):
            list(minimal_families(0))
        with pytest.raises(InvalidInputError):
            list(minimal_families(True))
        with pytest.raises(InvalidInputError):
            generate_minimal(-1)

    def test_one_canonical_form_per_box_orbit(self, monkeypatch):
        # the per-member path written out, against the path that
        # canonicalises one family member per orbit of the box's
        # symmetries: 8 canonical forms for the 14 members at h=4
        for h in range(1, 11):
            per_member = sorted({canonical_form(realize(f)) for f in minimal_families(h)},
                                key=_class_key)
            assert generate_minimal(h) == per_member
        calls = []
        monkeypatch.setattr(minimal, "canonical_form", lambda P: calls.append(P) or canonical_form(P))
        generate_minimal(4)
        assert (len(calls), sum(1 for _ in minimal_families(4))) == (8, 14)

    def test_class_counts_are_box_orbits(self):
        # the classes generate_minimal finds, against the orbits of the
        # families' vertex sets under the 8 symmetries of the box [0, h]^2,
        # counted on integer points with no canonical form
        counts = [1, 2, 4, 8, 17, 32, 60, 102, 169, 262, 396, 572]
        for h, count in enumerate(counts, start=1):
            assert len(_box_orbits(h)) == count
            # _box_orbit's keys, one per orbit, over the family members
            assert len({minimal._box_orbit(h, realize(f).vertices)
                        for f in minimal_families(h)}) == count
            assert len(generate_minimal(h)) == count


def _box_orbits(h):
    """One representative per orbit of the vertex sets of the segment, the
    triangles with a + b >= h and the quadrilaterals of both clauses under
    the symmetries of the box [0, h]^2."""
    sets = [((0, 0), (h, 0))]
    sets += [((0, 0), (a, h), (h, b))
             for a in range(1, h) for b in range(1, h) if a + b >= h]
    sets += [((a, 0), (0, b), (h, h - c), (h - d, h))
             for a, b, c, d in itertools.product(range(1, h), repeat=4)
             if quad_minimal(h, a, b, c, d)]
    images = (lambda x, y: (x, y), lambda x, y: (h - x, y),
              lambda x, y: (x, h - y), lambda x, y: (h - x, h - y),
              lambda x, y: (y, x), lambda x, y: (h - y, x),
              lambda x, y: (y, h - x), lambda x, y: (h - y, h - x))
    return {min(tuple(sorted(f(x, y) for x, y in vs)) for f in images) for vs in sets}


class TestVerification:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_matches(self, h):
        report = verify_classification(h)
        assert report.matches
        assert report.h == h
        assert report.family_classes == report.search_classes
        assert report.only_in_families == ()
        assert report.only_in_search == ()

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_anchored_sweep_matches_full_grid(self, h):
        # the unanchored sweep: every polygon of {0..h}^2, each test in full
        full = set()
        for P in enumerate_convex(h, include_degenerate=True):
            if len(P.vertices) > 1 and ls_square(P) == h and is_minimal(P):
                full.add(canonical_form(P))
        report = verify_classification(h)
        assert set(report.search_classes) == full
        assert len(report.search_classes) == len(full)

    @pytest.mark.parametrize("h", [3, 4])
    def test_parallel_agrees(self, h):
        seq = verify_classification(h)
        par = verify_classification(h, jobs=2)
        assert seq == par

    def test_pool_generates_in_the_workers(self, monkeypatch):
        # each worker keeps its own count, so the calls counted here are
        # the main process's: none with a pool, some without
        grow, calls = enumeration._grow, []

        def counted(*args):
            calls.append(None)
            return grow(*args)

        monkeypatch.setattr(enumeration, "_grow", counted)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        par = verify_classification(4, jobs=2)
        assert calls == []
        assert verify_classification(4) == par
        assert calls

    def test_guards(self):
        with pytest.raises(ResourceLimitError):
            verify_classification(9)
        with pytest.raises(InvalidInputError):
            verify_classification(0)
        with pytest.raises(InvalidInputError):
            verify_classification(True)
        with pytest.raises(InvalidInputError):
            verify_classification(1, jobs=0)


def _has_long_pair(h, vs):
    """Whether two of the vertices vs differ by a vector whose gcd is at
    least h, i.e. span a segment of lattice length at least h: the
    reference for the pair prune of the sweep's generator."""
    return any(gcd(x1 - x2, y1 - y2) >= h
               for (x1, y1), (x2, y2) in itertools.combinations(vs, 2))


def _reference_has_smaller_image(vs):
    """The dihedral filter with every image built and compared in full:
    the reference for _has_smaller_image."""
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    for swap, fx, fy in _SYMMETRIES:
        a, b = (ys, xs) if swap else (xs, ys)
        if fx:
            top = max(a)
            a = [top - x for x in a]
        if fy:
            top = max(b)
            b = [top - y for y in b]
        if _cycle(list(zip(a, b)), swap ^ fx ^ fy) < vs:
            return True
    return False


def _holds_band_point(h, vs):
    """Whether vs, starting at (0, c), has a vertex on a side of the box
    [0, h]^2 whose coordinate along that side lies outside [c, h - c]:
    the reference for the band prune of the sweep's generator."""
    c = vs[0][1]
    return any((x in (0, h) and not c <= y <= h - c) or (y in (0, h) and not c <= x <= h - c)
               for x, y in vs)


# the directions of the forms x, -x, y, -y, x + y, -x - y, x - y and y - x
_COMPASS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))


def _has_unpinned_vertex(vs, directions=_COMPASS):
    """Whether some vertex of vs is the only maximiser of none of the
    forms p -> u . p, u in directions, with each form's maximisers
    listed: for the 8 forms +-x, +-y, +-(x + y), +-(x - y), the
    reference for the pinned rule of the sweep's generator."""
    pinned = set()
    for a, b in directions:
        values = [a * x + b * y for x, y in vs]
        top = max(values)
        maximisers = [v for v, t in zip(vs, values) if t == top]
        if len(maximisers) == 1:
            pinned.add(maximisers[0])
    return len(pinned) < len(vs)


def _box_unpinned(h, vs):
    """Whether vs has both spans h and a vertex that is the only maximiser
    of none of x, -x, y and -y: the reference for cut B of the sweep's
    generator."""
    return _spans(vs) == (h, h) and _has_unpinned_vertex(vs, _COMPASS[:4])


def _yielded(h, vs):
    """Whether the sweep's generator yields vs by its yield test: a point
    or segment, or square size h by _square_size_is.  This test holds for
    every tuple that cut A keeps too, so the tuple lists show cut A only
    through the chains it does not grow."""
    return len(vs) <= 2 or _square_size_is(h, vs)


def _segment_kept(h, vs):
    """Whether vs is neither a point nor a segment of lattice length below
    h: the reference for the segment rule of the sweep's generator."""
    return len(vs) >= 3 or (len(vs) == 2 and _has_long_pair(h, vs))


def _holds_chord(h, vs):
    """Whether the polygon hull(vs) holds lattice points (0, y) and (h, y),
    or (x, 0) and (x, h), found among its lattice points: the reference
    for the chord tuples, which the sweep's drop decisions reject."""
    points = set(lattice_points(hull(vs)))
    return any({(0, t), (h, t)} <= points or {(t, 0), (t, h)} <= points
               for t in range(h + 1))


def _reference_keeping_drops(h, vs):
    """The vertices v of vs whose other vertices span a polygon of square
    size h: the reference for the drop rejection."""
    return [v for i, v in enumerate(vs) if ls_square(hull(vs[:i] + vs[i + 1:])) == h]


def _stub(monkeypatch, fn, stub):
    """Replace fn by stub in every package module that binds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "latticesize" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, stub)


def _sweep_chains(h):
    return _chains(h, anchored=True, sweep=True)


def _survivors(h):
    """The tuples the sweep generates and the dihedral filter keeps."""
    return [vs for vs in _sweep_chains(h) if not _has_smaller_image(vs)]


def _uncut_grow(grid, chain, edge, lowest, banned, ends, *tops):
    """enumeration._grow in the sweep's mode with none of the decisions
    that read the chain's maxima, cuts A and B and the yield test: the
    walk with the pair, band and pinned prunes alone."""
    successors = grid.successors[edge]
    if successors is None:
        successors = grid.fill(edge)
    (x0, y0), (cx, cy) = chain[0], chain[-1]
    for w, wx, wy, bit, far, after, sector in successors:
        if (banned & bit or (wx - cx) * (y0 - cy) - (wy - cy) * (x0 - cx) <= 0
                or (lowest and wy >= cy) or ends[sector] & bit):
            continue
        if not (lowest and wy):
            yield (*chain, w)
        chain.append(w)
        yield from _uncut_grow(grid, chain, after, min(lowest, wy), banned | far, ends)
        chain.pop()


def _uncut_chains(h):
    """The sweep's walk at square size h through _uncut_grow, listed."""
    with mock.patch.object(enumeration, "_grow", _uncut_grow):
        return list(_sweep_chains(h))


def _uncut_survivors(h):
    """The tuples of _uncut_chains(h) that the dihedral filter keeps: the
    tuples the yield test and _sweep_one decide when no cut pre-empts
    them."""
    return [vs for vs in _uncut_chains(h) if not _has_smaller_image(vs)]


def _spans(vs):
    return max(x for x, _ in vs), max(y for _, y in vs)


def _unfiltered_sweep_one(h, P):
    """The sweep's per-polygon test before its rejections on vertex tuples."""
    if len(P.vertices) == 1:
        return None
    if max(width(P, (1, 0)), width(P, (0, 1))) < h:
        return None
    if not is_minimal(P):
        return None
    C = canonical_form(P)
    return C if max(max(v.x, v.y) for v in C.vertices) == h else None


class TestSweepFilters:
    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_classes_match_unfiltered_sweep(self, h):
        unfiltered = {_unfiltered_sweep_one(h, hull(vs)) for vs in _anchored_chains(h)}
        unfiltered.discard(None)
        report = verify_classification(h)
        assert set(report.search_classes) == unfiltered
        assert report.matches

    @pytest.mark.parametrize("h,count", [(1, 2), (2, 3), (3, 11), (4, 47), (5, 231)])
    def test_survivor_counts(self, h, count):
        # a prune or filter that rejects too little keeps the class set,
        # so only the count of tuples it leaves shows it
        assert len(_survivors(h)) == count

    @pytest.mark.parametrize("h,count", [(1, 2), (2, 3), (3, 9), (4, 22), (5, 56)])
    def test_built_counts(self, h, count, monkeypatch):
        # the same for the square-size and drop tests, in the
        # polygons built, whose lattice points are listed once each; the
        # minimal ones, by is_minimal, reach canonical_form, whose
        # stand-in rejects them, and the sweep reduces none of them
        built, reached, slow = [], [], []
        _stub(monkeypatch, ls_square, lambda P: slow.append(P) or -1)
        _stub(monkeypatch, is_minimal, lambda P: slow.append(P))
        monkeypatch.setattr(minimal, "lattice_points",
                            lambda P: built.append(P.vertices) or lattice_points(P))
        monkeypatch.setattr(minimal, "canonical_form", lambda P: reached.append(P.vertices))
        assert not any(_sweep_one(h, vs) for vs in _sweep_chains(h))
        assert (len(built), len(reached), slow) == (count, count - _LATTICE_DROPS[h], [])
        monkeypatch.undo()
        _, _, lattice, left = _decided_tuples(h)
        assert sorted(built) == sorted(lattice + left)
        assert reached == left == [vs for vs in built if is_minimal(hull(vs))]

    def test_dihedral_filter_sees_only_square_size_h(self, monkeypatch):
        # the walk yields only tuples of square size h, so the dihedral
        # filter runs on each of them, 131 at h=4.  Building every image
        # would keep every decision, so only the count of images built,
        # 177, shows the tie rule: each starts where its tuple does, at
        # (0, c)
        h = 4
        filtered, built = [], []
        image = enumeration._image
        monkeypatch.setattr(minimal, "_has_smaller_image",
                            lambda vs: filtered.append(vs) or _has_smaller_image(vs))
        monkeypatch.setattr(enumeration, "_image", lambda *args: built.append(args) or image(*args))
        for vs in _sweep_chains(h):
            _sweep_one(h, vs)
        assert filtered == list(_sweep_chains(h))
        assert (len(filtered), len(built)) == (131, 177)
        assert all(image(vs, *rest)[0] == vs[0] for vs, *rest in built)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_pair_rejections_are_not_minimal(self, h):
        rejected = [vs for vs in _anchored_chains(h)
                    if len(vs) >= 3 and _has_long_pair(h, vs)]
        assert rejected
        assert not any(is_minimal(hull(vs)) for vs in rejected)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_chord_tuples_are_rejected(self, h):
        # every anchored tuple with 3 or more vertices that holds a chord,
        # and so has square size h: no decision reads the chord, and a
        # drop decision rejects it
        held = [vs for vs in _anchored_chains(h) if len(vs) >= 3 and _holds_chord(h, vs)]
        assert held
        assert all(_square_size_is(h, vs) and _sweep_one(h, vs) is None for vs in held)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_decisions_match_the_references(self, h, monkeypatch):
        # the walk's square-size decision and _sweep_one's three
        # decisions, on the tuples of square size h, against tests
        # written out separately, the square size and the vertex drops
        # through ls_square and minimality through is_minimal; a tuple
        # that none rejects reaches the stand-in of canonical_form
        reached = []
        monkeypatch.setattr(minimal, "canonical_form", lambda P: reached.append(P))
        for vs in _anchored_chains(h):
            X, Y = _spans(vs)
            sized = not (X < h and Y < h) and ls_square(hull(vs)) == h
            assert _square_size_is(h, vs) == sized, vs
            rejected = not sized or _reference_has_smaller_image(vs)
            if not rejected:
                kept = _reference_keeping_drops(h, vs)
                # conv of the other vertices lies in the drop, which so
                # keeps square size h as well
                assert all(ls_square(drop_vertex(hull(vs), v)) == h for v in kept)
                rejected = not is_minimal(hull(vs))
                assert rejected or not kept
            reached.clear()
            assert not sized or _sweep_one(h, vs) is None
            assert len(reached) == (not rejected), vs

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6])
    def test_dihedral_filter_matches_reference(self, h):
        # every anchored tuple up to h=4, 18,019 there (the 178,028 at h=5
        # agree too, outside Tier-1), then the sweep's tuples, 2,650 at
        # h=5 and 11,250 at h=6
        chains = _anchored_chains(h) if h <= 4 else _sweep_chains(h)
        assert all(_has_smaller_image(vs) == _reference_has_smaller_image(vs)
                   for vs in chains)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_dihedral_rejections_are_not_canonical(self, h):
        rejected = [vs for vs in _anchored_chains(h) if _has_smaller_image(vs)]
        assert rejected
        for vs in rejected:
            P = hull(vs)
            assert canonical_form(P) != P


class TestSweepPrunes:
    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_prunes_keep_the_filtered_list(self, h):
        # the unpruned way: every anchored tuple, then the segment, pair,
        # pinned, cut B, yield and dihedral filters as tuple tests
        want = [vs for vs in _anchored_chains(h)
                if _segment_kept(h, vs) and not (len(vs) >= 3 and _has_long_pair(h, vs))
                and not _has_unpinned_vertex(vs) and not _box_unpinned(h, vs)
                and _yielded(h, vs) and not _has_smaller_image(vs)]
        assert _survivors(h) == want

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_prunes_drop_exactly_the_pruned_tuples(self, h):
        # the anchored tuples less the points and short segments, those
        # with a long pair (3 or more vertices), a band point, an unpinned
        # vertex or a vertex cut B drops, and those the yield test skips,
        # in the same order
        want = [vs for vs in _anchored_chains(h)
                if _segment_kept(h, vs) and not (len(vs) >= 3 and _has_long_pair(h, vs))
                and not _holds_band_point(h, vs) and not _has_unpinned_vertex(vs)
                and not _box_unpinned(h, vs) and _yielded(h, vs)]
        assert list(_sweep_chains(h)) == want

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_band_points_are_rejected(self, h):
        held = [vs for vs in _anchored_chains(h) if _holds_band_point(h, vs)]
        assert held
        assert all(_reference_has_smaller_image(vs) for vs in held)

    @pytest.mark.parametrize("h,cut", [(2, 6), (3, 214), (4, 3_314)])
    def test_unpinned_tuples_are_rejected(self, h, cut):
        # every anchored tuple with an unpinned vertex (none at h=1), and
        # the tuples the rule cuts from the sweep's walk, by the audit
        held = [vs for vs in _anchored_chains(h) if _has_unpinned_vertex(vs)]
        assert held
        assert all(not _square_size_is(h, vs) or _sweep_one(h, vs) is None for vs in held)
        assert _audit_pinned(h) == (cut, 0)

    @pytest.mark.parametrize("h,cut", [(2, 5), (3, 63), (4, 400), (5, 1_941), (6, 8_203),
                                       (7, 30_773)])
    def test_cut_tuples_are_rejected(self, h, cut):
        # the tuples cuts A and B and the yield test drop from the walk
        # with the prunes alone, by the audit; up to h=6 cut A on every
        # edge heading down, backward or not, drops the same tuples
        assert _audit_cuts(h) == (cut, 0)

    def test_pinned_lookup_matches_the_definition(self):
        # every b, c, w of {-3..3}^2 turning strictly left at c: the
        # lookup on the sectors of c - b and w - c against c being the
        # only maximiser of one of the 8 forms over the three points
        square = list(itertools.product(range(-3, 4), repeat=2))
        turns = 0
        for (bx, by), (cx, cy), (wx, wy) in itertools.product(square, repeat=3):
            d, e = (cx - bx, cy - by), (wx - cx, wy - cy)
            if d[0] * e[1] - d[1] * e[0] <= 0:
                continue
            turns += 1
            pinned = any(u * cx + v * cy > max(u * bx + v * by, u * wx + v * wy)
                         for u, v in _COMPASS)
            lookup = enumeration._PINNED[enumeration._sector(*d) * 16 + enumeration._sector(*e)]
            assert lookup == pinned, (d, e)
        assert turns

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6])
    def test_walk_yields_only_square_size_h(self, h):
        # every tuple of the sweep's walk, 2,992 at h=6, by ls_square:
        # _sweep_one makes no size decision of its own
        chains = list(_sweep_chains(h))
        assert chains
        assert all(ls_square(hull(vs)) == h for vs in chains)

    @pytest.mark.parametrize("h,edges", [(4, 28), (7, 90), (8, 135)])
    def test_sweep_starts(self, h, edges):
        # the segment rule leaves the lone point and segments of (0, 0)
        # alone, and a start that yields nothing is not made
        grid = enumeration._Grid(h, True, True)
        starts = list(grid.starts())
        assert [s for s in starts if len(s) == 1] == [((0, 0),)]
        assert sum(len(s) == 2 for s in starts) == edges
        assert all(next(grid.chains(s), None) for s in starts if len(s) == 1)

    def test_prunes_skip_chains(self, monkeypatch):
        # 18,019 anchored tuples of {0..4}^2 in 18,051 _grow calls
        # (test_anchored_pruning_skips_chains); the prunes and cuts leave
        # 131 in 464
        grow, calls = enumeration._grow, []

        def counted(*args):
            calls.append(None)
            return grow(*args)

        monkeypatch.setattr(enumeration, "_grow", counted)
        assert sum(1 for _ in _anchored_chains(4)) == 18_019
        unpruned = len(calls)
        assert sum(1 for _ in _sweep_chains(4)) == 131
        assert (unpruned, len(calls) - unpruned) == (18_051, 464)


class TestSpanDecisions:
    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_both_spans_h_is_square_size_h(self, h):
        square = [vs for vs in _uncut_survivors(h) if _spans(vs) == (h, h)]
        assert square
        assert all(ls_square(hull(vs)) == h for vs in square)

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_both_spans_below_h_is_smaller(self, h):
        # every anchored tuple with both spans below h, which cut A and
        # the yield test drop: the lone point at h=1, which the segment
        # rule keeps out of the walk, up to 18,019 at h=5
        small = [vs for vs in _anchored_chains(h) if max(_spans(vs)) < h]
        assert small
        assert all(ls_square(hull(vs)) < h for vs in small)


# tuples of the sweep at h = 1..5 that the lattice-drop decision rejects
_LATTICE_DROPS = {1: 0, 2: 0, 3: 2, 4: 6, 5: 17}


def _decided_tuples(h):
    """The survivors of the walk without cuts with a span h, split into
    those the square size rejects (the yield test, in the sweep's walk),
    those a vertex drop rejects, those a drop over the lattice points
    rejects and the ones left, which reach canonical_form.  The cuts drop
    only size and drop rejections, so the last two lists are the sweep's
    too."""
    size, drop, lattice, left = [], [], [], []
    for vs in _uncut_survivors(h):
        if max(_spans(vs)) < h:
            continue
        if not _square_size_is(h, vs):
            size.append(vs)
        elif any(_square_size_is(h, vs[:i] + vs[i + 1:]) for i in range(len(vs))):
            drop.append(vs)
        else:
            points = lattice_points(hull(vs))
            keeps = any(_square_size_is(h, [p for p in points if p != v]) for v in vs)
            (lattice if keeps else left).append(vs)
    return size, drop, lattice, left


def _audit_rejections(h):
    """The three rejections of the sweep at square size h that read no
    canonical form checked by the slow path: (size rejections, vertex-drop
    rejections, lattice-drop rejections, disagreements), where a size
    rejection disagrees unless ls_square(hull(vs)) < h and a drop
    rejection of either kind unless is_minimal(hull(vs)) is False.
    Outside the tests, run it as
    PYTHONPATH=src:tests python -c "import test_minimal as t; print(t._audit_rejections(6))"
    """
    size, drop, lattice, _ = _decided_tuples(h)
    wrong = (sum(ls_square(hull(vs)) >= h for vs in size)
             + sum(is_minimal(hull(vs)) for vs in drop + lattice))
    return len(size), len(drop), len(lattice), wrong


def _audit_pinned(h):
    """The pinned rule of the sweep's generator at square size h checked
    against the same walk without it, both without the cuts that read the
    chain's maxima (_uncut_chains): (tuples the rule cuts,
    disagreements), where a cut tuple disagrees unless it has an unpinned
    vertex, by the reference, and, if it has square size h, _sweep_one
    rejects it, and the walk with the rule disagrees once more unless it
    is a subsequence of the walk without it.  Outside the tests, run it as
    PYTHONPATH=src:tests python -c "import test_minimal as t; print(t._audit_pinned(7))"
    """
    kept = iter(_uncut_chains(h))
    head = next(kept, None)
    cut = wrong = 0
    # with every turn pinned, no successor is dropped and no point is
    # banned for the rule
    with (mock.patch.object(enumeration, "_PINNED", (True,) * 256),
          mock.patch.object(enumeration, "_grow", _uncut_grow)):
        for vs in _sweep_chains(h):
            if vs == head:
                head = next(kept, None)
            else:
                cut += 1
                wrong += not _has_unpinned_vertex(vs) or (
                    _square_size_is(h, vs) and _sweep_one(h, vs) is not None)
    return cut, wrong + (head is not None)


def _audit_cuts(h):
    """Cuts A and B and the yield test of the sweep's generator at square
    size h checked against the same walk without them (_uncut_chains):
    (tuples they drop, disagreements), where a dropped tuple disagrees
    unless its square size is not h, or cut B's reference drops it and
    _sweep_one rejects it, and the walk with them disagrees once more
    unless it is a subsequence of the walk without them.  Outside the
    tests, run it as
    PYTHONPATH=src:tests python -c "import test_minimal as t; print(t._audit_cuts(7))"
    """
    kept = iter(list(_sweep_chains(h)))
    head = next(kept, None)
    cut = wrong = 0
    for vs in _uncut_chains(h):
        if vs == head:
            head = next(kept, None)
        else:
            cut += 1
            wrong += _square_size_is(h, vs) and (
                not _box_unpinned(h, vs) or _sweep_one(h, vs) is not None)
    return cut, wrong + (head is not None)


class TestIntegerDecisions:
    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_square_size_is_exact_on_the_grid(self, h):
        # every anchored tuple with one span h and every vertex-deleted
        # subtuple of one, each vertex set tested once up to translation
        sets = set()
        for vs in _anchored_chains(h):
            if max(_spans(vs)) == h > min(_spans(vs)):
                sets.add(frozenset(vs))
                for i in range(len(vs)):
                    rest = vs[:i] + vs[i + 1:]
                    x0, y0 = min(x for x, _ in rest), min(y for _, y in rest)
                    sets.add(frozenset((x - x0, y - y0) for x, y in rest))
        assert sets
        for pts in sets:
            P = hull(list(pts))
            assert _square_size_is(h, P.vertices) == (ls_square(P) == h), P

    def test_square_size_is_exact_on_random_sets(self):
        # seeded point sets in [0, h]^2, most with a span h; two points
        # alone make a segment
        rng = random.Random(19)
        for h in range(1, 13):
            for _ in range(200):
                pts = [(rng.randint(0, h), rng.randint(0, h)) for _ in range(rng.randint(0, 4))]
                if rng.random() < 0.8 or not pts:
                    pts += [(0, rng.randint(0, h)), (h, rng.randint(0, h))]
                if rng.random() < 0.5:
                    pts = [(y, x) for x, y in pts]
                P = hull(pts)
                assert _square_size_is(h, P.vertices) == (ls_square(P) == h), P

    @pytest.mark.parametrize("h,size,drop", [
        (1, 0, 0), (2, 0, 0), (3, 3, 4), (4, 24, 50), (5, 112, 339)])
    def test_rejections_are_sound(self, h, size, drop):
        # every size rejection is below h and every drop rejection, over
        # the vertices or the lattice points, is not minimal, by ls_square
        # and is_minimal
        assert _audit_rejections(h) == (size, drop, _LATTICE_DROPS[h], 0)
