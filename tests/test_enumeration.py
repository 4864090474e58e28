import itertools
import multiprocessing
import os
import pickle

import pytest

from latticesize import (
    ConvexPolygon,
    InvalidInputError,
    area,
    canonical_form,
    enumerate_classes,
    enumerate_convex,
    hull,
    ls_square,
)
from latticesize import enumeration
from latticesize.enumeration import _Grid, _anchored_chains, _chains, map_polygons


class TestCounts:
    def test_unit_grid(self):
        polys = list(enumerate_convex(1))
        assert len(polys) == 5
        everything = list(enumerate_convex(1, include_degenerate=True))
        assert len(everything) == 5 + 6 + 4
        assert sum(1 for P in everything if P.dim == 1) == 6
        assert sum(1 for P in everything if P.dim == 0) == 4

    def test_two_grid(self):
        polys = list(enumerate_convex(2))
        assert len(polys) == 168
        by_size = {}
        for P in polys:
            by_size[len(P.vertices)] = by_size.get(len(P.vertices), 0) + 1
        assert by_size == {3: 76, 4: 70, 5: 20, 6: 2}
        everything = list(enumerate_convex(2, include_degenerate=True))
        assert sum(1 for P in everything if P.dim == 1) == 36
        assert sum(1 for P in everything if P.dim == 0) == 9

    def test_three_grid(self, corpus3):
        assert len(corpus3) == 2719
        by_size = {}
        for P in corpus3:
            by_size[len(P.vertices)] = by_size.get(len(P.vertices), 0) + 1
        assert by_size == {3: 516, 4: 1038, 5: 848, 6: 292, 7: 24, 8: 1}
        segments = [P for P in enumerate_convex(3, include_degenerate=True)
                    if P.dim == 1]
        assert len(segments) == 120


class TestExhaustiveness:
    def grid_subsets(self, n):
        pts = [(x, y) for x in range(n + 1) for y in range(n + 1)]
        seen = set()
        for k in range(1, len(pts) + 1):
            for subset in itertools.combinations(pts, k):
                P = hull(subset)
                if set((v.x, v.y) for v in P.vertices) == set(subset):
                    seen.add(P.vertices)
        return seen

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_subset_scan(self, n):
        expected = self.grid_subsets(n)
        got = list(enumerate_convex(n, include_degenerate=True))
        assert len(got) == len(set(P.vertices for P in got))
        assert set(P.vertices for P in got) == expected

    def test_all_outputs_valid(self, corpus3):
        for P in corpus3:
            assert ConvexPolygon(P.vertices) == P

    def test_square_size_bounded_by_grid(self, corpus3):
        assert all(ls_square(P) <= 3 for P in corpus3)


def _reference_chains(n):
    """The earlier chain generator, kept verbatim as the reference for the
    output order: no pruning, a linear membership test per candidate."""
    def group(dx, dy):
        return 0 if dx > 0 or (dx == 0 and dy > 0) else 1

    def grow(v0, chain, last, pool):
        x0, y0 = v0
        cx, cy = chain[-1]
        for w in pool:
            if w in chain:
                continue
            ex, ey = w[0] - cx, w[1] - cy
            if last is not None:
                if group(*last) > group(ex, ey) or last[0] * ey - last[1] * ex <= 0:
                    continue
            if len(chain) >= 2:
                fx, fy = chain[1][0] - x0, chain[1][1] - y0
                gx, gy = x0 - w[0], y0 - w[1]
                if (group(ex, ey) <= group(gx, gy)
                        and ex * gy - ey * gx > 0
                        and gx * fy - gy * fx > 0):
                    yield (*chain, w)
            chain.append(w)
            yield from grow(v0, chain, (ex, ey), pool)
            chain.pop()

    grid = [(x, y) for x in range(n + 1) for y in range(n + 1)]
    for i, v0 in enumerate(grid):
        yield (v0,)
        pool = grid[i + 1:]
        for w in pool:
            yield (v0, w)
        yield from grow(v0, [v0], None, pool)


class TestOrder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_order_unchanged(self, n):
        # the CLI prints this order when --sorted is not given
        got = [tuple((v.x, v.y) for v in P.vertices)
               for P in enumerate_convex(n, include_degenerate=True)]
        assert got == list(_reference_chains(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_anchored_is_the_corner_subsequence(self, n):
        everything = enumerate_convex(n, include_degenerate=True)
        want = [tuple((v.x, v.y) for v in P.vertices) for P in everything
                if min(v.x for v in P.vertices) == 0 and min(v.y for v in P.vertices) == 0]
        assert list(_anchored_chains(n)) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_anchored_pruning_keeps_the_filtered_chains(self, n):
        # the unpruned way: grow every chain from the column x = 0, then
        # keep those whose smallest y is 0
        column = itertools.takewhile(lambda chain: chain[0][0] == 0, _chains(n))
        want = [chain for chain in column if min(y for _, y in chain) == 0]
        assert list(_anchored_chains(n)) == want

    def test_anchored_pruning_skips_chains(self, monkeypatch):
        # 24,265 chains from the column x = 0 of {0..4}^2 without pruning,
        # 18,019 of them reaching y = 0; the prune shows in fewer _grow calls
        grow, calls = enumeration._grow, []

        def counted(*args):
            calls.append(None)
            return grow(*args)

        monkeypatch.setattr(enumeration, "_grow", counted)
        assert sum(1 for _ in _chains(4, anchored=True)) == 18_019
        pruned = len(calls)
        column = itertools.takewhile(lambda chain: chain[0][0] == 0, _chains(4))
        assert sum(1 for _ in column) == 24_265
        assert (pruned, len(calls) - pruned) == (18_051, 24_260)

    def test_anchored_guard(self):
        with pytest.raises(InvalidInputError):
            _anchored_chains(0)
        with pytest.raises(InvalidInputError):
            _anchored_chains(True)


def _seen_set_classes(n, include_degenerate):
    """The earlier class path, kept as the reference: the canonical form
    of every polygon of the full grid, each kept the first time it is
    seen."""
    seen = set()
    for P in enumerate_convex(n, include_degenerate):
        C = canonical_form(P)
        if C not in seen:
            seen.add(C)
            yield C


class TestClasses:
    def test_unit_grid_classes(self):
        assert len(list(enumerate_classes(1))) == 2
        assert len(list(enumerate_classes(1, include_degenerate=True))) == 4

    def test_class_reps_are_canonical(self):
        reps = list(enumerate_classes(2))
        assert len(reps) == len(set(reps))
        for P in reps:
            assert canonical_form(P) == P

    def test_covers_corpus(self, corpus3):
        reps = set(P.vertices for P in enumerate_classes(3))
        for P in corpus3:
            assert canonical_form(P).vertices in reps

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_seen_set_reference(self, n, degenerate):
        got = list(enumerate_classes(n, degenerate))
        assert len(got) == len(set(got))
        assert set(got) == set(_seen_set_classes(n, degenerate))

    def test_four_grid_matches_seen_set_reference(self):
        got = list(enumerate_classes(4))
        assert len(got) == len(set(got)) == 1_517
        assert set(got) == set(_seen_set_classes(4, False))


class TestGuards:
    def test_zero_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            enumerate_convex(0)

    def test_large_grid_needs_explicit_limit(self):
        with pytest.raises(InvalidInputError):
            enumerate_convex(6)
        with pytest.raises(InvalidInputError):
            enumerate_classes(6)

    @pytest.mark.parametrize("n", [0, 6, 2.0, "3", True])
    def test_one_guard_for_both_enumerators(self, n):
        for enumerate_grid in (enumerate_convex, enumerate_classes):
            with pytest.raises(InvalidInputError, match="grid size"):
                enumerate_grid(n)

    def test_limit_override(self):
        stream = enumerate_convex(6, limit=6)
        first = next(iter(stream))
        assert ConvexPolygon(first.vertices) == first


class TestMapPolygons:
    def test_serial_and_pooled_agree(self):
        polys = list(enumerate_convex(2))
        want = [area(P) for P in polys]
        assert list(map_polygons(area, polys, 1)) == want
        assert list(map_polygons(area, iter(polys), 2)) == want

    def test_unpickled_grid_is_shared(self):
        # a worker rebuilds a pooled sweep's grid once for all its starts
        grid = _Grid(5, anchored=True, sweep=True)
        first = pickle.loads(pickle.dumps(grid))
        assert pickle.loads(pickle.dumps(grid)) is first
        assert (first.n, first.anchored, first.sweep) == (5, True, True)
        assert list(first.starts()) == list(grid.starts())

    @pytest.mark.parametrize("jobs", [0, -1, "2", 1.5, None, True])
    def test_bad_worker_count_rejected(self, jobs):
        with pytest.raises(InvalidInputError):
            map_polygons(area, [], jobs)

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # and a list goes one item per task, a stream in chunks
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks, chunksize=1):
                sizes.append(chunksize)
                return map(fn, tasks)

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        polys = list(enumerate_convex(1))
        assert list(map_polygons(area, polys, 10**6)) == [area(P) for P in polys]
        assert list(map_polygons(area, iter(polys), 3)) == [area(P) for P in polys]
        assert sizes == [2, 1, 2, enumeration._BATCH]
