"""Tests for the uniform-grid spatial index (repro.geometry.spatial).

The index is an accelerator with an exactness contract: every query must
return precisely what the linear-scan :class:`BruteForceIndex` (the repo's
spatial oracle, with the same ``1e-12`` distance tolerance) returns, in
ID-sorted order.  The property tests here drive that contract with random
point sets, including points placed at distance *exactly* ``r`` from the
query point, and check the oracle itself against a scan written out inline.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import (
    DISTANCE_TOLERANCE,
    BruteForceIndex,
    Point,
    UniformGridIndex,
    distances_from,
    pairwise_distances,
)

finite_coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
point_lists = st.lists(st.tuples(finite_coord, finite_coord), min_size=0, max_size=40)




class TestNeighborsWithin:
    @settings(max_examples=200, deadline=None)
    @given(
        points=point_lists,
        query=st.tuples(finite_coord, finite_coord),
        radius=st.floats(min_value=0.0, max_value=5e3, allow_nan=False),
        cell_size=st.floats(min_value=0.5, max_value=2e3, allow_nan=False),
    )
    def test_matches_brute_force(self, points, query, radius, cell_size):
        index = UniformGridIndex(cell_size, enumerate(points))
        oracle = BruteForceIndex(cell_size, enumerate(points))
        assert index.neighbors_within(query, radius) == oracle.neighbors_within(query, radius)

    @settings(max_examples=100, deadline=None)
    @given(
        points=point_lists,
        query=st.tuples(finite_coord, finite_coord),
        radius=st.floats(min_value=0.0, max_value=5e3, allow_nan=False),
    )
    def test_exclude_drops_exactly_one_key(self, points, query, radius):
        if not points:
            return
        index = UniformGridIndex(100.0, enumerate(points))
        full = index.neighbors_within(query, radius)
        without = index.neighbors_within(query, radius, exclude=0)
        assert without == [k for k in full if k != 0]

    def test_boundary_point_at_exact_radius_included(self):
        # Matches the `<= r + 1e-12` tolerance used by PowerModel.can_reach
        # and Network.neighbors_within: exactly-at-range points count.
        index = UniformGridIndex(1.0, [(0, (0.0, 0.0)), (1, (3.0, 0.0)), (2, (0.0, 3.0))])
        assert index.neighbors_within((0.0, 0.0), 3.0) == [0, 1, 2]

    def test_point_just_within_tolerance_included(self):
        index = UniformGridIndex(1.0, [(0, (1.0 + 5e-13, 0.0))])
        assert index.neighbors_within((0.0, 0.0), 1.0) == [0]

    def test_point_beyond_tolerance_excluded(self):
        index = UniformGridIndex(1.0, [(0, (1.0 + 1e-9, 0.0))])
        assert index.neighbors_within((0.0, 0.0), 1.0) == []

    def test_negative_radius_returns_nothing(self):
        index = UniformGridIndex(1.0, [(0, (0.0, 0.0))])
        assert index.neighbors_within((0.0, 0.0), -1.0) == []

    def test_accepts_point_objects(self):
        index = UniformGridIndex(1.0, [(7, Point(2.0, 2.0))])
        assert index.neighbors_within(Point(2.0, 2.5), 1.0) == [7]

    def test_radius_larger_than_indexed_area(self):
        points = [(i, (float(i), 0.0)) for i in range(10)]
        index = UniformGridIndex(0.25, points)
        assert index.neighbors_within((5.0, 0.0), 1e6) == list(range(10))


class TestNeighborsWithDistances:
    @settings(max_examples=100, deadline=None)
    @given(
        points=point_lists,
        query=st.tuples(finite_coord, finite_coord),
        radius=st.floats(min_value=0.0, max_value=5e3, allow_nan=False),
    )
    def test_distances_match_hypot_exactly(self, points, query, radius):
        index = UniformGridIndex(250.0, enumerate(points))
        result = index.neighbors_with_distances(query, radius)
        assert result == BruteForceIndex(250.0, enumerate(points)).neighbors_with_distances(query, radius)
        qx, qy = query
        for key, dist in result:
            x, y = points[key]
            assert dist == math.hypot(x - qx, y - qy)


class TestPairsWithin:
    @settings(max_examples=150, deadline=None)
    @given(
        points=point_lists,
        radius=st.floats(min_value=0.0, max_value=5e3, allow_nan=False),
        cell_size=st.floats(min_value=0.5, max_value=2e3, allow_nan=False),
    )
    # The partner lies across a cell edge at exactly the tolerance.
    @example(points=[(0.0, 1e-12), (0.0, -1.4412740484781873e-167)], radius=0.0, cell_size=1.0)
    def test_matches_brute_force_pairs_in_order(self, points, radius, cell_size):
        index = UniformGridIndex(cell_size, enumerate(points))
        expected = []
        for i, (ax, ay) in enumerate(points):
            for j in range(i + 1, len(points)):
                bx, by = points[j]
                d = math.hypot(bx - ax, by - ay)
                if d <= radius + DISTANCE_TOLERANCE:
                    expected.append((i, j, d))
        assert list(index.pairs_within(radius)) == expected
        assert BruteForceIndex(cell_size, enumerate(points)).pairs_within(radius) == expected


class TestBruteForceIndex:
    """The oracle itself, against a scan written out inline."""

    @settings(max_examples=100, deadline=None)
    @given(
        points=point_lists,
        query=st.tuples(finite_coord, finite_coord),
        radius=st.floats(min_value=-1.0, max_value=5e3, allow_nan=False),
        exclude=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    )
    def test_neighbors_match_inline_scan(self, points, query, radius, exclude):
        qx, qy = query
        expected = [
            (key, math.hypot(x - qx, y - qy))
            for key, (x, y) in enumerate(points)
            if radius >= 0
            and key != exclude
            and math.hypot(x - qx, y - qy) <= radius + DISTANCE_TOLERANCE
        ]
        oracle = BruteForceIndex(1.0, enumerate(points))
        assert oracle.neighbors_with_distances(query, radius, exclude=exclude) == expected
        assert oracle.neighbors_within(query, radius, exclude=exclude) == [key for key, _ in expected]
        assert oracle.neighbor_queries == 2

    def test_membership_counters_and_errors(self):
        oracle = BruteForceIndex(1.0, [(3, (0.0, 0.0)), (1, Point(5.0, 5.0))])
        assert len(oracle) == 2 and 3 in oracle and 2 not in oracle
        assert oracle.pairs_within(10.0) == [(1, 3, math.hypot(5.0, 5.0))]
        assert oracle.pair_queries == 1
        with pytest.raises(ValueError):
            oracle.insert(1, (0.0, 0.0))
        with pytest.raises(KeyError):
            oracle.delete(42)
        with pytest.raises(KeyError):
            oracle.move(42, (0.0, 0.0))


class TestConstruction:
    def test_rejects_nonpositive_cell_size(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                UniformGridIndex(bad)

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError):
            UniformGridIndex(1.0, [(0, (0.0, 0.0)), (0, (1.0, 1.0))])

    def test_empty_index(self):
        index = UniformGridIndex(1.0)
        assert len(index) == 0
        assert index.neighbors_within((0.0, 0.0), 10.0) == []
        assert list(index.pairs_within(10.0)) == []

    def test_introspection(self):
        index = UniformGridIndex(1.0, [(3, (0.0, 0.0)), (1, (5.0, 5.0))])
        assert index.keys() == [1, 3]
        assert 3 in index and 2 not in index
        assert index.position_of(1) == (5.0, 5.0)
        assert index.cell_count() == 2


class TestVectorizedHelpers:
    @settings(max_examples=50, deadline=None)
    @given(points=st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=15))
    def test_pairwise_distances_matches_hypot(self, points):
        matrix = pairwise_distances([Point(x, y) for x, y in points])
        for i, (ax, ay) in enumerate(points):
            for j, (bx, by) in enumerate(points):
                assert matrix[i][j] == pytest.approx(math.hypot(ax - bx, ay - by), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        origin=st.tuples(finite_coord, finite_coord),
        points=st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=15),
    )
    def test_distances_from_matches_hypot(self, origin, points):
        ox, oy = origin
        result = distances_from(Point(ox, oy), [Point(x, y) for x, y in points])
        for got, (x, y) in zip(result, points):
            assert got == pytest.approx(math.hypot(x - ox, y - oy), abs=1e-9)


class TestDeltaUpdates:
    """insert/delete/move must leave the index indistinguishable from a rebuild
    and from the oracle that received the same updates."""

    def test_patched_index_matches_fresh_rebuild(self):
        rng = random.Random(17)
        points = {i: (rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in range(60)}
        index = UniformGridIndex(100.0, points.items())
        oracle = BruteForceIndex(100.0, points.items())
        for step in range(120):
            op = rng.choice(["move", "insert", "delete"])
            if op == "move" and points:
                key = rng.choice(sorted(points))
                points[key] = (rng.uniform(0, 1000), rng.uniform(0, 1000))
                index.move(key, points[key])
                oracle.move(key, points[key])
            elif op == "insert":
                key = 1000 + step
                points[key] = (rng.uniform(0, 1000), rng.uniform(0, 1000))
                index.insert(key, points[key])
                oracle.insert(key, points[key])
            elif points:
                key = rng.choice(sorted(points))
                del points[key]
                index.delete(key)
                oracle.delete(key)
        fresh = UniformGridIndex(100.0, points.items())
        assert index.keys() == fresh.keys()
        assert len(oracle) == len(index)
        for radius in (0.0, 75.0, 150.0, 400.0):
            query = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            for reference in (fresh, oracle):
                assert index.neighbors_within(query, radius) == reference.neighbors_within(query, radius)
                assert index.neighbors_with_distances(query, radius) == \
                    reference.neighbors_with_distances(query, radius)
        assert index.pairs_within(150.0) == fresh.pairs_within(150.0) == oracle.pairs_within(150.0)

    def test_mutations_drop_the_pair_cache(self):
        index = UniformGridIndex(100.0, [(1, (0.0, 0.0)), (2, (50.0, 0.0))])
        assert index.pairs_within(100.0) == [(1, 2, 50.0)]
        index.move(1, (500.0, 500.0))
        assert index.pairs_within(100.0) == []
        index.insert(3, (40.0, 0.0))
        assert index.pairs_within(100.0) == [(2, 3, 10.0)]
        index.delete(3)
        assert index.pairs_within(100.0) == []

    def test_noop_move_keeps_the_pair_cache(self):
        index = UniformGridIndex(100.0, [(1, (0.0, 0.0)), (2, (50.0, 0.0))])
        first = index.pairs_within(100.0)
        index.move(1, (0.0, 0.0))
        assert index.pairs_within(100.0) is first

    def test_insert_duplicate_key_raises(self):
        index = UniformGridIndex(10.0, [(1, (0.0, 0.0))])
        with pytest.raises(ValueError):
            index.insert(1, (5.0, 5.0))

    def test_delete_missing_key_raises(self):
        index = UniformGridIndex(10.0)
        with pytest.raises(KeyError):
            index.delete(42)
