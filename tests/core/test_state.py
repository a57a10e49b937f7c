"""Tests for repro.core.state."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import CBTCOutcome, NeighborRecord, NodeState
from repro.geometry.angles import TWO_PI, has_gap_greater_than, max_angular_gap


def _record(neighbor, direction, distance=1.0, required=1.0, discovery=1.0):
    return NeighborRecord(
        neighbor=neighbor,
        direction=direction,
        required_power=required,
        discovery_power=discovery,
        distance=distance,
    )


class TestNodeState:
    def test_add_neighbor_keeps_earliest_discovery_tag(self):
        state = NodeState(node_id=0, alpha=math.pi)
        state.add_neighbor(_record(1, 0.0, discovery=4.0))
        state.add_neighbor(_record(1, 0.0, discovery=2.0))
        assert state.neighbors[1].discovery_power == 2.0
        state.add_neighbor(_record(1, 0.0, discovery=3.0))
        assert state.neighbors[1].discovery_power == 2.0

    def test_remove_neighbor(self):
        state = NodeState(node_id=0, alpha=math.pi)
        state.add_neighbor(_record(1, 0.0))
        removed = state.remove_neighbor(1)
        assert removed.neighbor == 1
        assert state.remove_neighbor(1) is None

    def test_gap_detection(self):
        state = NodeState(node_id=0, alpha=math.pi)
        assert state.has_gap()
        state.add_neighbor(_record(1, 0.0))
        assert state.has_gap()
        state.add_neighbor(_record(2, math.pi))
        assert not state.has_gap()
        assert state.largest_gap() == pytest.approx(math.pi)

    def test_boundary_requires_max_power_and_gap(self):
        state = NodeState(node_id=0, alpha=math.pi / 2)
        state.add_neighbor(_record(1, 0.0))
        state.used_max_power = True
        assert state.is_boundary
        state.add_neighbor(_record(2, math.pi / 2))
        state.add_neighbor(_record(3, math.pi))
        state.add_neighbor(_record(4, 3 * math.pi / 2))
        assert not state.is_boundary

    def test_growth_radius_and_power(self):
        state = NodeState(node_id=0, alpha=math.pi)
        assert state.growth_radius() == 0.0
        assert state.power_to_reach_all() == 0.0
        state.add_neighbor(_record(1, 0.0, distance=2.0, required=4.0))
        state.add_neighbor(_record(2, 1.0, distance=3.0, required=9.0))
        assert state.growth_radius() == pytest.approx(3.0)
        assert state.power_to_reach_all() == pytest.approx(9.0)

    def test_copy_is_independent(self):
        state = NodeState(node_id=0, alpha=math.pi)
        state.add_neighbor(_record(1, 0.0))
        clone = state.copy()
        clone.remove_neighbor(1)
        assert 1 in state.neighbors

    def test_directions_and_neighbor_ids(self):
        state = NodeState(node_id=0, alpha=math.pi)
        state.add_neighbor(_record(3, 1.0))
        state.add_neighbor(_record(1, 2.0))
        assert state.neighbor_ids == [1, 3]
        assert sorted(state.directions) == [1.0, 2.0]

    def test_record_for(self):
        state = NodeState(node_id=0, alpha=math.pi)
        state.add_neighbor(_record(5, 0.3))
        assert state.record_for(5).direction == 0.3
        with pytest.raises(KeyError):
            state.record_for(6)


class TestGapAgainstNormalizingReference:
    """``has_gap``/``largest_gap`` normalize only when needed; results must not change."""

    #: Directions around the normalization edges, plus arbitrary ones.
    DIRECTIONS = st.one_of(
        st.sampled_from([0.0, -0.0, TWO_PI, -TWO_PI, 2 * TWO_PI, TWO_PI - 1e-15, -1e-300, math.pi]),
        st.floats(min_value=-4 * TWO_PI, max_value=4 * TWO_PI, allow_nan=False),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        directions=st.lists(DIRECTIONS, max_size=8),
        alpha=st.one_of(
            st.sampled_from([math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6, math.pi]),
            st.floats(min_value=0.01, max_value=TWO_PI),
        ),
    )
    def test_matches_has_gap_greater_than(self, directions, alpha):
        state = NodeState(node_id=0, alpha=alpha)
        for neighbor, direction in enumerate(directions):
            state.add_neighbor(_record(neighbor, direction))
        assert state.has_gap() == has_gap_greater_than(state.directions, alpha)
        assert state.has_gap(alpha / 2) == has_gap_greater_than(state.directions, alpha / 2)
        assert state.largest_gap() == max_angular_gap(state.directions)

    def test_out_of_range_directions_are_normalized(self):
        state = NodeState(node_id=0, alpha=math.pi)
        # -pi/2 and 5pi/2 normalize to 3pi/2 and pi/2: two opposite
        # directions, so no gap wider than pi.
        state.add_neighbor(_record(1, -math.pi / 2))
        state.add_neighbor(_record(2, 5 * math.pi / 2))
        assert not state.has_gap()
        assert state.has_gap(math.pi / 2)
        assert state.largest_gap() == max_angular_gap([-math.pi / 2, 5 * math.pi / 2])


class TestCBTCOutcome:
    def _outcome(self):
        outcome = CBTCOutcome(alpha=math.pi)
        for node_id in range(3):
            outcome.states[node_id] = NodeState(node_id=node_id, alpha=math.pi)
        outcome.states[0].add_neighbor(_record(1, 0.0))
        outcome.states[1].add_neighbor(_record(0, math.pi))
        outcome.states[2].used_max_power = True
        return outcome

    def test_iteration_and_len(self):
        outcome = self._outcome()
        assert len(outcome) == 3
        assert {state.node_id for state in outcome} == {0, 1, 2}

    def test_neighbor_pairs(self):
        outcome = self._outcome()
        assert set(outcome.neighbor_pairs()) == {(0, 1), (1, 0)}

    def test_boundary_nodes(self):
        outcome = self._outcome()
        assert outcome.boundary_nodes() == [2]

    def test_copy_is_deep(self):
        outcome = self._outcome()
        clone = outcome.copy()
        clone.state(0).remove_neighbor(1)
        assert 1 in outcome.state(0).neighbors
