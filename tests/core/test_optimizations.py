"""Tests for the three optimizations of Section 3."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cbtc import run_cbtc
from repro.core.constants import PAIRWISE_ANGLE_THRESHOLD
from repro.core.optimizations import (
    _coverage_matches,
    asymmetric_edge_removal,
    edge_id,
    pairwise_edge_removal,
    redundant_edges,
    shrink_back,
    shrink_back_node,
)
from repro.core.state import CBTCOutcome, NeighborRecord, NodeState
from repro.core.topology import symmetric_closure_graph
from repro.core.analysis import preserves_connectivity, preserves_max_power_connectivity
from repro.core.pipeline import OptimizationConfig, build_topology
from repro.geometry import Point
from repro.geometry.angles import TWO_PI, cover
from repro.net.network import Network
from repro.net.placement import PlacementConfig, random_uniform_placement
from repro.radio import PathLossModel, PowerModel
from tests.hypothesis_profiles import battery_examples

ALPHA = 5 * math.pi / 6
ALPHA_NARROW = 2 * math.pi / 3


def _network(points, max_range=1.0):
    power_model = PowerModel(propagation=PathLossModel(), max_range=max_range)
    return Network.from_points(points, power_model=power_model)


def _record(neighbor, direction, distance, discovery=None):
    return NeighborRecord(
        neighbor=neighbor,
        direction=direction,
        required_power=distance**2,
        discovery_power=discovery if discovery is not None else distance**2,
        distance=distance,
    )


class TestShrinkBack:
    def test_boundary_node_sheds_far_neighbors_that_add_no_coverage(self):
        # A boundary node that discovered a far neighbour in exactly the same
        # direction as a close one can shrink back to the close one: the far
        # node contributes nothing to the cone coverage.
        state = NodeState(node_id=0, alpha=ALPHA, used_max_power=True)
        state.add_neighbor(_record(1, 0.0, 0.2, discovery=1.0))
        state.add_neighbor(_record(2, 0.0, 0.9, discovery=4.0))
        shrunk = shrink_back_node(state)
        assert set(shrunk.neighbor_ids) == {1}
        assert shrunk.final_power == pytest.approx(0.2**2)

    def test_boundary_node_keeps_far_neighbor_that_contributes_coverage(self):
        state = NodeState(node_id=0, alpha=ALPHA, used_max_power=True)
        state.add_neighbor(_record(1, 0.0, 0.2, discovery=1.0))
        state.add_neighbor(_record(2, math.pi, 0.9, discovery=4.0))
        shrunk = shrink_back_node(state)
        assert set(shrunk.neighbor_ids) == {1, 2}

    def test_non_boundary_nodes_unchanged(self, small_random_network):
        outcome = run_cbtc(small_random_network, ALPHA)
        shrunk = shrink_back(outcome)
        for state in outcome:
            if not state.is_boundary:
                assert set(shrunk.state(state.node_id).neighbor_ids) == set(state.neighbor_ids)

    def test_shrink_back_never_increases_power(self, small_random_network):
        outcome = run_cbtc(small_random_network, ALPHA)
        shrunk = shrink_back(outcome)
        for state in outcome:
            assert shrunk.state(state.node_id).power_to_reach_all() <= state.power_to_reach_all() + 1e-9

    def test_shrink_back_preserves_coverage(self, small_random_network):
        outcome = run_cbtc(small_random_network, ALPHA)
        shrunk = shrink_back(outcome)
        for state in outcome:
            # The largest angular gap must not grow past alpha for nodes that
            # had no gap, and must not grow at all beyond its original value
            # for boundary nodes (coverage is preserved exactly).
            original_gap = state.largest_gap()
            new_gap = shrunk.state(state.node_id).largest_gap()
            assert new_gap <= max(original_gap, ALPHA) + 1e-9

    def test_shrink_back_does_not_break_connectivity(self, small_random_network):
        outcome = shrink_back(run_cbtc(small_random_network, ALPHA))
        reference = small_random_network.max_power_graph()
        controlled = symmetric_closure_graph(outcome, small_random_network)
        assert preserves_connectivity(reference, controlled)

    def test_empty_state_is_noop(self):
        state = NodeState(node_id=0, alpha=ALPHA, final_power=2.5, rounds=3)
        shrunk = shrink_back_node(state)
        assert shrunk is not state
        assert shrunk == state

    @pytest.mark.parametrize("empty", [True, False])
    def test_output_does_not_alias_the_input(self, empty):
        # Callers hand shrink-back the states they keep mutating (the
        # reconfiguration manager edits records in place), so the result
        # must never share the input's state or mapping.
        state = NodeState(node_id=0, alpha=ALPHA, used_max_power=True, final_power=4.0)
        if not empty:
            state.add_neighbor(_record(1, 0.0, 0.2, discovery=1.0))
            state.add_neighbor(_record(2, 0.0, 0.9, discovery=4.0))
        shrunk = shrink_back_node(state)
        before = (dict(shrunk.neighbors), shrunk.final_power, shrunk.rounds)
        state.add_neighbor(_record(3, math.pi, 0.5))
        state.remove_neighbor(1)
        state.final_power = 9.0
        state.rounds += 1
        assert shrunk is not state and shrunk.neighbors is not state.neighbors
        assert (dict(shrunk.neighbors), shrunk.final_power, shrunk.rounds) == before


def _reference_shrink_back_node(state):
    """Shrink-back as one coverage test per level prefix, smallest prefix first.

    The historic loop: each prefix re-filters the records and re-runs the
    coverage comparison from scratch, and the result is rebuilt through
    ``add_neighbor``.
    """
    if not state.neighbors:
        return state
    original_arcs = cover(state.directions, state.alpha, normalized=True)
    original_is_full_circle = original_arcs == [(0.0, TWO_PI)]
    levels = sorted({record.discovery_power for record in state.neighbors.values()})
    for keep_count in range(1, len(levels) + 1):
        level_threshold = levels[keep_count - 1]
        kept_records = [
            record for record in state.neighbors.values() if record.discovery_power <= level_threshold
        ]
        kept_directions = [record.direction for record in kept_records]
        if _coverage_matches(kept_directions, original_arcs, original_is_full_circle, state.alpha):
            shrunk = NodeState(
                node_id=state.node_id,
                alpha=state.alpha,
                final_power=max(max(record.required_power for record in kept_records), 0.0),
                used_max_power=state.used_max_power,
                rounds=state.rounds,
            )
            for record in kept_records:
                shrunk.add_neighbor(record)
            return shrunk
    return state


def _summary(state):
    return (list(state.neighbors.items()), state.final_power, state.used_max_power, state.rounds)


#: Offsets of a prefix's largest gap from alpha: exactly alpha, cover()'s
#: 1e-12 tolerance, and inside _coverage_matches' (alpha, alpha + 2.5e-9] band.
GAP_OFFSETS = [0.0, 1e-12, 2e-12, 1e-10, 1e-9, 2.4e-9, 2.5e-9, 2.6e-9, 1e-6]


@st.composite
def _node_states(draw):
    """Arbitrary states: few or many records, shared levels, any coverage."""
    alpha = draw(st.sampled_from([math.pi / 2, ALPHA_NARROW, ALPHA, math.pi]))
    count = draw(st.integers(min_value=1, max_value=12))
    state = NodeState(
        node_id=0,
        alpha=alpha,
        used_max_power=draw(st.booleans()),
        rounds=draw(st.integers(min_value=0, max_value=9)),
    )
    for neighbor in range(1, count + 1):
        # Few distinct levels, so groups of records share a tag.
        level = float(draw(st.integers(min_value=1, max_value=4)))
        state.add_neighbor(
            NeighborRecord(
                neighbor=neighbor,
                direction=draw(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)),
                required_power=level * draw(st.floats(min_value=0.1, max_value=1.0)),
                discovery_power=level,
                distance=draw(st.floats(min_value=0.01, max_value=1.0)),
            )
        )
    return state


@st.composite
def _band_states(draw):
    """States whose level-1 prefix has its largest gap at alpha + offset.

    Level 1 holds directions ``start, start + alpha + offset`` and then steps
    narrower than alpha around the rest of the circle; higher levels add
    directions inside the wide gap, so the full record set covers the circle
    and shrink-back has to decide whether the level-1 prefix still does.
    Directions are reduced modulo ``2*pi``.
    """
    alpha = draw(st.sampled_from([ALPHA_NARROW, ALPHA, math.pi / 2]))
    offset = draw(st.sampled_from(GAP_OFFSETS))
    # The last start puts the uncovered sliver at angle 0, where cover()'s
    # arcs can still compare equal to the full circle.
    start = draw(st.sampled_from([0.0, 0.5, 2.0, TWO_PI - alpha / 2 - offset]))
    wide = alpha + offset
    directions = [start, start + wide]
    position = start + wide
    step = alpha * draw(st.sampled_from([0.5, 0.9, 0.999]))
    while TWO_PI + start - position > alpha:
        position += step
        directions.append(position)
    state = NodeState(node_id=0, alpha=alpha, used_max_power=draw(st.booleans()), rounds=3)
    for neighbor, direction in enumerate(directions, start=1):
        state.add_neighbor(_record(neighbor, direction % TWO_PI, 0.5, discovery=1.0))
    for neighbor, fraction in enumerate(draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3)), 100):
        level = float(draw(st.integers(min_value=2, max_value=3)))
        state.add_neighbor(_record(neighbor, (start + fraction * wide) % TWO_PI, 0.9, discovery=level))
    return state


class TestShrinkBackOracle:
    """``shrink_back_node`` against the historic per-prefix loop."""

    @settings(max_examples=battery_examples(300), deadline=None)
    @given(state=_node_states())
    def test_matches_reference_on_arbitrary_states(self, state):
        assert _summary(shrink_back_node(state.copy())) == _summary(_reference_shrink_back_node(state.copy()))

    @settings(max_examples=battery_examples(200), deadline=None)
    @given(state=_band_states())
    def test_matches_reference_near_the_tolerance_band(self, state):
        assert _summary(shrink_back_node(state.copy())) == _summary(_reference_shrink_back_node(state.copy()))

    def test_single_neighbor(self):
        state = NodeState(node_id=0, alpha=ALPHA, used_max_power=True)
        state.add_neighbor(_record(7, 1.0, 0.4, discovery=2.0))
        assert _summary(shrink_back_node(state.copy())) == _summary(_reference_shrink_back_node(state))
        assert shrink_back_node(state).final_power == pytest.approx(0.4**2)

    def test_gap_exactly_alpha_drops_the_outer_level(self):
        # Level 1 alone has gaps of exactly alpha: it still covers the circle.
        alpha = math.pi / 2
        state = NodeState(node_id=0, alpha=alpha)
        for neighbor in range(4):
            state.add_neighbor(_record(neighbor, neighbor * alpha, 0.5, discovery=1.0))
        state.add_neighbor(_record(9, alpha / 2, 0.9, discovery=2.0))
        shrunk = shrink_back_node(state.copy())
        assert set(shrunk.neighbors) == {0, 1, 2, 3}
        assert _summary(shrunk) == _summary(_reference_shrink_back_node(state))

    def test_boundary_states_match(self, small_random_network):
        outcome = run_cbtc(small_random_network, ALPHA)
        boundary = [state for state in outcome if state.is_boundary]
        assert boundary
        for state in outcome:
            assert _summary(shrink_back_node(state.copy())) == _summary(
                _reference_shrink_back_node(state.copy())
            )


class TestAsymmetricEdgeRemoval:
    def test_threshold_enforced(self, small_random_network):
        outcome = run_cbtc(small_random_network, ALPHA)
        with pytest.raises(ValueError):
            asymmetric_edge_removal(outcome)
        # The same call with the threshold check disabled is allowed (used by
        # exploratory experiments).
        edges = asymmetric_edge_removal(outcome, enforce_threshold=False)
        assert isinstance(edges, list)

    def test_returns_only_mutual_edges(self):
        outcome = CBTCOutcome(alpha=ALPHA_NARROW)
        for node_id in range(3):
            outcome.states[node_id] = NodeState(node_id=node_id, alpha=ALPHA_NARROW)
        outcome.states[0].add_neighbor(_record(1, 0.0, 1.0))
        outcome.states[1].add_neighbor(_record(0, math.pi, 1.0))
        outcome.states[2].add_neighbor(_record(0, 0.0, 1.0))  # one-directional
        edges = asymmetric_edge_removal(outcome)
        assert edges == [(0, 1)]

    def test_subset_preserves_connectivity_at_two_thirds(self, small_random_network):
        outcome = run_cbtc(small_random_network, ALPHA_NARROW)
        reference = small_random_network.max_power_graph()
        from repro.core.topology import symmetric_subset_graph

        assert preserves_connectivity(reference, symmetric_subset_graph(outcome, small_random_network))


class TestEdgeIds:
    def test_edge_id_ordering_by_length_first(self):
        network = _network([Point(0, 0), Point(0.5, 0), Point(0, 0.9)], max_range=2.0)
        assert edge_id(network, 0, 1) < edge_id(network, 0, 2)

    def test_edge_id_tie_broken_by_node_ids(self):
        network = _network([Point(0, 0), Point(1, 0), Point(-1, 0)], max_range=2.0)
        # Both edges have length 1; the one with the smaller max endpoint wins.
        assert edge_id(network, 0, 1) < edge_id(network, 0, 2)

    def test_edge_id_symmetric_in_arguments(self):
        network = _network([Point(0, 0), Point(1, 0)], max_range=2.0)
        assert edge_id(network, 0, 1) == edge_id(network, 1, 0)


class TestPairwiseEdgeRemoval:
    def _triangle_network(self):
        # A tight triangle where the angle at node 0 between nodes 1 and 2 is
        # well below pi/3, making the longer of the two edges redundant.
        return _network([Point(0, 0), Point(1.0, 0.0), Point(0.95, 0.15)], max_range=2.0)

    def test_redundant_edge_detection(self):
        network = self._triangle_network()
        graph = network.max_power_graph()
        redundant = redundant_edges(graph, network)
        assert (0, 1) in redundant or (0, 2) in redundant
        # The shorter of the two edges from node 0 must never be redundant
        # purely because of the other (it has the smaller edge ID).
        shorter = (0, 1) if network.distance(0, 1) < network.distance(0, 2) else (0, 2)
        longer = (0, 2) if shorter == (0, 1) else (0, 1)
        assert longer in redundant

    def test_wide_angles_are_never_redundant(self):
        # With maximum range 1.5 only the two edges incident to node 0 exist,
        # and they subtend an angle close to pi at node 0 — far above pi/3 —
        # so neither is redundant.
        network = _network([Point(0, 0), Point(1, 0), Point(-1, 0.2)], max_range=1.5)
        graph = network.max_power_graph()
        assert graph.number_of_edges() == 2
        assert redundant_edges(graph, network) == set()

    def test_remove_all_redundant_preserves_connectivity(self, small_random_network):
        outcome = run_cbtc(small_random_network, ALPHA)
        closure = symmetric_closure_graph(outcome, small_random_network)
        pruned = pairwise_edge_removal(closure, small_random_network, remove_all=True)
        assert preserves_connectivity(small_random_network.max_power_graph(), pruned)
        assert pruned.number_of_edges() <= closure.number_of_edges()

    def test_default_mode_only_removes_radius_reducing_edges(self, small_random_network):
        outcome = run_cbtc(small_random_network, ALPHA)
        closure = symmetric_closure_graph(outcome, small_random_network)
        conservative = pairwise_edge_removal(closure, small_random_network)
        aggressive = pairwise_edge_removal(closure, small_random_network, remove_all=True)
        assert aggressive.number_of_edges() <= conservative.number_of_edges() <= closure.number_of_edges()

    def test_custom_angle_threshold(self):
        network = self._triangle_network()
        graph = network.max_power_graph()
        # With a zero threshold nothing is redundant.
        assert redundant_edges(graph, network, angle_threshold=0.0) == set()
        # With a huge threshold, every node with two neighbours flags its longer edge.
        generous = redundant_edges(graph, network, angle_threshold=math.pi)
        assert len(generous) >= 1

    def test_pairwise_removal_on_graph_without_redundant_edges_is_identity(self):
        network = _network([Point(0, 0), Point(1, 0), Point(-1, 0.2)], max_range=1.5)
        graph = network.max_power_graph()
        pruned = pairwise_edge_removal(graph, network)
        assert set(pruned.edges) == set(graph.edges)

    def test_coincident_neighbor_keeps_a_path(self):
        # Nodes 0 and 1 share a position, so the edge between them has no
        # direction.  Taken as direction 0.0 it witnessed both edges to node
        # 2 redundant and cut node 2 off.  Only (1, 2) goes: the path 1-0-2
        # uses smaller edge IDs, while 0-1-2 would not.
        network = _network([Point(0, 0), Point(0, 0), Point(1, 0)], max_range=2.0)
        graph = network.max_power_graph()
        assert redundant_edges(graph, network) == {(1, 2)}
        for remove_all in (False, True):
            pruned = pairwise_edge_removal(graph, network, remove_all=remove_all)
            assert preserves_connectivity(graph, pruned)

    def test_nearly_coincident_witness_keeps_a_path(self):
        # Node 2 sits 5e-324 above node 0, so d(0, 1) and d(2, 1) are the same
        # float.  Node 0 sees 2 straight towards 1, and node 1 sees 0 and 2 in
        # one direction; taking both as witnesses removed both edges to 1.
        network = _network([Point(0, 0), Point(0, 1), Point(0, 5e-324)], max_range=2.0)
        assert network.distance(0, 1) == network.distance(2, 1)
        graph = network.max_power_graph()
        assert redundant_edges(graph, network) == {(1, 2)}
        for remove_all in (False, True):
            pruned = pairwise_edge_removal(graph, network, remove_all=remove_all)
            assert preserves_connectivity(graph, pruned)

    @pytest.mark.parametrize("alpha", [ALPHA, ALPHA_NARROW])
    def test_coincident_nodes_keep_connectivity(self, alpha):
        for config in (OptimizationConfig(pairwise_removal=True), OptimizationConfig.all()):
            for seed in range(1, 40):
                network = random_uniform_placement(PlacementConfig(node_count=8), seed=seed)
                for node_id in network.node_ids[:2]:
                    network.node(node_id).move_to(Point(0.0, 0.0))
                result = build_topology(network, alpha, config=config)
                assert preserves_max_power_connectivity(network, result.graph), (config, seed)

    def test_default_threshold_matches_paper_constant(self):
        assert PAIRWISE_ANGLE_THRESHOLD == pytest.approx(math.pi / 3)
