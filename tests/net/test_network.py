"""Tests for repro.net.network."""

import math
import pickle

import pytest

from repro.core.cbtc import _all_sorted_candidates
from repro.geometry import Point
from repro.net.network import Network
from repro.net.node import Node
from repro.radio import PathLossModel, PowerModel


class TestConstruction:
    def test_from_positions_assigns_sequential_ids(self):
        network = Network.from_positions([(0, 0), (1, 0), (2, 0)])
        assert network.node_ids == [0, 1, 2]
        assert network.node(1).position == Point(1.0, 0.0)

    def test_duplicate_ids_rejected(self):
        nodes = [Node(0, Point(0, 0)), Node(0, Point(1, 1))]
        with pytest.raises(ValueError):
            Network(nodes)

    def test_add_and_remove_node(self, square_network):
        new_node = Node(node_id=10, position=Point(0.5, 0.5))
        square_network.add_node(new_node)
        assert 10 in square_network
        removed = square_network.remove_node(10)
        assert removed is new_node
        assert 10 not in square_network

    def test_add_duplicate_node_rejected(self, square_network):
        with pytest.raises(ValueError):
            square_network.add_node(Node(node_id=0, position=Point(9, 9)))

    def test_default_power_model(self):
        network = Network.from_positions([(0, 0)])
        assert network.power_model.max_range == pytest.approx(500.0)

    def test_copy_is_deep_for_positions_and_liveness(self, square_network):
        clone = square_network.copy()
        clone.node(0).move_to(Point(9, 9))
        clone.node(1).crash()
        assert square_network.node(0).position == Point(0, 0)
        assert square_network.node(1).alive


class TestPhysicalQueries:
    def test_distance_and_direction(self, square_network):
        assert square_network.distance(0, 1) == pytest.approx(1.0)
        assert square_network.distance(0, 2) == pytest.approx(math.sqrt(2))
        assert square_network.direction(0, 3) == pytest.approx(math.pi / 2)

    def test_required_power(self, square_network):
        assert square_network.required_power(0, 1) == pytest.approx(1.0)
        assert square_network.required_power(0, 2) == pytest.approx(2.0)

    def test_receivers_of_broadcast_respects_power(self, square_network):
        # Power 1.0 reaches the two adjacent corners but not the diagonal one.
        receivers = square_network.receivers_of_broadcast(0, 1.0)
        assert sorted(receivers) == [1, 3]
        # Even with more power the diagonal neighbour stays unreachable: it is
        # sqrt(2) away, beyond the maximum range R = 1 of the radio.
        receivers_all = square_network.receivers_of_broadcast(0, 2.0)
        assert sorted(receivers_all) == [1, 3]
        assert 0.9 < square_network.power_model.max_range < 1.5

    def test_receivers_of_broadcast_excludes_dead_nodes(self, square_network):
        square_network.node(1).crash()
        receivers = square_network.receivers_of_broadcast(0, 2.0)
        assert 1 not in receivers
        assert 3 in receivers

    def test_neighbors_within(self, line_network):
        assert line_network.neighbors_within(2, 0.9) == [1, 3]
        assert line_network.neighbors_within(0, 2.0) == [1, 2]


class TestMaxPowerGraph:
    def test_square_network_graph(self, square_network):
        graph = square_network.max_power_graph()
        assert graph.number_of_nodes() == 4
        # Only the four sides are within range 1; the diagonals are sqrt(2) away.
        assert graph.number_of_edges() == 4
        assert not graph.has_edge(0, 2)
        assert graph.edges[0, 1]["length"] == pytest.approx(1.0)

    def test_line_network_graph_is_a_path(self, line_network):
        graph = line_network.max_power_graph()
        assert graph.number_of_edges() == 4
        degrees = sorted(dict(graph.degree).values())
        assert degrees == [1, 1, 2, 2, 2]

    def test_dead_nodes_excluded(self, square_network):
        square_network.node(2).crash()
        graph = square_network.max_power_graph()
        assert 2 not in graph
        assert graph.number_of_nodes() == 3

    def test_positions_attached(self, square_network):
        graph = square_network.max_power_graph()
        assert graph.nodes[3]["pos"] == (0.0, 1.0)

    def test_custom_power_model_range(self):
        power_model = PowerModel(propagation=PathLossModel(), max_range=2.0)
        network = Network.from_positions([(0, 0), (1.5, 0), (3.5, 0)], power_model=power_model)
        graph = network.max_power_graph()
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(0, 2)


class TestGeometryHelpers:
    def test_bounding_box(self, square_network):
        assert square_network.bounding_box() == (0.0, 0.0, 1.0, 1.0)

    def test_bounding_box_empty_network_raises(self):
        with pytest.raises(ValueError):
            Network([]).bounding_box()

    def test_positions_mapping(self, square_network):
        positions = square_network.positions()
        assert positions[2] == (1.0, 1.0)
        assert len(positions) == 4


class TestDirtyTracking:
    """Dirty listeners and delta-patched caches (the incremental substrate)."""

    def _network(self):
        return Network.from_positions([(0, 0), (100, 0), (200, 0), (0, 150)])

    def test_listener_collects_every_kind_of_change(self):
        network = self._network()
        dirty = network.register_dirty_listener()
        network.node(0).move_to(Point(5.0, 5.0))
        network.node(1).crash()
        network.node(1).recover()
        network.add_node(Node(node_id=9, position=Point(50.0, 50.0)))
        network.remove_node(9)
        assert dirty == {0, 1, 9}
        dirty.clear()
        network.node(2).move_to(Point(210.0, 0.0))
        assert dirty == {2}
        network.unregister_dirty_listener(dirty)
        network.node(3).move_to(Point(0.0, 160.0))
        assert dirty == {2}

    def test_noop_move_invalidates_nothing(self):
        network = self._network()
        dirty = network.register_dirty_listener()
        index = network.spatial_index()
        cache = network.derived_cache
        cache.put("probe", "value")
        network.node(0).move_to(Point(0.0, 0.0))  # unchanged position
        assert dirty == set()
        assert network.spatial_index() is index
        assert cache.get("probe") == "value"

    def test_real_move_patches_index_and_dirties_cache(self):
        network = self._network()
        index = network.spatial_index()
        cache = network.derived_cache
        cache.put("probe", "value")
        network.node(0).move_to(Point(500.0, 500.0))
        # The index object is patched in place, not discarded...
        assert network.spatial_index() is index
        # ...and answers exactly as a freshly built one would.
        fresh = Network.from_positions(
            [(500, 500), (100, 0), (200, 0), (0, 150)]
        ).spatial_index()
        assert index.neighbors_within(Point(500, 500), 250.0) == fresh.neighbors_within(
            Point(500, 500), 250.0
        )
        # The derived-data memo is dropped.
        assert cache.get("probe") is None
        assert len(cache) == 0

    def test_crash_and_recover_patch_index_membership(self):
        network = self._network()
        index = network.spatial_index()
        network.node(2).crash()
        assert 2 not in index
        network.node(2).recover()
        assert 2 in index
        assert network.spatial_index() is index

    def test_cbtc_candidate_memo_is_dropped_by_every_change(self):
        network = self._network()
        changes = [
            lambda: network.node(0).move_to(Point(5.0, 5.0)),
            lambda: network.node(1).crash(),
            lambda: network.node(1).recover(),
            lambda: network.add_node(Node(node_id=9, position=Point(50.0, 50.0))),
            lambda: network.remove_node(9),
        ]
        memo = _all_sorted_candidates(network)
        assert _all_sorted_candidates(network) is memo  # unchanged network: a hit
        for change in changes:
            change()
            assert len(network.derived_cache) == 0
            fresh = network.copy()
            memo = _all_sorted_candidates(network)
            assert {
                node_id: [(required, other.node_id, dist) for required, other, dist in items]
                for node_id, items in memo.items()
            } == {
                node_id: [(required, other.node_id, dist) for required, other, dist in items]
                for node_id, items in _all_sorted_candidates(fresh).items()
            }

    def test_derived_cache_never_rides_a_pickle(self):
        network = self._network()
        network.derived_cache.put("probe", "value")
        assert len(pickle.loads(pickle.dumps(network)).derived_cache) == 0
