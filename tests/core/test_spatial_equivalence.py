"""Spatial-index equivalence tests.

The uniform-grid index must be a pure accelerator: every construction that
uses it (CBTC, the proximity-graph baselines, the reference graphs) has to
produce *identical* output — same edges, same float lengths, same per-node
radii/powers — as it does over the linear-scan :class:`BruteForceIndex`.
These tests build twin networks over the same positions, one on the grid and
one on the oracle (the ``brute_force_twin`` fixture), and compare outputs
exactly (no tolerances).  The baselines are also checked against their
textbook O(n^3) / all-pairs definitions, written out below.
"""

import math

import networkx as nx
import pytest

from repro.baselines import (
    euclidean_mst,
    gabriel_graph,
    relative_neighborhood_graph,
    theta_graph,
    yao_graph,
)
from repro.core.cbtc import run_cbtc
from repro.core.pipeline import OptimizationConfig, build_topology
from repro.geometry import BruteForceIndex, Point, UniformGridIndex
from repro.graphs.builders import unit_disk_graph
from repro.net.network import Network
from repro.net.node import Node
from repro.net.placement import PlacementConfig, random_uniform_placement

ALPHA = 5 * math.pi / 6

SEEDS = [0, 1, 2, 13]


@pytest.fixture
def twin_networks(brute_force_twin):
    """``make(seed)``: two networks over identical positions, grid and oracle."""

    def make(seed, node_count=40):
        indexed = random_uniform_placement(PlacementConfig(node_count=node_count), seed=seed)
        brute = brute_force_twin(indexed)
        assert type(indexed.spatial_index()) is UniformGridIndex
        assert type(brute.spatial_index()) is BruteForceIndex
        return indexed, brute

    return make


def _edge_map(graph):
    return {
        (min(u, v), max(u, v)): data.get("length")
        for u, v, data in graph.edges(data=True)
    }


def _assert_identical_graphs(left, right):
    assert set(left.nodes) == set(right.nodes)
    assert _edge_map(left) == _edge_map(right)  # exact float equality


def _witness_graph(network, respect_max_range, blocks):
    """Proximity graph by definition: every pair, every candidate witness.

    Keeps ``(u, v)`` unless some third alive node ``w`` satisfies
    ``blocks(d(u, v), d(u, w), d(v, w))`` — the O(n^3) scan the indexed
    constructions must reproduce exactly.
    """
    nodes = network.alive_nodes()
    max_range = network.power_model.max_range
    graph = nx.Graph()
    for node in nodes:
        graph.add_node(node.node_id)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            d_uv = u.distance_to(v)
            if respect_max_range and d_uv > max_range + 1e-12:
                continue
            if not any(
                blocks(d_uv, u.distance_to(w), v.distance_to(w))
                for w in nodes
                if w.node_id not in (u.node_id, v.node_id)
            ):
                graph.add_edge(u.node_id, v.node_id, length=d_uv)
    return graph


def _gabriel_by_definition(network, respect_max_range):
    return _witness_graph(
        network, respect_max_range, lambda uv, uw, vw: uw ** 2 + vw ** 2 < uv ** 2 - 1e-9
    )


def _rng_by_definition(network, respect_max_range):
    return _witness_graph(
        network, respect_max_range, lambda uv, uw, vw: max(uw, vw) < uv - 1e-12
    )


def _mst_over_all_pairs(network):
    """``nx.minimum_spanning_tree`` of the complete Euclidean graph."""
    nodes = network.alive_nodes()
    complete = nx.Graph()
    for node in nodes:
        complete.add_node(node.node_id)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            complete.add_edge(u.node_id, v.node_id, length=u.distance_to(v))
    return nx.minimum_spanning_tree(complete, weight="length")


class TestCBTCEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_outcomes_identical_with_and_without_index(self, seed, twin_networks):
        indexed, brute = twin_networks(seed)
        with_index = run_cbtc(indexed, ALPHA)
        without_index = run_cbtc(brute, ALPHA)
        assert with_index.node_ids() == without_index.node_ids()
        for node_id in with_index.node_ids():
            a = with_index.state(node_id)
            b = without_index.state(node_id)
            assert a.final_power == b.final_power
            assert a.used_max_power == b.used_max_power
            assert a.rounds == b.rounds
            assert set(a.neighbors) == set(b.neighbors)
            for neighbor, record in a.neighbors.items():
                other = b.neighbors[neighbor]
                assert record.direction == other.direction
                assert record.required_power == other.required_power
                assert record.discovery_power == other.discovery_power
                assert record.distance == other.distance

    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_pipeline_topologies_identical(self, seed, twin_networks):
        indexed, brute = twin_networks(seed)
        a = build_topology(indexed, ALPHA, config=OptimizationConfig.all())
        b = build_topology(brute, ALPHA, config=OptimizationConfig.all())
        _assert_identical_graphs(a.graph, b.graph)
        assert a.node_radius == b.node_radius
        assert a.node_power == b.node_power

    def test_equivalence_with_dead_nodes(self, twin_networks):
        indexed, brute = twin_networks(5)
        for node_id in (3, 11, 17):
            indexed.node(node_id).crash()
            brute.node(node_id).crash()
        a = build_topology(indexed, ALPHA, config=OptimizationConfig.all())
        b = build_topology(brute, ALPHA, config=OptimizationConfig.all())
        _assert_identical_graphs(a.graph, b.graph)


class TestBaselineEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("respect_max_range", [True, False])
    def test_gabriel(self, seed, respect_max_range, twin_networks):
        indexed, brute = twin_networks(seed)
        graph = gabriel_graph(indexed, respect_max_range=respect_max_range)
        _assert_identical_graphs(graph, gabriel_graph(brute, respect_max_range=respect_max_range))
        _assert_identical_graphs(graph, _gabriel_by_definition(indexed, respect_max_range))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("respect_max_range", [True, False])
    def test_rng(self, seed, respect_max_range, twin_networks):
        indexed, brute = twin_networks(seed)
        graph = relative_neighborhood_graph(indexed, respect_max_range=respect_max_range)
        _assert_identical_graphs(
            graph, relative_neighborhood_graph(brute, respect_max_range=respect_max_range)
        )
        _assert_identical_graphs(graph, _rng_by_definition(indexed, respect_max_range))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mst_range_limited(self, seed, twin_networks):
        indexed, brute = twin_networks(seed)
        _assert_identical_graphs(
            euclidean_mst(indexed, respect_max_range=True),
            euclidean_mst(brute, respect_max_range=True),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mst_complete_via_delaunay_candidates(self, seed, twin_networks):
        # Random placements have distinct pairwise distances, so the
        # Euclidean MST is unique and the Delaunay-restricted Kruskal must
        # return exactly the tree over all pairs.
        indexed, brute = twin_networks(seed)
        tree = euclidean_mst(indexed, respect_max_range=False)
        _assert_identical_graphs(tree, euclidean_mst(brute, respect_max_range=False))
        _assert_identical_graphs(tree, _mst_over_all_pairs(indexed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_yao_and_theta(self, seed, twin_networks):
        indexed, brute = twin_networks(seed)
        _assert_identical_graphs(yao_graph(indexed, k=6), yao_graph(brute, k=6))
        _assert_identical_graphs(theta_graph(indexed, k=6), theta_graph(brute, k=6))

    def test_mst_with_near_coincident_points_stays_connected(self):
        # Qhull classifies points closer than its merge tolerance as
        # "coplanar" and omits them from the triangulation; the Delaunay
        # fast path must fall back to the dense edge set for such inputs.
        points = [Point(0.0, 0.0), Point(1e-14, 0.0), Point(1.0, 0.5), Point(0.5, 1.0), Point(0.3, 0.4)]
        network = Network.from_points(points)
        tree = euclidean_mst(network, respect_max_range=False)
        assert nx.is_connected(tree)
        _assert_identical_graphs(tree, _mst_over_all_pairs(network))


class TestNetworkQueryEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_max_power_graph(self, seed, twin_networks):
        indexed, brute = twin_networks(seed)
        _assert_identical_graphs(indexed.max_power_graph(), brute.max_power_graph())

    @pytest.mark.parametrize("radius", [0.0, 120.0, 500.0, 900.0])
    def test_neighbors_within(self, radius, twin_networks):
        indexed, brute = twin_networks(7)
        for node_id in indexed.node_ids:
            assert indexed.neighbors_within(node_id, radius) == brute.neighbors_within(node_id, radius)

    @pytest.mark.parametrize("radius", [130.0, 750.0])
    def test_unit_disk_graph_custom_radius(self, radius, twin_networks):
        indexed, brute = twin_networks(9)
        _assert_identical_graphs(
            unit_disk_graph(indexed, radius), unit_disk_graph(brute, radius)
        )

    def test_receivers_of_broadcast(self, twin_networks):
        indexed, brute = twin_networks(4)
        max_power = indexed.power_model.max_power
        for power in (0.0, max_power / 64, max_power / 4, max_power, 2 * max_power):
            for sender in indexed.node_ids[:10]:
                assert indexed.receivers_of_broadcast(sender, power) == brute.receivers_of_broadcast(
                    sender, power
                )


class TestIndexInvalidation:
    def test_move_updates_queries(self):
        network = Network.from_points([Point(0.0, 0.0), Point(0.5, 0.0), Point(10.0, 10.0)])
        assert network.neighbors_within(0, 1.0) == [1]
        network.node(1).move_to(Point(20.0, 20.0))
        assert network.neighbors_within(0, 1.0) == []

    def test_crash_and_recover_update_queries(self):
        network = Network.from_points([Point(0.0, 0.0), Point(0.5, 0.0)])
        assert network.neighbors_within(0, 1.0) == [1]
        network.node(1).crash()
        assert network.neighbors_within(0, 1.0) == []
        network.node(1).recover()
        assert network.neighbors_within(0, 1.0) == [1]

    def test_add_and_remove_node_update_queries(self):
        network = Network.from_points([Point(0.0, 0.0)])
        assert network.neighbors_within(0, 1.0) == []
        network.add_node(Node(node_id=5, position=Point(0.25, 0.0)))
        assert network.neighbors_within(0, 1.0) == [5]
        network.remove_node(5)
        assert network.neighbors_within(0, 1.0) == []

    def test_removed_node_no_longer_invalidates(self):
        network = Network.from_points([Point(0.0, 0.0), Point(0.5, 0.0)])
        removed = network.remove_node(1)
        network.spatial_index()
        # Mutating a removed node must not touch (or poison) the network.
        removed.move_to(Point(0.1, 0.1))
        assert network._spatial_index is not None
        assert network.neighbors_within(0, 1.0) == []

    def test_copy_isolates_index(self):
        network = random_uniform_placement(PlacementConfig(node_count=10), seed=2)
        max_range = network.power_model.max_range
        before = {node_id: network.neighbors_within(node_id, max_range) for node_id in network.node_ids}
        duplicate = network.copy()
        duplicate.node(0).move_to(Point(-1e4, -1e4))
        assert duplicate.neighbors_within(0, max_range) == []
        assert {node_id: network.neighbors_within(node_id, max_range) for node_id in network.node_ids} == before
