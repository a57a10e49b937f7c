"""Tests for repro.core.analysis (theorem checkers and stretch metrics)."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    _partition_labels,
    connectivity_report,
    hop_stretch_factor,
    power_stretch_factor,
    preserves_connectivity,
    same_connectivity,
    verify_theorem_2_1,
    verify_theorem_3_1,
    verify_theorem_3_2,
    verify_theorem_3_6,
)
from repro.core.pipeline import OptimizationConfig, build_topology
from repro.graphs.paths import power_spanner_bound
from repro.net.placement import PlacementConfig, random_uniform_placement

ALPHA = 5 * math.pi / 6


class TestConnectivityComparison:
    def test_identical_graphs_preserve_connectivity(self):
        graph = nx.path_graph(5)
        assert preserves_connectivity(graph, graph)

    def test_spanning_subgraph_preserves_connectivity(self):
        reference = nx.complete_graph(5)
        candidate = nx.path_graph(5)
        assert preserves_connectivity(reference, candidate)

    def test_disconnecting_subgraph_detected(self):
        reference = nx.path_graph(4)
        candidate = nx.Graph()
        candidate.add_nodes_from(reference.nodes)
        candidate.add_edge(0, 1)
        assert not preserves_connectivity(reference, candidate)

    def test_different_node_sets_not_equivalent(self):
        a = nx.path_graph(3)
        b = nx.path_graph(4)
        assert not same_connectivity(a, b)

    def test_component_structure_comparison(self):
        reference = nx.Graph()
        reference.add_edges_from([(0, 1), (2, 3)])
        candidate = nx.Graph()
        candidate.add_nodes_from([0, 1, 2, 3])
        candidate.add_edges_from([(0, 1), (2, 3)])
        assert same_connectivity(reference, candidate)
        candidate.add_edge(1, 2)
        # Candidate connects a pair the reference keeps apart.
        assert not same_connectivity(reference, candidate)

    def test_connectivity_report_fields(self):
        reference = nx.cycle_graph(6)
        candidate = nx.path_graph(6)
        report = connectivity_report(reference, candidate)
        assert report.preserved
        assert report.reference_edges == 6
        assert report.candidate_edges == 5
        assert report.edge_reduction == pytest.approx(1 / 6)
        assert report.reference_components == report.candidate_components == 1


class TestTheoremCheckers:
    def test_theorem_2_1_on_random_networks(self):
        for seed in range(3):
            network = random_uniform_placement(PlacementConfig(node_count=25), seed=seed)
            assert verify_theorem_2_1(network, ALPHA)

    def test_theorem_3_1_on_random_networks(self):
        network = random_uniform_placement(PlacementConfig(node_count=25), seed=5)
        assert verify_theorem_3_1(network, ALPHA)

    def test_theorem_3_2_on_random_networks(self):
        network = random_uniform_placement(PlacementConfig(node_count=25), seed=6)
        assert verify_theorem_3_2(network, 2 * math.pi / 3)

    def test_theorem_3_6_on_random_networks(self):
        network = random_uniform_placement(PlacementConfig(node_count=25), seed=7)
        assert verify_theorem_3_6(network, ALPHA)


class TestStretchMetrics:
    def test_power_stretch_of_reference_graph_is_one(self, small_random_network):
        reference = small_random_network.max_power_graph()
        assert power_stretch_factor(small_random_network, reference) == pytest.approx(1.0)

    def test_power_stretch_of_controlled_graph_is_finite_and_bounded_below(self, small_random_network):
        result = build_topology(small_random_network, ALPHA, config=OptimizationConfig.all())
        stretch = power_stretch_factor(small_random_network, result.graph)
        assert math.isfinite(stretch)
        assert stretch >= 1.0

    def test_power_stretch_infinite_when_disconnected(self, small_random_network):
        broken = nx.Graph()
        broken.add_nodes_from(small_random_network.node_ids)
        assert power_stretch_factor(small_random_network, broken) == float("inf")

    def test_hop_stretch_at_least_one(self, small_random_network):
        result = build_topology(small_random_network, ALPHA)
        assert hop_stretch_factor(small_random_network, result.graph) >= 1.0

    def test_sampled_pairs_subset(self, small_random_network):
        result = build_topology(small_random_network, ALPHA)
        stretch = power_stretch_factor(small_random_network, result.graph, sample_pairs=[(0, 1), (2, 3)])
        assert stretch >= 1.0

    def test_power_spanner_bound_formula(self):
        assert power_spanner_bound(math.pi / 2) == pytest.approx(3.0 / math.sin(math.pi / 4))
        with pytest.raises(ValueError):
            power_spanner_bound(0.0)


def _union_find_labels(items, edges):
    """``_partition_labels`` by way of networkx's union-find (the reference)."""
    forest = nx.utils.UnionFind(items)
    for u, v in edges:
        forest.union(u, v)
    return {item: min(block) for block in forest.to_sets() for item in block}


class TestPartitionLabels:
    """The flat union-find against ``nx.utils.UnionFind``."""

    @settings(max_examples=60, deadline=None)
    @given(
        items=st.sets(st.integers(min_value=-50, max_value=10_000), max_size=40),
        edges=st.lists(
            st.tuples(st.integers(min_value=-50, max_value=10_000), st.integers(min_value=-50, max_value=10_000)),
            max_size=60,
        ),
        data=st.data(),
    )
    def test_matches_networkx_union_find(self, items, edges, data):
        # Mostly edges between listed items (isolated items stay alone), plus
        # the odd endpoint outside ``items``, which joins the partition too.
        pool = sorted(items)
        if pool:
            edges = edges + data.draw(
                st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=40)
            )
        assert _partition_labels(items, edges) == _union_find_labels(items, edges)

    def test_isolated_and_non_contiguous_ids(self):
        items = {3, 17, 99, 1000, 5, 42}
        edges = [(1000, 17), (99, 1000), (42, 42)]
        assert _partition_labels(items, edges) == {3: 3, 5: 5, 17: 17, 42: 42, 99: 17, 1000: 17}
        assert _partition_labels(items, edges) == _union_find_labels(items, edges)

    def test_long_chain_labels_every_node_with_the_minimum(self):
        chain = [(i, i + 1) for i in range(499, -1, -1)]
        assert set(_partition_labels(range(501), chain).values()) == {0}
