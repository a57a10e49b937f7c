"""Tests for routing-load / congestion analysis (repro.graphs.routing)."""

import math

import networkx as nx
import pytest

from repro.core.pipeline import OptimizationConfig, build_topology
from repro.geometry import Point
from repro.graphs import routing
from repro.graphs.routing import (
    congestion_report,
    edge_congestion,
    node_forwarding_load,
)
from repro.net.network import Network
from repro.net.placement import PlacementConfig, random_uniform_placement
from repro.radio import PathLossModel, PowerModel


@pytest.fixture
def path_network():
    """Four nodes on a line; every route between non-adjacent nodes uses the middle edges."""
    power_model = PowerModel(propagation=PathLossModel(), max_range=1.5)
    return Network.from_points([Point(float(i), 0.0) for i in range(4)], power_model=power_model)


class TestEdgeCongestion:
    def test_middle_edge_carries_the_most_routes(self, path_network):
        graph = nx.Graph()
        graph.add_nodes_from(path_network.node_ids)
        graph.add_edges_from([(0, 1), (1, 2), (2, 3)])
        congestion = edge_congestion(graph, path_network)
        # 6 routed pairs; the middle edge (1,2) carries 0-2, 0-3, 1-2, 1-3 = 4 of them.
        assert congestion[(1, 2)] == pytest.approx(4 / 6)
        assert congestion[(0, 1)] == pytest.approx(3 / 6)

    def test_empty_graph(self, path_network):
        graph = nx.Graph()
        graph.add_nodes_from(path_network.node_ids)
        assert edge_congestion(graph, path_network) == {}


class TestForwardingLoad:
    def test_interior_nodes_forward(self, path_network):
        graph = nx.Graph()
        graph.add_nodes_from(path_network.node_ids)
        graph.add_edges_from([(0, 1), (1, 2), (2, 3)])
        load = node_forwarding_load(graph, path_network)
        assert load[0] == 0.0 and load[3] == 0.0
        assert load[1] > 0.0 and load[2] > 0.0
        assert load[1] == pytest.approx(load[2])

    def test_star_center_forwards_everything(self):
        power_model = PowerModel(propagation=PathLossModel(), max_range=2.0)
        network = Network.from_points(
            [Point(0, 0), Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)], power_model=power_model
        )
        star = nx.star_graph(4)
        load = node_forwarding_load(star, network)
        # 6 of the 10 routed pairs are leaf-to-leaf and all go through the hub.
        assert load[0] == pytest.approx(6 / 10)


class TestCongestionReport:
    def test_report_fields_on_path(self, path_network):
        graph = nx.Graph()
        graph.add_nodes_from(path_network.node_ids)
        graph.add_edges_from([(0, 1), (1, 2), (2, 3)])
        report = congestion_report(graph, path_network)
        assert report.routed_pairs == 6
        assert report.average_hop_count == pytest.approx((1 + 2 + 3 + 1 + 2 + 1) / 6)
        assert report.max_edge_congestion == pytest.approx(4 / 6)
        assert report.max_forwarding_load > 0
        assert set(report.as_dict()) == {
            "routed_pairs",
            "average_hop_count",
            "max_edge_congestion",
            "average_edge_congestion",
            "max_forwarding_load",
        }

    def test_empty_graph_report(self, path_network):
        graph = nx.Graph()
        graph.add_nodes_from(path_network.node_ids)
        report = congestion_report(graph, path_network)
        assert report.routed_pairs == 0
        assert report.max_edge_congestion == 0.0

    def test_single_node_graph(self):
        power_model = PowerModel(propagation=PathLossModel(), max_range=1.0)
        network = Network.from_points([Point(0.0, 0.0)], power_model=power_model)
        graph = nx.Graph()
        graph.add_node(0)
        report = congestion_report(graph, network)
        assert report.routed_pairs == 0
        assert report.average_hop_count == 0.0
        assert edge_congestion(graph, network) == {}
        assert node_forwarding_load(graph, network) == {0: 0.0}

    def test_disconnected_graph_routes_fewer_pairs(self, path_network):
        # Two components of two nodes each: only the 2 intra-component pairs
        # route (versus 6 for the connected path).
        graph = nx.Graph()
        graph.add_nodes_from(path_network.node_ids)
        graph.add_edges_from([(0, 1), (2, 3)])
        report = congestion_report(graph, path_network)
        assert report.routed_pairs == 2
        assert report.average_hop_count == 1.0
        assert report.max_edge_congestion == pytest.approx(1 / 2)

    def test_isolated_nodes_route_zero_pairs(self, path_network):
        # Nodes but no edges: zero routed pairs must not divide by zero.
        graph = nx.Graph()
        graph.add_nodes_from(path_network.node_ids)
        assert congestion_report(graph, path_network).routed_pairs == 0
        assert all(value == 0.0 for value in node_forwarding_load(graph, path_network).values())

    def test_topology_control_increases_hops_and_congestion(self, small_random_network):
        # The Section 6 discussion: removing edges lengthens routes and
        # concentrates load.  Quantified: the fully optimized topology has
        # more hops per route and a higher worst-edge congestion than G_R.
        reference = small_random_network.max_power_graph()
        controlled = build_topology(
            small_random_network, 5 * math.pi / 6, config=OptimizationConfig.all()
        ).graph
        dense = congestion_report(reference, small_random_network)
        sparse = congestion_report(controlled, small_random_network)
        assert sparse.average_hop_count > dense.average_hop_count
        assert sparse.max_edge_congestion >= dense.max_edge_congestion
        assert sparse.routed_pairs == dense.routed_pairs


class TestSampledPairsMode:
    @pytest.fixture
    def bigger_world(self):
        network = random_uniform_placement(PlacementConfig(node_count=60), seed=4)
        graph = build_topology(network, 5 * math.pi / 6).graph
        return network, graph

    def test_exact_mode_is_pinned_byte_identical(self, bigger_world):
        # sample_pairs=0 must take exactly the historic all-pairs code path;
        # so must the small-graph default.
        network, graph = bigger_world
        default = congestion_report(graph, network)
        forced_exact = congestion_report(graph, network, sample_pairs=0)
        assert default == forced_exact
        n = graph.number_of_nodes()
        oversampled = congestion_report(graph, network, sample_pairs=n * (n - 1) // 2)
        assert oversampled == default

    def test_sampled_mode_routes_at_most_k_pairs(self, bigger_world):
        network, graph = bigger_world
        report = congestion_report(graph, network, sample_pairs=40)
        assert 0 < report.routed_pairs <= 40

    def test_sampled_mode_is_seeded(self, bigger_world):
        network, graph = bigger_world
        first = congestion_report(graph, network, sample_pairs=40, seed=1)
        again = congestion_report(graph, network, sample_pairs=40, seed=1)
        other = congestion_report(graph, network, sample_pairs=40, seed=2)
        assert first == again
        assert first != other

    def test_sampled_estimates_track_exact_values(self, bigger_world):
        network, graph = bigger_world
        exact = congestion_report(graph, network)
        sampled = congestion_report(graph, network, sample_pairs=600, seed=0)
        assert sampled.average_hop_count == pytest.approx(exact.average_hop_count, rel=0.35)
        assert sampled.max_forwarding_load == pytest.approx(exact.max_forwarding_load, rel=0.6)

    def test_large_graphs_sample_automatically(self, bigger_world, monkeypatch):
        network, graph = bigger_world
        monkeypatch.setattr(routing, "AUTO_SAMPLE_NODE_THRESHOLD", 10)
        monkeypatch.setattr(routing, "DEFAULT_SAMPLE_PAIRS", 50)
        report = congestion_report(graph, network)
        assert report.routed_pairs <= 50

    def test_negative_sample_pairs_rejected(self, bigger_world):
        network, graph = bigger_world
        with pytest.raises(ValueError):
            congestion_report(graph, network, sample_pairs=-1)

    def test_edge_and_node_functions_accept_sampling(self, bigger_world):
        network, graph = bigger_world
        congestion = edge_congestion(graph, network, sample_pairs=30, seed=3)
        load = node_forwarding_load(graph, network, sample_pairs=30, seed=3)
        assert set(congestion) == {tuple(sorted(edge)) for edge in graph.edges}
        assert set(load) == set(graph.nodes)
        assert any(value > 0 for value in congestion.values())

    def test_sample_spreads_across_many_sources(self, bigger_world):
        network, graph = bigger_world
        sources = {
            source
            for source, _, _ in routing._sampled_pairs_paths(graph, network, 2.0, 50, seed=0)
        }
        # 50 pairs with ~sqrt(50) targets per source must touch >= 5 trees,
        # not collapse onto the 1-2 that would suffice to contain them.
        assert len(sources) >= 5


class TestCanonicalDijkstra:
    """History-independent tie-breaking for per-source routes."""

    def _adjacency(self, edges):
        adjacency = {}
        for u, v, w in edges:
            adjacency.setdefault(u, {})[v] = w
            adjacency.setdefault(v, {})[u] = w
        return adjacency

    def test_result_is_independent_of_insertion_order(self):
        from repro.graphs.routing import canonical_single_source_paths

        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
        forward = self._adjacency(edges)
        backward = self._adjacency(list(reversed(edges)))
        assert canonical_single_source_paths(forward, 0) == canonical_single_source_paths(
            backward, 0
        )

    def test_equal_cost_ties_pick_smallest_predecessor(self):
        from repro.graphs.routing import canonical_single_source_paths

        # Both 1 and 2 reach 3 at cost 2; the canonical tree must route 0->1->3.
        adjacency = self._adjacency(
            [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
        )
        assert canonical_single_source_paths(adjacency, 0)[3] == [0, 1, 3]

    def test_unreachable_targets_are_absent(self):
        from repro.graphs.routing import canonical_single_source_paths

        adjacency = self._adjacency([(0, 1, 1.0)])
        adjacency[5] = {}
        paths = canonical_single_source_paths(adjacency, 0)
        assert 5 not in paths
        assert paths[0] == [0]


class TestSourceRouteCache:
    def _adjacency(self, edges):
        adjacency = {}
        for u, v, w in edges:
            adjacency.setdefault(u, {})[v] = w
            adjacency.setdefault(v, {})[u] = w
        return adjacency

    def test_cached_paths_match_fresh_computation_under_evolution(self):
        import random as random_module

        from repro.graphs.routing import SourceRouteCache, canonical_single_source_paths

        rng = random_module.Random(3)
        nodes = list(range(16))
        edges = {}
        for u in nodes:
            for v in nodes:
                if u < v and rng.random() < 0.3:
                    edges[(u, v)] = rng.uniform(1.0, 5.0)
        cache = SourceRouteCache()
        for _ in range(25):
            action = rng.random()
            if action < 0.4 and edges:  # remove an edge
                del edges[rng.choice(sorted(edges))]
            elif action < 0.7:  # add an edge
                u, v = sorted(rng.sample(nodes, 2))
                edges[(u, v)] = rng.uniform(1.0, 5.0)
            elif edges:  # perturb a weight
                edge = rng.choice(sorted(edges))
                edges[edge] = rng.uniform(1.0, 5.0)
            adjacency = {node: {} for node in nodes}
            for (u, v), w in edges.items():
                adjacency[u][v] = w
                adjacency[v][u] = w
            cache.sync(adjacency)
            for source in rng.sample(nodes, 4):
                assert cache.paths(source) == canonical_single_source_paths(
                    adjacency, source
                )

    def test_equal_adjacency_keeps_every_cached_tree(self):
        from repro.graphs.routing import SourceRouteCache, canonical_single_source_paths

        edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0), (2, 3, 1.0)]
        cache = SourceRouteCache()
        cache.sync(self._adjacency(edges))
        for source in range(4):
            cache.paths(source)
        assert (cache.hits, cache.misses) == (0, 4)
        # An equal but distinct mapping, as a repeat read builds it.
        again = self._adjacency(edges)
        cache.sync(again)
        for source in range(4):
            assert cache.paths(source) == canonical_single_source_paths(again, source)
        assert (cache.hits, cache.misses) == (4, 4)
        # A changed weight is still seen after the equal sync.
        cache.sync(self._adjacency(edges[:-1] + [(2, 3, 0.5)]))
        cache.paths(3)
        assert cache.misses == 5

    def test_unrelated_removal_keeps_cached_tree(self):
        from repro.graphs.routing import SourceRouteCache

        edges = [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]
        cache = SourceRouteCache()
        cache.sync(self._adjacency(edges))
        cache.paths(0)
        assert cache.misses == 1
        # Removing (3, 4) cannot touch 0's shortest-path tree (0-1, 1-2):
        # the tree survives the sync.
        adjacency = self._adjacency([(0, 1, 1.0), (1, 2, 1.0)])
        adjacency.setdefault(3, {})
        adjacency.setdefault(4, {})
        cache.sync(adjacency)
        cache.paths(0)
        assert cache.hits == 1

    def test_tree_edge_removal_invalidates_the_source(self):
        from repro.graphs.routing import SourceRouteCache

        cache = SourceRouteCache()
        cache.sync(self._adjacency([(0, 1, 1.0), (1, 2, 1.0)]))
        cache.paths(0)
        cache.sync(self._adjacency([(0, 1, 1.0)]))
        paths = cache.paths(0)
        assert cache.misses == 2
        assert 2 not in paths

    def test_added_edge_drops_everything(self):
        from repro.graphs.routing import SourceRouteCache

        cache = SourceRouteCache()
        cache.sync(self._adjacency([(0, 1, 1.0), (1, 2, 1.0)]))
        cache.paths(0)
        cache.sync(self._adjacency([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]))
        assert cache.paths(0)[2] == [0, 2]
        assert cache.misses == 2

    # ------------------------------------------------------------------ #
    # Whole-node removal (a node leaving the network entirely, not just an
    # edge worsening): the cases the scenario runner hits when a route
    # source or an interior relay crashes or is removed.
    # ------------------------------------------------------------------ #
    def test_removed_source_is_evicted_not_served_stale(self):
        from repro.graphs.routing import SourceRouteCache

        cache = SourceRouteCache()
        cache.sync(self._adjacency([(0, 1, 1.0), (1, 2, 1.0)]))
        assert cache.paths(0)[2] == [0, 1, 2]
        # Node 0 disappears from the network: it is absent from the new
        # adjacency, not merely disconnected.
        cache.sync(self._adjacency([(1, 2, 1.0)]))
        paths = cache.paths(0)
        assert paths == {}
        assert cache.misses == 2  # the cached tree was evicted, not reused

    def test_removed_interior_tree_node_invalidates_dependent_sources(self):
        from repro.graphs.routing import SourceRouteCache, canonical_single_source_paths

        # 0-1-2-3 path plus a detour 0-4-3 that is initially more expensive.
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 2.0), (4, 3, 2.0)]
        cache = SourceRouteCache()
        cache.sync(self._adjacency(edges))
        assert cache.paths(0)[3] == [0, 1, 2, 3]
        # Node 1 — an interior relay of 0's tree — is removed outright, so
        # both of its edges vanish in one sync.
        survivors = [(2, 3, 1.0), (0, 4, 2.0), (4, 3, 2.0)]
        adjacency = self._adjacency(survivors)
        cache.sync(adjacency)
        paths = cache.paths(0)
        assert paths == canonical_single_source_paths(adjacency, 0)
        assert paths[3] == [0, 4, 3]
        assert 1 not in paths
        assert cache.misses == 2

    def test_removed_leaf_outside_other_trees_keeps_them(self):
        from repro.graphs.routing import SourceRouteCache

        # 5 hangs off 4; 0's tree (0-1-2) never touches 4-5.
        edges = [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]
        cache = SourceRouteCache()
        cache.sync(self._adjacency(edges))
        cache.paths(0)
        cache.paths(3)
        cache.sync(self._adjacency([(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]))
        cache.paths(0)
        assert cache.hits == 1  # 0's tree survived node 5's removal...
        paths = cache.paths(3)
        assert 5 not in paths  # ...while 3's tree, which reached 5, was rebuilt
        assert cache.misses == 3

    def test_removed_then_readded_node_is_recomputed_fresh(self):
        from repro.graphs.routing import SourceRouteCache, canonical_single_source_paths

        before = self._adjacency([(0, 1, 1.0), (1, 2, 1.0)])
        cache = SourceRouteCache()
        cache.sync(before)
        assert cache.paths(2)[0] == [2, 1, 0]
        cache.sync(self._adjacency([(0, 1, 1.0)]))  # node 2 gone
        assert cache.paths(2) == {}
        # The node rejoins elsewhere: its edge set is different now, and the
        # re-added edge wipes the cache wholesale (adds may improve paths).
        after = self._adjacency([(0, 1, 1.0), (0, 2, 1.0)])
        cache.sync(after)
        paths = cache.paths(2)
        assert paths == canonical_single_source_paths(after, 2)
        assert paths[1] == [2, 0, 1]

    def test_network_backed_node_removal_matches_fresh_routes(self):
        """End to end over a real topology: drop a relay node from the
        network, rebuild the adjacency, and require cached routes to equal
        a from-scratch computation for every surviving source."""
        from repro.graphs.routing import SourceRouteCache, canonical_single_source_paths

        network = random_uniform_placement(PlacementConfig(node_count=40), seed=8)
        graph = build_topology(network, 5 * math.pi / 6).graph

        def power_adjacency(g):
            adjacency = {node: {} for node in g.nodes}
            for u, v in g.edges:
                weight = network.distance(u, v) ** 2
                adjacency[u][v] = weight
                adjacency[v][u] = weight
            return adjacency

        cache = SourceRouteCache()
        cache.sync(power_adjacency(graph))
        for source in sorted(graph.nodes):
            cache.paths(source)
        victim = sorted(graph.nodes)[len(graph.nodes) // 2]
        graph.remove_node(victim)
        adjacency = power_adjacency(graph)
        cache.sync(adjacency)
        for source in sorted(graph.nodes):
            assert cache.paths(source) == canonical_single_source_paths(adjacency, source)
        assert cache.paths(victim) == {}
