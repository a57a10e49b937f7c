"""Regression tests for the order-dependence bugs detlint surfaced.

Each test pins a fix from the determinism sweep by exercising the code
path under two different construction histories (insertion order, grid
versus brute-force spatial index) and requiring *bitwise* equal results.  The first test
documents why this is not paranoia: float addition is not associative, so
an aggregate summed in container order is a different number depending on
how the container happened to be filled.
"""

import json

from repro.baselines import theta_graph, yao_graph
from repro.geometry import Point
from repro.graphs.metrics import average_radius, graph_metrics
from repro.io.graphs import graph_to_dict
from repro.net.energy import EnergyLedger
from repro.net.network import Network
from repro.radio import PathLossModel, PowerModel

import networkx as nx


def _network(points, max_range=10.0):
    power_model = PowerModel(propagation=PathLossModel(), max_range=max_range)
    return Network.from_points(points, power_model=power_model)


def _grid_and_oracle(points, brute_force_twin):
    network = _network(points)
    return (network, brute_force_twin(network))


def test_float_addition_is_not_associative():
    # The premise behind every fix in this file: same values, different
    # order, different float.  If this ever starts passing as equal, the
    # sorted() guards are dead weight and can go.
    values = [0.1, 0.2, 0.3]
    assert sum(values) != sum(reversed(values))


class TestEnergyLedgerTotals:
    def test_total_consumed_independent_of_account_creation_order(self):
        charges = [(0, 0.1), (1, 0.2), (2, 0.3)]
        forward = EnergyLedger([], capacity=10.0)
        for node_id, power in charges:
            forward.charge_transmission(node_id, power)
        backward = EnergyLedger([], capacity=10.0)
        for node_id, power in reversed(charges):
            backward.charge_transmission(node_id, power)
        # Accounts were created in opposite orders, so the dict insertion
        # orders differ; the totals must still match bit for bit.
        assert forward.total_consumed() == backward.total_consumed()
        assert forward.total_transmissions() == backward.total_transmissions()


class TestMetricsOrderIndependence:
    # A star whose leaf distances are exactly 0.1, 0.2 and 0.3 — the
    # canonical non-associative triple — so any container-order float sum
    # inside the metrics shows up as a bitwise difference.
    POINTS = [Point(0.0, 0.0), Point(0.1, 0.0), Point(0.2, 0.0), Point(0.3, 0.0)]
    EDGES = [(0, 1), (0, 2), (0, 3)]

    def _graph(self, node_order, edge_order):
        graph = nx.Graph()
        for node_id in node_order:
            graph.add_node(node_id)
        for u, v in edge_order:
            graph.add_edge(u, v)
        return graph

    def test_metrics_equal_under_any_insertion_order(self):
        network = _network(self.POINTS, max_range=1.0)
        forward = self._graph([0, 1, 2, 3], self.EDGES)
        backward = self._graph([3, 2, 1, 0], list(reversed(self.EDGES)))
        assert average_radius(forward, network) == average_radius(backward, network)
        first = graph_metrics(forward, network)
        second = graph_metrics(backward, network)
        assert first.total_power == second.total_power
        assert first.average_radius == second.average_radius
        assert first.as_dict() == second.as_dict()


class TestConeBaselineTiebreaks:
    def test_yao_tie_goes_to_smaller_node_id(self, brute_force_twin):
        # Nodes 1 and 2 are both at distance exactly 5 from node 0 and,
        # with k=1, compete in the same cone.  The winner must be node 1
        # (the id tie-break), never "whichever candidate was enumerated
        # first" — which is what made the two index classes diverge.
        points = [Point(0.0, 0.0), Point(3.0, 4.0), Point(4.0, 3.0)]
        graphs = [
            yao_graph(network, k=1) for network in _grid_and_oracle(points, brute_force_twin)
        ]
        for graph in graphs:
            assert graph.has_edge(0, 1)
            assert not graph.has_edge(0, 2)
        first, second = (
            json.dumps(graph_to_dict(graph), sort_keys=True) for graph in graphs
        )
        assert first == second

    def test_theta_tie_goes_to_smaller_node_id(self, brute_force_twin):
        # Nodes 1 and 2 sit symmetrically about the single cone's bisector
        # at equal distance, so their bisector projections tie exactly.
        points = [Point(0.0, 0.0), Point(-3.0, 4.0), Point(-3.0, -4.0)]
        graphs = [
            theta_graph(network, k=1) for network in _grid_and_oracle(points, brute_force_twin)
        ]
        for graph in graphs:
            assert graph.has_edge(0, 1)
        first, second = (
            json.dumps(graph_to_dict(graph), sort_keys=True) for graph in graphs
        )
        assert first == second
