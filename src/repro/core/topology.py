"""Building topology graphs from CBTC outcomes.

The paper distinguishes several graphs over the node set ``V``:

* ``N_alpha`` — the (directed) neighbour relation: ``(u, v)`` iff ``v`` is in
  ``u``'s final discovered set.  Not symmetric in general (Example 2.1).
* ``E_alpha`` / ``G_alpha`` — the *symmetric closure*: ``(u, v)`` iff
  ``(u, v)`` or ``(v, u)`` is in ``N_alpha``.  Preserves connectivity for
  ``alpha <= 5*pi/6`` (Theorem 2.1).
* ``E^-_alpha`` / ``G^-_alpha`` — the largest symmetric *subset*: ``(u, v)``
  iff both ``(u, v)`` and ``(v, u)`` are in ``N_alpha``.  Preserves
  connectivity for ``alpha <= 2*pi/3`` (Theorem 3.2 — asymmetric edge
  removal).

:class:`TopologyResult` packages a final undirected graph with the per-node
transmission radius and power it implies (the power each node needs to reach
all of its neighbours in that graph), which is precisely the quantity
averaged in the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.net.network import Network
from repro.net.node import NodeId
from repro.core.state import CBTCOutcome


def neighbor_digraph(outcome: CBTCOutcome, network: Optional[Network] = None) -> nx.DiGraph:
    """The directed neighbour relation ``N_alpha`` as a :class:`networkx.DiGraph`.

    Edge attributes: ``length`` (distance), ``required_power`` and
    ``discovery_power``.  Node attribute ``pos`` is attached when a network
    is supplied.
    """
    digraph = nx.DiGraph()
    for state in outcome:
        digraph.add_node(state.node_id)
    if network is not None:
        for node_id in digraph.nodes:
            digraph.nodes[node_id]["pos"] = network.node(node_id).position.as_tuple()
    for state in outcome:
        # Sorted so edge insertion order (which leaks into nx iteration
        # order downstream) never depends on discovery history.
        for _, record in sorted(state.neighbors.items()):
            digraph.add_edge(
                state.node_id,
                record.neighbor,
                length=record.distance,
                required_power=record.required_power,
                discovery_power=record.discovery_power,
            )
    return digraph


def _undirected_from_pairs(
    outcome: CBTCOutcome,
    pairs: List[Tuple[NodeId, NodeId]],
    network: Optional[Network],
) -> nx.Graph:
    graph = nx.Graph()
    for state in outcome:
        graph.add_node(state.node_id)
    if network is not None:
        for node_id in graph.nodes:
            graph.nodes[node_id]["pos"] = network.node(node_id).position.as_tuple()
    for u, v in pairs:
        # A pair listed from both ends gets the same canonical length, so
        # the second insertion would change nothing.
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, length=_edge_length(outcome, u, v))
    return graph


def edge_length_from_outcome(outcome: CBTCOutcome, u: NodeId, v: NodeId) -> float:
    """The distance recorded for edge ``(u, v)``, read canonically.

    Both endpoints' records normally agree bit-for-bit (``hypot`` is
    symmetric), but under reconfiguration each side's record may be stale by
    up to the refresh tolerance.  Preferring the smaller endpoint's record
    makes the stored edge length independent of state iteration order, which
    the incremental pipeline's byte-identity contract relies on.
    """
    a, b = (u, v) if u < v else (v, u)
    state_a = outcome.states.get(a)
    if state_a is not None and b in state_a.neighbors:
        return state_a.neighbors[b].distance
    state_b = outcome.states.get(b)
    if state_b is not None and a in state_b.neighbors:
        return state_b.neighbors[a].distance
    raise KeyError(f"no neighbour record for edge ({u}, {v})")


_edge_length = edge_length_from_outcome


def symmetric_closure_graph(outcome: CBTCOutcome, network: Optional[Network] = None) -> nx.Graph:
    """``G_alpha``: the symmetric closure of ``N_alpha`` (the paper's ``E_alpha``)."""
    pairs = []
    for state in outcome:
        for neighbor in state.neighbor_ids:
            pairs.append((state.node_id, neighbor))
    return _undirected_from_pairs(outcome, pairs, network)


def symmetric_subset_graph(outcome: CBTCOutcome, network: Optional[Network] = None) -> nx.Graph:
    """``G^-_alpha``: the largest symmetric subset of ``N_alpha`` (``E^-_alpha``)."""
    pairs = []
    for state in outcome:
        for neighbor in state.neighbor_ids:
            other = outcome.states.get(neighbor)
            if other is not None and state.node_id in other.neighbors:
                pairs.append((state.node_id, neighbor))
    return _undirected_from_pairs(outcome, pairs, network)


@dataclass
class TopologyResult:
    """A final controlled topology together with its per-node cost.

    Attributes
    ----------
    graph:
        The undirected communication graph the algorithm settled on.
    alpha:
        The cone angle used.
    label:
        Human-readable description of which variant/optimizations produced it.
    outcome:
        The underlying per-node CBTC states (after any shrink-back).
    node_radius:
        For each node, the distance to its farthest neighbour in ``graph`` —
        the transmission radius the node must sustain to keep all its edges
        (the paper's per-node "radius").
    node_power:
        The power corresponding to ``node_radius`` under the network's power
        model.
    """

    graph: nx.Graph
    alpha: float
    label: str
    outcome: CBTCOutcome
    node_radius: Dict[NodeId, float] = field(default_factory=dict)
    node_power: Dict[NodeId, float] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        """Number of nodes in the final graph."""
        return self.graph.number_of_nodes()

    @property
    def edge_count(self) -> int:
        """Number of edges in the final graph."""
        return self.graph.number_of_edges()

    def average_degree(self) -> float:
        """Average node degree of the final graph."""
        n = self.graph.number_of_nodes()
        if n == 0:
            return 0.0
        return 2.0 * self.graph.number_of_edges() / n

    def average_radius(self) -> float:
        """Average per-node transmission radius (the paper's "Average radius")."""
        if not self.node_radius:
            return 0.0
        # Summed in node-id order: float addition is not associative, and the
        # dict's insertion order differs between incremental and full builds.
        return sum(radius for _, radius in sorted(self.node_radius.items())) / len(self.node_radius)

    def max_radius(self) -> float:
        """Largest per-node transmission radius."""
        if not self.node_radius:
            return 0.0
        return max(self.node_radius.values())

    def total_power(self) -> float:
        """Sum of per-node transmission powers (an aggregate energy proxy)."""
        return sum(power for _, power in sorted(self.node_power.items()))

    def degree_of(self, node_id: NodeId) -> int:
        """Degree of one node in the final graph."""
        return self.graph.degree[node_id]


def per_node_radius(graph: nx.Graph, network: Network) -> Dict[NodeId, float]:
    """Distance to the farthest graph neighbour, per node (0 for isolated nodes).

    Prefers the ``length`` attribute stored on edges (the same floats the
    network would recompute from positions) and only falls back to geometry
    for graphs built without it.
    """
    radius: Dict[NodeId, float] = {}
    for node_id, adjacency in graph.adj.items():
        best = 0.0
        for other, data in adjacency.items():
            length = data["length"] if "length" in data else network.distance(node_id, other)
            if length > best:
                best = length
        radius[node_id] = best
    return radius


def topology_from_outcome(
    outcome: CBTCOutcome,
    network: Network,
    *,
    symmetric: str = "closure",
    label: Optional[str] = None,
) -> TopologyResult:
    """Build a :class:`TopologyResult` from a CBTC outcome.

    ``symmetric`` selects between the symmetric ``"closure"`` (``E_alpha``)
    and the symmetric ``"subset"`` (``E^-_alpha``, i.e. asymmetric edge
    removal already applied).
    """
    if symmetric == "closure":
        graph = symmetric_closure_graph(outcome, network)
        default_label = "G_alpha (symmetric closure)"
    elif symmetric == "subset":
        graph = symmetric_subset_graph(outcome, network)
        default_label = "G^-_alpha (symmetric subset)"
    else:
        raise ValueError("symmetric must be 'closure' or 'subset'")
    radius = per_node_radius(graph, network)
    power = {node_id: network.power_model.required_power(r) for node_id, r in radius.items()}
    return TopologyResult(
        graph=graph,
        alpha=outcome.alpha,
        label=label if label is not None else default_label,
        outcome=outcome,
        node_radius=radius,
        node_power=power,
    )
