"""Reference graph builders."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import networkx as nx

from repro.net.network import Network
from repro.net.node import NodeId


def unit_disk_graph(network: Network, radius: Optional[float] = None) -> nx.Graph:
    """The disk graph of ``network`` with communication ``radius``.

    With the default radius (the power model's maximum range) this is exactly
    the paper's ``G_R``.  Edge attribute ``length`` carries the Euclidean
    distance; node attribute ``pos`` the position.
    """
    if radius is None:
        return network.max_power_graph()
    graph = nx.Graph()
    for node in network.alive_nodes():
        graph.add_node(node.node_id, pos=node.position.as_tuple())
    # The grid is keyed on the maximum range but answers any radius; it
    # simply visits more cells for larger query disks.
    for u, v, d in network.spatial_index().pairs_within(radius):
        graph.add_edge(u, v, length=d)
    return graph


def graph_from_edges(network: Network, edges: Iterable[Tuple[NodeId, NodeId]]) -> nx.Graph:
    """Build an undirected graph over all alive nodes with the given edges.

    Edge lengths are recomputed from the network geometry; every alive node
    is included even if isolated (topology-control results must keep all
    nodes, per the problem statement in Section 1).
    """
    graph = nx.Graph()
    for node in network.alive_nodes():
        graph.add_node(node.node_id, pos=node.position.as_tuple())
    for u, v in edges:
        graph.add_edge(u, v, length=network.distance(u, v))
    return graph
