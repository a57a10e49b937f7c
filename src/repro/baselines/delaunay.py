"""Delaunay-triangulation baseline (Hu 1993 style heuristics).

Hu's topology-control heuristic (cited in the paper's related work) starts
from a Delaunay triangulation of the node positions.  We build the Delaunay
triangulation with scipy and optionally drop edges longer than the maximum
range, which is the natural "physically realizable" restriction.  The paper
notes there is no guarantee such heuristics preserve connectivity once long
edges are removed — the baseline benchmark demonstrates exactly that
degradation on sparse networks.
"""

from __future__ import annotations

import networkx as nx

from repro.net.network import Network


def delaunay_graph(network: Network, *, respect_max_range: bool = True) -> nx.Graph:
    """Delaunay triangulation over node positions, optionally range-limited.

    Falls back to the max-power graph for degenerate inputs (fewer than three
    nodes or collinear points), where a triangulation does not exist.
    """
    nodes = network.alive_nodes()
    graph = nx.Graph()
    for node in nodes:
        graph.add_node(node.node_id, pos=node.position.as_tuple())
    if len(nodes) < 3:
        return network.max_power_graph()

    # Imported here so that only a triangulating caller pays for numpy and scipy.
    import numpy as np
    from scipy.spatial import Delaunay, QhullError

    points = np.array([[node.position.x, node.position.y] for node in nodes])
    try:
        triangulation = Delaunay(points)
    except QhullError:
        return network.max_power_graph()

    max_range = network.power_model.max_range
    index_to_id = [node.node_id for node in nodes]
    for simplex in triangulation.simplices:
        for i in range(3):
            a = index_to_id[simplex[i]]
            b = index_to_id[simplex[(i + 1) % 3]]
            d = network.distance(a, b)
            if respect_max_range and d > max_range + 1e-12:
                continue
            graph.add_edge(a, b, length=d)
    return graph
