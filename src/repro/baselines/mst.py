"""Euclidean minimum spanning tree baseline.

The MST minimizes the total edge length (and, per component, the maximum
power needed for connectivity is attained on an MST edge), which makes it
the extreme point of the sparseness/power trade-off: minimum possible degree
and radius, but the worst hop and power stretch.  Ramanathan and
Rosales-Hain's centralized algorithm (cited in the related work) is
essentially a bottleneck-optimal spanning structure, which the MST also
realizes: the largest MST edge equals the minimax per-node radius required
for connectivity.

Edge enumeration is where the naive construction becomes quadratic: the
range-limited variant now pulls its candidate edges from the network's
spatial index, and the complete (classical Euclidean) variant restricts
Kruskal's input to the Delaunay triangulation — a standard superset of the
Euclidean MST — falling back to the dense O(n^2) edge set whenever the
triangulation is unavailable (fewer than three nodes, collinear or
coincident points).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import networkx as nx

from repro.net.network import Network
from repro.net.node import Node, NodeId


def _delaunay_candidate_edges(nodes: List[Node]) -> Optional[List[Tuple[NodeId, NodeId]]]:
    """Delaunay edge set as sorted ``(u, v)`` ID pairs, or ``None`` if degenerate."""
    if len(nodes) < 3:
        return None
    distinct = {(node.position.x, node.position.y) for node in nodes}
    if len(distinct) < len(nodes):
        # Qhull merges coincident sites, which would drop the zero-length
        # edges the MST needs to connect co-located nodes.
        return None
    # Imported here so that only a triangulating caller pays for numpy and scipy.
    import numpy as np
    from scipy.spatial import Delaunay, QhullError

    points = np.array([[node.position.x, node.position.y] for node in nodes])
    try:
        triangulation = Delaunay(points)
    except QhullError:
        return None
    if len(triangulation.coplanar):
        # Qhull classified near-coincident points as "coplanar" and left them
        # out of every simplex; their edges would be missing and the MST
        # disconnected.  Let the dense fallback handle such inputs.
        return None
    index_to_id = [node.node_id for node in nodes]
    edges = set()
    vertices_seen = set()
    for simplex in triangulation.simplices:
        for i in range(3):
            vertices_seen.add(int(simplex[i]))
            a = index_to_id[simplex[i]]
            b = index_to_id[simplex[(i + 1) % 3]]
            edges.add((min(a, b), max(a, b)))
    if len(vertices_seen) != len(nodes):
        return None
    return sorted(edges)


def euclidean_mst(network: Network, *, respect_max_range: bool = False) -> nx.Graph:
    """Minimum spanning forest over the complete (or max-range) Euclidean graph.

    With ``respect_max_range`` the MST is computed inside ``G_R`` (yielding a
    spanning forest of each ``G_R`` component); otherwise over the complete
    graph, which is the classical Euclidean MST.
    """
    nodes = network.alive_nodes()
    complete = nx.Graph()
    for node in nodes:
        complete.add_node(node.node_id, pos=node.position.as_tuple())

    if respect_max_range:
        for u, v, d in network.spatial_index().pairs_within(network.power_model.max_range):
            complete.add_edge(u, v, length=d)
    else:
        candidates = _delaunay_candidate_edges(nodes)
        if candidates is not None:
            for u, v in candidates:
                complete.add_edge(u, v, length=network.distance(u, v))
        else:
            for i, u in enumerate(nodes):
                for v in nodes[i + 1 :]:
                    complete.add_edge(u.node_id, v.node_id, length=u.distance_to(v))

    forest = nx.minimum_spanning_tree(complete, weight="length")
    # Keep isolated nodes that the spanning tree construction may drop.
    for node in nodes:
        if node.node_id not in forest:
            forest.add_node(node.node_id, pos=node.position.as_tuple())
    return forest
