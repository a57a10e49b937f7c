"""Gabriel graph.

An edge ``(u, v)`` belongs to the Gabriel graph iff the closed disk having
``uv`` as diameter contains no other node — equivalently, no node ``w`` has
``d(u, w)**2 + d(v, w)**2 < d(u, v)**2``.  The Gabriel graph contains the RNG
and the Euclidean MST and preserves minimum-energy paths for quadratic power
models, which makes it a natural energy-oriented baseline.

Any witness ``w`` for an edge lies strictly inside the disk with diameter
``uv`` (by the parallelogram law ``d(u,w)^2 + d(v,w)^2 = 2 d(m,w)^2 +
d(u,v)^2 / 2`` for the midpoint ``m``), so the spatial index only has to
produce the nodes within ``d(u, v) / 2`` of the midpoint instead of the
whole node set — turning the classical O(n^3) witness scan into an
output-sensitive one.  The tests compare the result against that O(n^3)
definition.
"""

from __future__ import annotations

import networkx as nx

from repro.geometry import midpoint
from repro.net.network import Network


def gabriel_graph(
    network: Network,
    *,
    respect_max_range: bool = True,
) -> nx.Graph:
    """Build the Gabriel graph of the network (restricted to ``G_R`` edges by default)."""
    nodes = network.alive_nodes()
    graph = nx.Graph()
    for node in nodes:
        graph.add_node(node.node_id, pos=node.position.as_tuple())
    index = network.spatial_index()
    by_id = {node.node_id: node for node in nodes}

    if respect_max_range:
        pairs = ((by_id[a], by_id[b]) for a, b, _ in index.pairs_within(network.power_model.max_range))
    else:
        pairs = ((u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :])

    for u, v in pairs:
        d_uv = u.distance_to(v)
        d_uv_sq = d_uv ** 2
        # Witnesses lie strictly inside the disk of radius d_uv/2 around the
        # midpoint; pad the query to absorb floating-point rounding.
        witness_radius = 0.5 * d_uv * (1.0 + 1e-9) + 1e-9
        mid = midpoint(u.position, v.position)
        blocked = False
        for w_id in index.neighbors_within(mid, witness_radius):
            if w_id == u.node_id or w_id == v.node_id:
                continue
            w = by_id[w_id]
            if u.distance_to(w) ** 2 + v.distance_to(w) ** 2 < d_uv_sq - 1e-9:
                blocked = True
                break
        if not blocked:
            graph.add_edge(u.node_id, v.node_id, length=u.distance_to(v))
    return graph
