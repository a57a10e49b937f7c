"""Relative neighborhood graph (Toussaint 1980).

An edge ``(u, v)`` belongs to the RNG iff no third node ``w`` is strictly
closer to both endpoints than they are to each other (``max(d(u, w), d(v, w))
< d(u, v)``).  Restricted to pairs within the maximum range, the RNG is a
connected, planar, low-degree subgraph of ``G_R`` (when ``G_R`` is
connected), which is why the paper lists it among the "similar in spirit"
structures.

Any witness for an edge lies in the lune of the two endpoints and hence
within ``d(u, v)`` of ``u``, so the spatial index restricts the witness scan
to that disk instead of the whole node set (O(n^3) -> output-sensitive).
The tests compare the result against that O(n^3) definition.
"""

from __future__ import annotations

import networkx as nx

from repro.net.network import Network


def relative_neighborhood_graph(
    network: Network,
    *,
    respect_max_range: bool = True,
) -> nx.Graph:
    """Build the RNG of the network (restricted to ``G_R`` edges by default)."""
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
        blocked = False
        # Witnesses are strictly closer than d_uv to *both* endpoints, so the
        # disk of radius d_uv around u covers every possible witness.
        for w_id in index.neighbors_within(u.position, d_uv, exclude=u.node_id):
            if w_id == v.node_id:
                continue
            w = by_id[w_id]
            if max(u.distance_to(w), v.distance_to(w)) < d_uv - 1e-12:
                blocked = True
                break
        if not blocked:
            graph.add_edge(u.node_id, v.node_id, length=d_uv)
    return graph
