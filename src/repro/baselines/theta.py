"""Theta graphs and Yao graphs.

The related-work section points at the theta-graph constructions of Hassin &
Peleg and Keil & Gutwin: partition the plane around each node into ``k``
cones and connect the node to one representative neighbour per cone.  They
are the closest position-based relatives of CBTC — CBTC's cone condition is
"some neighbour in every cone of degree alpha", a theta/Yao graph's is "the
*closest* neighbour in each of k fixed cones" — so they make an instructive
baseline.  The Yao graph picks the nearest neighbour per cone; the theta
graph traditionally picks the neighbour whose projection on the cone
bisector is shortest.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import networkx as nx

from repro.geometry.angles import normalize_angle
from repro.net.network import Network
from repro.net.node import Node


def _cone_index(angle: float, k: int, offset: float) -> int:
    width = 2.0 * math.pi / k
    return int(normalize_angle(angle - offset) // width) % k


def _cone_candidates(network: Network, nodes: List[Node], u: Node, respect_max_range: bool) -> Iterable[Node]:
    """Nodes competing for ``u``'s cones.

    With the range restriction the spatial index supplies exactly the
    in-range nodes; without it every other node competes.  Enumeration
    order is irrelevant to the result: the per-cone winner is selected by
    full-tuple comparison (distance, then node id), never first-seen.
    """
    if respect_max_range:
        max_range = network.power_model.max_range
        return (
            network.node(v_id)
            for v_id in network.spatial_index().neighbors_within(
                u.position, max_range, exclude=u.node_id
            )
        )
    return (v for v in nodes if v.node_id != u.node_id)


def yao_graph(network: Network, k: int = 6, *, respect_max_range: bool = True, offset: float = 0.0) -> nx.Graph:
    """Yao graph: each node keeps its nearest neighbour in each of ``k`` cones."""
    if k < 1:
        raise ValueError("the number of cones k must be at least 1")
    nodes = network.alive_nodes()
    graph = nx.Graph()
    for node in nodes:
        graph.add_node(node.node_id, pos=node.position.as_tuple())
    max_range = network.power_model.max_range
    for u in nodes:
        best = {}
        for v in _cone_candidates(network, nodes, u, respect_max_range):
            d = u.distance_to(v)
            if respect_max_range and d > max_range + 1e-12:
                continue
            cone = _cone_index(u.direction_to(v), k, offset)
            # Full-tuple comparison so equal distances break ties by node id,
            # not by which candidate happened to be enumerated first.
            if cone not in best or (d, v.node_id) < best[cone]:
                best[cone] = (d, v.node_id)
        for _, (d, v_id) in sorted(best.items()):
            graph.add_edge(u.node_id, v_id, length=d)
    return graph


def theta_graph(
    network: Network,
    k: int = 6,
    *,
    respect_max_range: bool = True,
    offset: float = 0.0,
) -> nx.Graph:
    """Theta graph: per cone, keep the neighbour with the shortest bisector projection."""
    if k < 1:
        raise ValueError("the number of cones k must be at least 1")
    nodes = network.alive_nodes()
    graph = nx.Graph()
    for node in nodes:
        graph.add_node(node.node_id, pos=node.position.as_tuple())
    max_range = network.power_model.max_range
    width = 2.0 * math.pi / k
    for u in nodes:
        best = {}
        for v in _cone_candidates(network, nodes, u, respect_max_range):
            d = u.distance_to(v)
            if respect_max_range and d > max_range + 1e-12:
                continue
            angle = u.direction_to(v)
            cone = _cone_index(angle, k, offset)
            bisector = offset + (cone + 0.5) * width
            projection = d * math.cos(abs(normalize_angle(angle - bisector)))
            if cone not in best or (projection, d, v.node_id) < best[cone]:
                best[cone] = (projection, d, v.node_id)
        for _, (_, d, v_id) in sorted(best.items()):
            graph.add_edge(u.node_id, v_id, length=d)
    return graph
