"""Power-aware path analysis.

The introduction of the paper recalls (from [16]) that for ``alpha <= pi/2``
the controlled graph is a *power spanner*: the best route between any two
nodes uses at most ``k + 2 - k * sin(alpha/2)``... more precisely at most
``1 / (1 - 2*sin(alpha/2))``-ish factors depending on the cost model; the
bound quoted in this paper is ``k + 2 over k*sin(alpha/2)`` — we expose the
quoted expression as :func:`power_spanner_bound` and the empirical
measurement as :func:`minimum_power_path_cost` /
:func:`all_pairs_power_costs`, which the spanner experiment compares.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import networkx as nx

from repro.net.network import Network
from repro.net.node import NodeId


def power_weighted(graph: nx.Graph, network: Network, exponent: float, overhead: float = 0.0) -> nx.Graph:
    """A copy of ``graph`` whose edges carry ``power_cost = d**exponent + overhead``."""
    weighted = nx.Graph()
    weighted.add_nodes_from(graph.nodes)
    for u, v in graph.edges:
        cost = network.distance(u, v) ** exponent + overhead
        weighted.add_edge(u, v, power_cost=cost)
    return weighted


def minimum_power_path_cost(
    graph: nx.Graph,
    network: Network,
    source: NodeId,
    target: NodeId,
    *,
    exponent: float = 2.0,
    per_hop_overhead: float = 0.0,
) -> Optional[float]:
    """Cost of the most power-efficient route from ``source`` to ``target``.

    Each hop costs ``d**exponent + per_hop_overhead`` (the ``c + d**n`` model
    the paper's competitiveness discussion uses, with ``c`` the receiver or
    processing overhead).  Returns ``None`` when no route exists.
    """
    weighted = power_weighted(graph, network, exponent, per_hop_overhead)
    try:
        return nx.dijkstra_path_length(weighted, source, target, weight="power_cost")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def all_pairs_power_costs(
    graph: nx.Graph,
    network: Network,
    *,
    exponent: float = 2.0,
    per_hop_overhead: float = 0.0,
) -> Dict[NodeId, Dict[NodeId, float]]:
    """Minimum route power between every pair of nodes."""
    weighted = power_weighted(graph, network, exponent, per_hop_overhead)
    return {
        source: dict(costs)
        for source, costs in nx.all_pairs_dijkstra_path_length(weighted, weight="power_cost")
    }


def power_spanner_bound(alpha: float, *, k: float = 1.0) -> float:
    """The competitiveness bound quoted in the paper's introduction.

    For ``alpha <= pi/2`` the power of the best route in ``G_alpha`` is at
    most ``(k + 2) / (k * sin(alpha / 2))`` ... the paper states the factor as
    ``k + 2 - 2*k*sin(alpha/2)`` over... —  the exact phrasing is
    "no worse than k + 2 - 2 k sin(alpha/2) times" in some versions; the
    arXiv text used here writes ``k+2k sin(alpha/2)``, which we interpret as
    ``(k + 2) / (k * sin(alpha / 2))`` being an upper bound only when it is
    at least 1.  Because the published formula is ambiguous in the plain-text
    rendering, this helper returns the conservative value
    ``(k + 2) / (k * sin(alpha / 2))`` and the spanner experiment reports the
    *measured* stretch alongside it rather than asserting the bound exactly.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (k + 2.0) / (k * math.sin(alpha / 2.0))
