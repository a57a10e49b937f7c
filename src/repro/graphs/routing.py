"""Routing-load and congestion analysis.

Section 6 of the paper cautions that aggressive edge removal is not free:
with fewer edges, paths get longer and traffic concentrates on fewer links
and nodes, which can hurt throughput and create hot spots that drain
batteries early.  This module quantifies that effect so the trade-off can be
measured rather than argued:

* :func:`edge_congestion` — for all-pairs shortest-path routing, how many
  routes cross each edge (normalized by the number of routed pairs);
* :func:`node_forwarding_load` — how many routes each node forwards
  (betweenness-style load, the battery-drain hot-spot proxy);
* :func:`CongestionReport` / :func:`congestion_report` — the summary used by
  the throughput ablation benchmark: maximum and average link congestion,
  maximum forwarding load, and average hop count.

Routing follows minimum-power paths (hop cost ``d**exponent``), the natural
routing policy over a power-controlled topology.

Exact all-pairs routing is cubic-ish and unusable much past n ≈ 500, so
every entry point also supports a *sampled-pairs* mode: a seeded sample of
sources (plus a pair sample among their shortest-path trees) estimates the
same normalized fractions at a bounded number of Dijkstra passes.  The mode
is selected explicitly via ``sample_pairs`` or automatically for large
graphs; the exact mode's code path — and therefore its float results —
stays byte-identical to the historic implementation and is pinned by the
test suite.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.graphs.paths import power_weighted
from repro.net.network import Network
from repro.net.node import NodeId
from repro.sim.randomness import SeededRandom, derive_seed

#: Above this many graph nodes the default (``sample_pairs=None``) switches
#: from exact all-pairs routing to the sampled estimator.
AUTO_SAMPLE_NODE_THRESHOLD = 500

#: How many pairs the automatic sampled mode routes.
DEFAULT_SAMPLE_PAIRS = 2000


Adjacency = Dict[NodeId, Dict[NodeId, float]]


def canonical_single_source_paths(
    adjacency: Adjacency, source: NodeId
) -> Dict[NodeId, List[NodeId]]:
    """Shortest paths from ``source``, with history-independent tie-breaking.

    Plain Dijkstra breaks equal-cost ties by heap insertion order, which
    leaks the graph's *construction history* into the chosen routes — two
    structurally identical graphs built in different edge orders can route
    differently.  This variant makes the output a pure function of the
    (adjacency, weights, source) triple: distances are settled normally, and
    each node's predecessor is the *smallest-ID* neighbour among those
    achieving its exact shortest distance.  That determinism is what lets
    the route cache reuse a source's tree across epochs whenever no edge of
    the tree changed, byte-identically to recomputing it.

    Returns ``{target: [source, ..., target]}`` for every reachable target
    (including the trivial ``{source: [source]}``).
    """
    if source not in adjacency:
        return {}
    dist: Dict[NodeId, float] = {source: 0.0}
    pred: Dict[NodeId, NodeId] = {}
    heap: List[Tuple[float, NodeId]] = [(0.0, source)]
    settled: Set[NodeId] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled or d > dist[u]:
            continue
        settled.add(u)
        for v, weight in adjacency[u].items():
            if v == source:
                continue
            candidate = d + weight
            known = dist.get(v)
            if known is None or candidate < known:
                dist[v] = candidate
                pred[v] = u
                heapq.heappush(heap, (candidate, v))
            elif candidate == known and u < pred[v]:
                pred[v] = u
    paths: Dict[NodeId, List[NodeId]] = {source: [source]}
    for target in dist:
        if target == source:
            continue
        hops = [target]
        cursor = target
        while cursor != source:
            cursor = pred[cursor]
            hops.append(cursor)
        hops.reverse()
        paths[target] = hops
    return paths


def link_weights(network: Network, graph: nx.Graph, *, min_hop: bool = False) -> Adjacency:
    """The symmetric weighted adjacency that routes over ``graph`` minimize.

    Each edge is weighted by the transmission power it requires (min-power
    routing), or 1 with ``min_hop``.  Every node of ``graph`` is a key, so
    an isolated node is present with no neighbours.
    """
    adjacency: Adjacency = {node: {} for node in graph.nodes}
    for u, v in graph.edges:
        weight = 1.0 if min_hop else network.required_power(u, v)
        adjacency[u][v] = weight
        adjacency[v][u] = weight
    return adjacency


class SourceRouteCache:
    """Per-source shortest-path-tree cache with dirty-edge invalidation.

    One cache instance follows a topology as it evolves epoch to epoch.
    :meth:`sync` diffs the new weighted adjacency against the last one seen:

    * an **added** edge or a **decreased** weight can create better paths
      anywhere, so the whole cache is dropped (sound and simple);
    * a **removed** edge or an **increased** weight can only affect sources
      whose cached shortest-path tree actually uses that edge — only those
      sources are invalidated.

    Because :func:`canonical_single_source_paths` is a pure function of the
    graph, a cached tree untouched by any dirty edge is byte-identical to
    what a recomputation would return — the scenario equivalence battery
    enforces exactly that, per epoch, traffic reports included.
    """

    def __init__(self) -> None:
        self._weights: Optional[Dict[Tuple[NodeId, NodeId], float]] = None
        self._adjacency: Optional[Adjacency] = None
        self._paths: Dict[NodeId, Dict[NodeId, List[NodeId]]] = {}
        self._tree_edges: Dict[NodeId, Set[Tuple[NodeId, NodeId]]] = {}
        self.hits = 0
        self.misses = 0

    def sync(self, adjacency: Adjacency) -> None:
        """Adopt this epoch's weighted adjacency, invalidating stale sources.

        The cache keeps a reference to ``adjacency`` (trees are computed from
        it lazily), so a changed topology must arrive as a new mapping, never
        as an in-place edit of the previous one.
        """
        if self._adjacency is not None and adjacency == self._adjacency:
            # Nothing changed (a repeat read of a quiescent topology): every
            # cached tree stays valid, so skip rebuilding the weight map.
            self._adjacency = adjacency
            return
        new_weights = {
            (u, v) if u < v else (v, u): weight
            for u, neighbors in adjacency.items()
            for v, weight in neighbors.items()
            if u < v
        }
        old_weights = self._weights
        self._adjacency = adjacency
        self._weights = new_weights
        if old_weights is None:
            self._drop_all()
            return
        worse: Set[Tuple[NodeId, NodeId]] = set()
        for edge, old_weight in old_weights.items():
            new_weight = new_weights.get(edge)
            if new_weight is None or new_weight > old_weight:
                worse.add(edge)
            elif new_weight < old_weight:
                self._drop_all()
                return
        for edge in new_weights:
            if edge not in old_weights:
                self._drop_all()
                return
        if not worse:
            return
        for source in list(self._paths):
            if source not in adjacency or self._tree_edges[source] & worse:
                del self._paths[source]
                del self._tree_edges[source]

    def paths(self, source: NodeId) -> Dict[NodeId, List[NodeId]]:
        """The canonical shortest-path map from ``source`` (cached)."""
        cached = self._paths.get(source)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        computed = canonical_single_source_paths(self._adjacency or {}, source)
        edges: Set[Tuple[NodeId, NodeId]] = set()
        for path in computed.values():
            for u, v in zip(path, path[1:]):
                edges.add((u, v) if u < v else (v, u))
        self._paths[source] = computed
        self._tree_edges[source] = edges
        return computed

    def _drop_all(self) -> None:
        self._paths.clear()
        self._tree_edges.clear()


def _all_pairs_paths(graph: nx.Graph, network: Network, exponent: float):
    weighted = power_weighted(graph, network, exponent)
    for source, paths in nx.all_pairs_dijkstra_path(weighted, weight="power_cost"):
        for target, path in paths.items():
            if source < target:
                yield source, target, path


def _sampled_pairs_paths(graph: nx.Graph, network: Network, exponent: float, pairs: int, seed: int):
    """Seeded sample of ``pairs`` routed pairs, one Dijkstra pass per source.

    Sources are sampled first, then the pairs themselves are sampled from
    their shortest-path trees with source/target double-counting removed.
    Targets per source are capped near ``sqrt(pairs)``, so the sample is
    spread over roughly ``sqrt(pairs)`` sources instead of collapsing onto
    the one or two trees that would suffice to contain it — a few-source
    sample systematically inflates the max-congestion statistics (the max
    of a high-variance estimate biases upward) while still costing far
    fewer Dijkstra runs than the exact mode's ``n``.
    """
    nodes = sorted(graph.nodes)
    if len(nodes) < 2 or pairs < 1:
        return
    rng = SeededRandom(derive_seed(seed, "routing:sampled-pairs"))
    per_source = min(len(nodes) - 1, max(1, math.isqrt(pairs)))
    source_count = min(len(nodes), max(1, math.ceil(pairs / per_source)))
    sources = sorted(rng.sample(nodes, source_count))
    source_set = set(sources)
    candidates = [
        (source, target)
        for source in sources
        for target in nodes
        if target != source and not (target in source_set and target < source)
    ]
    if pairs < len(candidates):
        chosen = sorted(rng.sample(candidates, pairs))
    else:
        chosen = candidates
    weighted = power_weighted(graph, network, exponent)
    targets_by_source: Dict[NodeId, list] = {}
    for source, target in chosen:
        targets_by_source.setdefault(source, []).append(target)
    for source in sorted(targets_by_source):
        paths = nx.single_source_dijkstra_path(weighted, source, weight="power_cost")
        for target in targets_by_source[source]:
            path = paths.get(target)
            if path is not None and len(path) > 1:
                yield source, target, path


def _routed_paths(
    graph: nx.Graph,
    network: Network,
    exponent: float,
    sample_pairs: Optional[int],
    seed: int,
):
    """Dispatch between the exact and sampled modes.

    ``sample_pairs=None`` picks exact routing up to
    :data:`AUTO_SAMPLE_NODE_THRESHOLD` nodes and
    :data:`DEFAULT_SAMPLE_PAIRS` sampled pairs beyond it; ``0`` forces the
    exact mode at any size; a positive value samples that many pairs (or
    falls back to exact when the graph has fewer pairs in total).
    """
    if sample_pairs is not None and sample_pairs < 0:
        raise ValueError("sample_pairs must be None, 0 (exact) or positive")
    node_count = graph.number_of_nodes()
    total_pairs = node_count * (node_count - 1) // 2
    if sample_pairs is None:
        sample_pairs = 0 if node_count <= AUTO_SAMPLE_NODE_THRESHOLD else DEFAULT_SAMPLE_PAIRS
    if sample_pairs == 0 or sample_pairs >= total_pairs:
        return _all_pairs_paths(graph, network, exponent)
    return _sampled_pairs_paths(graph, network, exponent, sample_pairs, seed)


def edge_congestion(
    graph: nx.Graph,
    network: Network,
    *,
    exponent: float = 2.0,
    sample_pairs: Optional[int] = None,
    seed: int = 0,
) -> Dict[Tuple[NodeId, NodeId], float]:
    """Fraction of routed pairs whose minimum-power route crosses each edge."""
    counts: Dict[Tuple[NodeId, NodeId], int] = {tuple(sorted(edge)): 0 for edge in graph.edges}
    pairs = 0
    for _, _, path in _routed_paths(graph, network, exponent, sample_pairs, seed):
        pairs += 1
        for u, v in zip(path, path[1:]):
            counts[tuple(sorted((u, v)))] += 1
    if pairs == 0:
        return {edge: 0.0 for edge in counts}
    return {edge: count / pairs for edge, count in counts.items()}


def node_forwarding_load(
    graph: nx.Graph,
    network: Network,
    *,
    exponent: float = 2.0,
    sample_pairs: Optional[int] = None,
    seed: int = 0,
) -> Dict[NodeId, float]:
    """Fraction of routed pairs each node forwards for (excluding endpoints)."""
    counts: Dict[NodeId, int] = {node: 0 for node in graph.nodes}
    pairs = 0
    for _, _, path in _routed_paths(graph, network, exponent, sample_pairs, seed):
        pairs += 1
        for node in path[1:-1]:
            counts[node] += 1
    if pairs == 0:
        return {node: 0.0 for node in counts}
    return {node: count / pairs for node, count in counts.items()}


@dataclass(frozen=True)
class CongestionReport:
    """Summary of routing load over a topology."""

    routed_pairs: int
    average_hop_count: float
    max_edge_congestion: float
    average_edge_congestion: float
    max_forwarding_load: float

    def as_dict(self) -> Dict[str, float]:
        """The report as a plain dictionary."""
        return {
            "routed_pairs": self.routed_pairs,
            "average_hop_count": self.average_hop_count,
            "max_edge_congestion": self.max_edge_congestion,
            "average_edge_congestion": self.average_edge_congestion,
            "max_forwarding_load": self.max_forwarding_load,
        }


def congestion_report(
    graph: nx.Graph,
    network: Network,
    *,
    exponent: float = 2.0,
    sample_pairs: Optional[int] = None,
    seed: int = 0,
) -> CongestionReport:
    """Compute the congestion summary for ``graph`` under min-power routing.

    Only pairs connected in ``graph`` are routed; a disconnected topology
    simply routes fewer pairs (the connectivity metrics catch that
    separately).  ``sample_pairs`` selects the routing mode (see
    :func:`_routed_paths`): ``None`` is exact up to
    :data:`AUTO_SAMPLE_NODE_THRESHOLD` nodes and sampled beyond, ``0``
    forces exact, a positive value samples that many pairs.
    """
    edge_counts: Dict[Tuple[NodeId, NodeId], int] = {tuple(sorted(edge)): 0 for edge in graph.edges}
    node_counts: Dict[NodeId, int] = {node: 0 for node in graph.nodes}
    pairs = 0
    total_hops = 0
    for _, _, path in _routed_paths(graph, network, exponent, sample_pairs, seed):
        pairs += 1
        total_hops += len(path) - 1
        for u, v in zip(path, path[1:]):
            edge_counts[tuple(sorted((u, v)))] += 1
        for node in path[1:-1]:
            node_counts[node] += 1
    if pairs == 0:
        return CongestionReport(0, 0.0, 0.0, 0.0, 0.0)
    # Keyed order makes the congestion averages canonical: the count dicts
    # are keyed by insertion order of graph edges/nodes, which is not stable
    # across construction paths, and float division + summation below is
    # order-sensitive.
    edge_fractions = [count / pairs for _, count in sorted(edge_counts.items())] or [0.0]
    node_fractions = [count / pairs for _, count in sorted(node_counts.items())] or [0.0]
    return CongestionReport(
        routed_pairs=pairs,
        average_hop_count=total_hops / pairs,
        max_edge_congestion=max(edge_fractions),
        average_edge_congestion=sum(edge_fractions) / len(edge_fractions),
        max_forwarding_load=max(node_fractions),
    )
