"""Executable checks of the paper's theorems and quality metrics.

These helpers verify, on concrete networks, the properties the paper proves:

* :func:`preserves_connectivity` — whether a controlled graph has exactly the
  same connected pairs as the reference graph ``G_R`` (the conclusion of
  Theorem 2.1 and of the optimization theorems);
* :func:`verify_theorem_2_1` / :func:`verify_theorem_3_6` — one-call checks
  used by the property-based test-suite and the ablation benchmarks;
* :func:`power_stretch_factor` — the competitive-power metric discussed in
  the introduction: how much more power the best route in the controlled
  graph needs compared with the best route in ``G_R``;
* :func:`state_divergence` — how far CBTC states maintained under mobility
  have drifted from a fresh run with shrink-back on the same positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, Optional, Tuple

import networkx as nx

from repro.graphs.paths import power_weighted
from repro.net.network import Network
from repro.core.cbtc import run_cbtc
from repro.core.optimizations import pairwise_edge_removal, shrink_back
from repro.core.pipeline import OptimizationConfig, build_topology
from repro.core.state import CBTCOutcome
from repro.core.topology import symmetric_closure_graph


def same_connectivity(reference: nx.Graph, candidate: nx.Graph) -> bool:
    """Whether two graphs on the same node set connect exactly the same pairs."""
    if set(reference.nodes) != set(candidate.nodes):
        return False
    reference_components = {node: i for i, comp in enumerate(nx.connected_components(reference)) for node in comp}
    candidate_components = {node: i for i, comp in enumerate(nx.connected_components(candidate)) for node in comp}
    # Two partitions are equal iff every pair of nodes is together in one
    # exactly when it is together in the other; comparing the partition block
    # of each node against a canonical representative does this in O(n).
    reference_blocks: Dict[int, set] = {}
    candidate_blocks: Dict[int, set] = {}
    for node, block in reference_components.items():
        reference_blocks.setdefault(block, set()).add(node)
    for node, block in candidate_components.items():
        candidate_blocks.setdefault(block, set()).add(node)
    return sorted(map(frozenset, reference_blocks.values())) == sorted(map(frozenset, candidate_blocks.values()))


def preserves_connectivity(reference: nx.Graph, candidate: nx.Graph) -> bool:
    """Whether ``candidate`` preserves the connectivity of ``reference``.

    The candidate must be a subgraph of the reference in terms of node set
    and must connect every pair of nodes that the reference connects.  (The
    converse direction is automatic for subgraphs; we check partitions for
    robustness against non-subgraph inputs.)
    """
    return same_connectivity(reference, candidate)


def _partition_labels(items, edges) -> Dict:
    """Each item mapped to the smallest member of its connected block.

    A flat union-find: a union hangs the larger root under the smaller one,
    so every root is the minimum of its block and is the label itself.
    Paths are halved on every walk up.  Edge endpoints missing from
    ``items`` join the partition as well.
    """
    parent = {item: item for item in items}
    for u, v in edges:
        up = parent.setdefault(u, u)
        while up != u:
            parent[u] = grand = parent[up]
            u, up = grand, parent[grand]
        up = parent.setdefault(v, v)
        while up != v:
            parent[v] = grand = parent[up]
            v, up = grand, parent[grand]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    labels = {}
    for item in parent:
        root = parent[item]
        while parent[root] != root:
            root = parent[root]
        labels[item] = root
    return labels


def preserves_max_power_connectivity(network: "Network", candidate: nx.Graph) -> bool:
    """Same boolean as ``preserves_connectivity(network.max_power_graph(), g)``
    without materializing ``G_R`` as a graph object.

    ``G_R``'s components are computed with a union-find straight off the
    spatial index's ``pairs_within(max_range)`` enumeration (the identical
    edge set ``max_power_graph`` would build), and the candidate's off its
    edge list.  The scenario runner calls this once per epoch, where
    building a throwaway ``networkx`` reference graph with tens of
    thousands of edges dominated the measurement phase at n >= 2000.
    """
    alive = {node.node_id for node in network.alive_nodes()}
    if set(candidate.nodes) != alive:
        return False
    reference_pairs = network.spatial_index().pairs_within(network.power_model.max_range)
    reference = _partition_labels(alive, ((u, v) for u, v, _ in reference_pairs))
    return reference == _partition_labels(alive, candidate.edges)


@dataclass(frozen=True)
class ConnectivityReport:
    """Summary of a connectivity-preservation check."""

    preserved: bool
    reference_components: int
    candidate_components: int
    reference_edges: int
    candidate_edges: int

    @property
    def edge_reduction(self) -> float:
        """Fraction of reference edges removed by topology control."""
        if self.reference_edges == 0:
            return 0.0
        return 1.0 - self.candidate_edges / self.reference_edges


def connectivity_report(reference: nx.Graph, candidate: nx.Graph) -> ConnectivityReport:
    """Build a :class:`ConnectivityReport` comparing two graphs."""
    return ConnectivityReport(
        preserved=preserves_connectivity(reference, candidate),
        reference_components=nx.number_connected_components(reference),
        candidate_components=nx.number_connected_components(candidate),
        reference_edges=reference.number_of_edges(),
        candidate_edges=candidate.number_of_edges(),
    )


def verify_theorem_2_1(network: Network, alpha: float) -> bool:
    """Check Theorem 2.1 on one network: ``G_alpha`` preserves ``G_R`` connectivity.

    Valid to expect ``True`` only for ``alpha <= 5*pi/6``; for larger alpha
    the check may legitimately fail (Theorem 2.4).
    """
    reference = network.max_power_graph()
    outcome = run_cbtc(network, alpha)
    candidate = symmetric_closure_graph(outcome, network)
    return preserves_connectivity(reference, candidate)


def verify_theorem_3_1(network: Network, alpha: float) -> bool:
    """Check Theorem 3.1: shrink-back still preserves connectivity."""
    reference = network.max_power_graph()
    outcome = shrink_back(run_cbtc(network, alpha))
    candidate = symmetric_closure_graph(outcome, network)
    return preserves_connectivity(reference, candidate)


def verify_theorem_3_2(network: Network, alpha: float) -> bool:
    """Check Theorem 3.2: for ``alpha <= 2*pi/3`` the symmetric subset suffices."""
    reference = network.max_power_graph()
    result = build_topology(network, alpha, config=OptimizationConfig(shrink_back=False, asymmetric_removal=True))
    return preserves_connectivity(reference, result.graph)


def verify_theorem_3_6(network: Network, alpha: float, *, remove_all: bool = True) -> bool:
    """Check Theorem 3.6: removing (all) redundant edges preserves connectivity."""
    reference = network.max_power_graph()
    outcome = run_cbtc(network, alpha)
    closure = symmetric_closure_graph(outcome, network)
    pruned = pairwise_edge_removal(closure, network, remove_all=remove_all)
    return preserves_connectivity(reference, pruned)


def power_stretch_factor(
    network: Network,
    candidate: nx.Graph,
    *,
    power_exponent: float = 2.0,
    sample_pairs: Optional[Iterable[Tuple[int, int]]] = None,
) -> float:
    """Maximum ratio of best-route power in ``candidate`` vs. in ``G_R``.

    The route power of a path is the sum over its hops of ``d(u, v)**n``
    (transmission-power-only cost with path-loss exponent ``n``), matching
    the competitiveness discussion in the paper's introduction.  Returns
    ``float('inf')`` if some pair connected in ``G_R`` is disconnected in the
    candidate.  By default every connected pair is evaluated; pass
    ``sample_pairs`` to restrict the computation on large networks.
    """
    reference = network.max_power_graph()
    ref_weighted = power_weighted(reference, network, power_exponent)
    cand_weighted = power_weighted(candidate, network, power_exponent)

    if sample_pairs is None:
        sample_pairs = combinations(sorted(reference.nodes), 2)

    worst = 1.0
    ref_lengths = dict(nx.all_pairs_dijkstra_path_length(ref_weighted, weight="power_cost"))
    cand_lengths = dict(nx.all_pairs_dijkstra_path_length(cand_weighted, weight="power_cost"))
    for u, v in sample_pairs:
        ref_cost = ref_lengths.get(u, {}).get(v)
        if ref_cost is None:
            continue
        cand_cost = cand_lengths.get(u, {}).get(v)
        if cand_cost is None:
            return float("inf")
        if ref_cost == 0.0:
            continue
        worst = max(worst, cand_cost / ref_cost)
    return worst


def hop_stretch_factor(network: Network, candidate: nx.Graph) -> float:
    """Maximum ratio of hop-count shortest paths in ``candidate`` vs. ``G_R``."""
    reference = network.max_power_graph()
    ref_lengths = dict(nx.all_pairs_shortest_path_length(reference))
    cand_lengths = dict(nx.all_pairs_shortest_path_length(candidate))
    worst = 1.0
    for u, targets in ref_lengths.items():
        for v, ref_hops in targets.items():
            if u == v or ref_hops == 0:
                continue
            cand_hops = cand_lengths.get(u, {}).get(v)
            if cand_hops is None:
                return float("inf")
            worst = max(worst, cand_hops / ref_hops)
    return worst


@dataclass(frozen=True)
class StateDivergence:
    """Maintained CBTC states against fresh ``run_cbtc`` + shrink-back.

    Means are over the alive nodes; a node's power is its state's
    ``power_to_reach_all()``.  ``share_above`` is the share of nodes whose
    maintained power exceeds their fresh power.
    """

    mean_records: float
    fresh_mean_records: float
    mean_power: float
    fresh_mean_power: float
    share_above: float

    @property
    def power_ratio(self) -> float:
        """Maintained mean power over fresh mean power (1.0 when both are 0)."""
        if self.fresh_mean_power == 0.0:
            return 1.0 if self.mean_power == 0.0 else math.inf
        return self.mean_power / self.fresh_mean_power


def state_divergence(outcome: CBTCOutcome, network: Network) -> StateDivergence:
    """Compare maintained states with a fresh CBTC run on the current positions.

    The reference is what the paper's static algorithm gives here: CBTC at
    every alive node followed by shrink-back.  Sums run in node-id order.
    """
    fresh = shrink_back(run_cbtc(network, outcome.alpha))
    nodes = sorted(fresh.states)
    if not nodes:
        return StateDivergence(0.0, 0.0, 0.0, 0.0, 0.0)
    records = fresh_records = above = 0
    power = fresh_power = 0.0
    for node in nodes:
        reference = fresh.states[node]
        state = outcome.states.get(node)
        kept = state.power_to_reach_all() if state is not None else 0.0
        fresh_kept = reference.power_to_reach_all()
        records += len(state.neighbors) if state is not None else 0
        fresh_records += len(reference.neighbors)
        power += kept
        fresh_power += fresh_kept
        above += kept > fresh_kept * (1.0 + 1e-9)
    count = len(nodes)
    return StateDivergence(
        mean_records=records / count,
        fresh_mean_records=fresh_records / count,
        mean_power=power / count,
        fresh_mean_power=fresh_power / count,
        share_above=above / count,
    )
