"""The three optimizations of Section 3.

* **Shrink-back** (Section 3.1, Theorem 3.1): boundary nodes — those that
  reached maximum power and still have an alpha-gap — walk their discovered
  neighbours back from the highest discovery-power tag, dropping whole power
  levels as long as the cone coverage ``cover_alpha`` is unchanged.  Nodes
  that terminated without a gap are untouched (removing anything would
  shrink their coverage).
* **Asymmetric edge removal** (Section 3.2, Theorem 3.2): for
  ``alpha <= 2*pi/3`` connectivity survives keeping only the edges present
  in *both* directions of ``N_alpha`` (the graph ``G^-_alpha``).
* **Pairwise edge removal** (Section 3.3, Theorem 3.6): an edge ``(u, v)``
  is *redundant* if ``u`` has another neighbour ``w`` with
  ``angle(v, u, w) < pi/3`` and ``eid(u, w) < eid(u, v)``, where edge IDs
  order edges lexicographically by (length, larger endpoint ID, smaller
  endpoint ID).  All redundant edges can be removed while preserving
  connectivity; following the paper, only redundant edges longer than the
  longest non-redundant edge incident to one of their endpoints are actually
  dropped, since shorter ones do not reduce anybody's transmission radius.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Set, Tuple

import networkx as nx

from repro.geometry.angles import (
    TWO_PI,
    angular_gaps_of_sorted,
    arcs_equal,
    cover,
    max_angular_gap_of_sorted,
)
from repro.net.network import Network
from repro.net.node import NodeId
from repro.core.constants import (
    ALPHA_ASYMMETRIC_REMOVAL_THRESHOLD,
    PAIRWISE_ANGLE_THRESHOLD,
)
from repro.core.state import CBTCOutcome, NodeState


# --------------------------------------------------------------------------- #
# Shrink-back (op1)
# --------------------------------------------------------------------------- #
def _coverage_matches(
    kept_directions: List[float],
    original_arcs: List[Tuple[float, float]],
    original_is_full_circle: bool,
    alpha: float,
) -> bool:
    """Whether ``cover(kept_directions)`` equals the original coverage.

    Equivalent to ``arcs_equal(cover(kept_directions, alpha), original_arcs)``
    but with a gap-based fast path for the overwhelmingly common case where
    the original coverage is the full circle (every non-boundary node): the
    prefix covers the full circle iff its largest angular gap is at most
    ``alpha`` (+ the 1e-12 tolerance ``cover`` uses), and it can only *look*
    fully covered to ``arcs_equal``'s 1e-9 arc tolerance when exactly one
    gap exceeds ``alpha`` by less than ~2e-9 — only that rare corner pays
    for a real arc merge.
    """
    if not original_is_full_circle:
        return arcs_equal(cover(kept_directions, alpha, normalized=True), original_arcs)
    gaps = angular_gaps_of_sorted(sorted(kept_directions))
    if max(gaps) <= alpha + 1e-12:
        return True
    oversized = [gap for gap in gaps if gap > alpha]
    if len(oversized) != 1 or oversized[0] - alpha > 2.5e-9:
        # cover() would produce one arc per oversized gap; more than one arc,
        # or a single uncovered span wider than arcs_equal's tolerance, can
        # never compare equal to the full circle.
        return False
    return arcs_equal(cover(kept_directions, alpha, normalized=True), original_arcs)


def shrink_back_node(state: NodeState) -> NodeState:
    """Apply the shrink-back operation to a single node's state.

    Neighbours are grouped by their discovery-power tag; starting from the
    highest tag, whole groups are removed as long as the alpha-coverage of
    the remaining directions equals the original coverage.  The node's final
    power becomes the power needed to reach the farthest surviving neighbour.
    Always returns a new state, never ``state`` itself, whose neighbour
    mapping keeps the original record order (an empty state is copied).
    """
    neighbors = state.neighbors
    if not neighbors:
        return state.copy()
    alpha = state.alpha
    records = neighbors.values()
    levels = sorted({record.discovery_power for record in records})
    keep = len(levels)
    # Directions stored in neighbour records come from Point.angle_to, hence
    # are normalized.
    directions = sorted([record.direction for record in records])
    largest = max_angular_gap_of_sorted(directions)
    if largest <= alpha + 1e-12:
        keep = _smallest_full_circle_prefix(records, levels, directions, largest, alpha)
    elif keep > 1:
        original_arcs = cover(directions, alpha, normalized=True)
        for count in range(1, keep):
            kept_directions = _prefix_directions(records, levels[count - 1])
            if _coverage_matches(kept_directions, original_arcs, False, alpha):
                keep = count
                break
    if keep == len(levels):
        kept = dict(neighbors)
    else:
        threshold = levels[keep - 1]
        kept = {key: record for key, record in neighbors.items() if record.discovery_power <= threshold}
    return NodeState(
        node_id=state.node_id,
        alpha=alpha,
        neighbors=kept,
        final_power=max(max([record.required_power for record in kept.values()]), 0.0),
        used_max_power=state.used_max_power,
        rounds=state.rounds,
    )


def _prefix_directions(records, threshold: float) -> List[float]:
    """Directions of the records discovered at a level up to ``threshold``."""
    return [record.direction for record in records if record.discovery_power <= threshold]


def _smallest_full_circle_prefix(
    records, levels: List[float], directions: List[float], largest: float, alpha: float
) -> int:
    """The smallest level count whose prefix matches full-circle coverage.

    ``directions`` holds all records' directions, sorted; their largest
    gap, ``largest``, covers the circle.  The list is consumed.  Adding
    levels to a prefix never widens its largest gap, so the prefixes that
    cover the circle are those above some count: walk down from all
    levels, deleting one level's directions at a time and tracking the
    largest gap from the gaps the deletions merge (a merged gap is never
    narrower, in floating point too, than the gaps it swallows).  Below
    that count, prefixes whose largest gap still lies within
    :func:`_coverage_matches`' tolerance band form a contiguous run; only
    those need the exact comparison, smallest count first.
    """
    keep = band = len(levels)
    while band > 1:
        level = levels[band - 1]
        for direction in [record.direction for record in records if record.discovery_power == level]:
            i = bisect.bisect_left(directions, direction)
            del directions[i]
            # The gap the deletion opens, computed exactly as
            # max_angular_gap_of_sorted computes it on the shorter list.
            if 0 < i < len(directions):
                merged = directions[i] - directions[i - 1]
            else:
                merged = TWO_PI - directions[-1] + directions[0]
            if merged > largest:
                largest = merged
        if len(directions) < 2:
            largest = TWO_PI
        if largest <= alpha + 1e-12:
            keep = band = band - 1
        elif largest - alpha <= 2.5e-9:
            band -= 1
        else:
            break
    for count in range(band, keep):
        kept_directions = _prefix_directions(records, levels[count - 1])
        if _coverage_matches(kept_directions, [(0.0, TWO_PI)], True, alpha):
            return count
    return keep


def shrink_back(outcome: CBTCOutcome) -> CBTCOutcome:
    """Apply shrink-back to every node of an outcome (returns a new outcome).

    Non-boundary nodes are left untouched automatically: dropping their
    highest power level would reopen an alpha-gap and change the coverage.
    """
    shrunk = CBTCOutcome(alpha=outcome.alpha)
    for state in outcome:
        shrunk.states[state.node_id] = shrink_back_node(state)
    return shrunk


# --------------------------------------------------------------------------- #
# Asymmetric edge removal (op2)
# --------------------------------------------------------------------------- #
def asymmetric_edge_removal(outcome: CBTCOutcome, *, enforce_threshold: bool = True) -> List[Tuple[NodeId, NodeId]]:
    """The edge set ``E^-_alpha`` (both directions present in ``N_alpha``).

    Raises ``ValueError`` when ``alpha > 2*pi/3`` and ``enforce_threshold``
    is left on, because Theorem 3.2 only guarantees connectivity below that
    threshold (and Example 2.1 shows it genuinely fails above it).
    """
    if enforce_threshold and outcome.alpha > ALPHA_ASYMMETRIC_REMOVAL_THRESHOLD + 1e-12:
        raise ValueError(
            "asymmetric edge removal requires alpha <= 2*pi/3 "
            f"(got alpha = {outcome.alpha:.6f})"
        )
    edges: List[Tuple[NodeId, NodeId]] = []
    for state in outcome:
        for neighbor in state.neighbor_ids:
            if neighbor <= state.node_id:
                continue
            other = outcome.states.get(neighbor)
            if other is not None and state.node_id in other.neighbors:
                edges.append((state.node_id, neighbor))
    return edges


# --------------------------------------------------------------------------- #
# Pairwise edge removal (op3)
# --------------------------------------------------------------------------- #
def edge_id(network: Network, u: NodeId, v: NodeId) -> Tuple[float, NodeId, NodeId]:
    """The paper's edge ID ``eid(u, v) = (d(u, v), max(ID), min(ID))``.

    Edge IDs compare lexicographically and are unique because node IDs are
    unique, giving a strict total order on edges even when distances tie.
    """
    return (network.distance(u, v), max(u, v), min(u, v))


def redundant_edges_from_node(
    graph: nx.Graph,
    network: Network,
    u: NodeId,
    *,
    angle_threshold: float = PAIRWISE_ANGLE_THRESHOLD,
) -> Set[Tuple[NodeId, NodeId]]:
    """Edges witnessed redundant by node ``u``'s scan (Definition 3.5).

    One node's contribution to :func:`redundant_edges`: the edges ``(u, v)``
    for which some other neighbour ``w`` of ``u`` satisfies
    ``angle(v, u, w) < pi/3``, ``eid(u, w) < eid(u, v)`` and (implied in
    exact geometry) ``eid(w, v) < eid(u, v)``.  The scan
    depends only on ``u``'s adjacency and the current positions of ``u`` and
    its neighbours, which is the locality the incremental pipeline exploits:
    after a mobility/churn delta it rescans only the nodes whose inputs
    changed.  Returned edges are normalized as ``(min, max)`` pairs.
    """
    node_of = network.node
    redundant: Set[Tuple[NodeId, NodeId]] = set()
    neighbors = list(graph.neighbors(u))
    if len(neighbors) < 2:
        return redundant
    u_node = node_of(u)
    directions = {v: u_node.direction_to(node_of(v)) for v in neighbors}
    ids = {v: (u_node.distance_to(node_of(v)), max(u, v), min(u, v)) for v in neighbors}
    # Visiting neighbours in increasing edge-ID order means only the
    # already-seen ones can witness redundancy (eid(u, w) < eid(u, v)),
    # halving the scan.  Edge IDs are a strict total order, so this is
    # exactly Definition 3.5.  Removing (u, v) is safe because the path
    # u-w-v uses only smaller edge IDs: eid(w, v) < eid(u, v) follows from
    # the angle and eid(u, w) < eid(u, v) in exact geometry, but not in
    # floating point when w (nearly) coincides with u.  So it is checked.
    seen: List[NodeId] = []
    for v in sorted(neighbors, key=ids.__getitem__):
        direction_v = directions[v]
        v_node = node_of(v)
        for w in seen:
            # angle_difference inlined: directions are already in [0, 2*pi).
            diff = abs(direction_v - directions[w])
            if diff > math.pi:
                diff = TWO_PI - diff
            if diff < angle_threshold and (
                v_node.distance_to(node_of(w)), max(v, w), min(v, w)
            ) < ids[v]:
                redundant.add((min(u, v), max(u, v)))
                break
        seen.append(v)
    return redundant


def redundant_edges(
    graph: nx.Graph,
    network: Network,
    *,
    angle_threshold: float = PAIRWISE_ANGLE_THRESHOLD,
) -> Set[Tuple[NodeId, NodeId]]:
    """All redundant edges of ``graph`` per Definition 3.5.

    An edge ``(u, v)`` is redundant if some other neighbour ``w`` of ``u``
    satisfies ``angle(v, u, w) < pi/3``, ``eid(u, w) < eid(u, v)`` and
    ``eid(w, v) < eid(u, v)`` (see :func:`redundant_edges_from_node`).
    Returned edges are normalized as ``(min, max)`` pairs.
    """
    redundant: Set[Tuple[NodeId, NodeId]] = set()
    for u in graph.nodes:
        redundant |= redundant_edges_from_node(
            graph, network, u, angle_threshold=angle_threshold
        )
    return redundant


def pairwise_edge_removal(
    graph: nx.Graph,
    network: Network,
    *,
    remove_all: bool = False,
    angle_threshold: float = PAIRWISE_ANGLE_THRESHOLD,
) -> nx.Graph:
    """Apply pairwise edge removal to ``graph`` (returns a new graph).

    With ``remove_all=False`` (the paper's choice) a redundant edge is only
    dropped when it is longer than the longest non-redundant edge incident to
    at least one of its endpoints, because only then does the removal lower a
    node's transmission radius.  With ``remove_all=True`` every redundant
    edge is dropped (Theorem 3.6 guarantees this still preserves
    connectivity; it minimizes degree rather than power).
    """
    redundant = redundant_edges(graph, network, angle_threshold=angle_threshold)
    result = graph.copy()
    if not redundant:
        return result

    if remove_all:
        result.remove_edges_from(redundant)
        return result

    # Longest non-redundant edge length per node.  Edge lengths are stored on
    # the graph (same floats the network would recompute).
    longest_non_redundant: Dict[NodeId, float] = {node: 0.0 for node in graph.nodes}
    for u, v, data in graph.edges(data=True):
        key = (min(u, v), max(u, v))
        if key in redundant:
            continue
        length = data["length"] if "length" in data else network.distance(u, v)
        longest_non_redundant[u] = max(longest_non_redundant[u], length)
        longest_non_redundant[v] = max(longest_non_redundant[v], length)

    to_remove = []
    for u, v in redundant:
        data = graph[u][v]
        length = data["length"] if "length" in data else network.distance(u, v)
        if length > longest_non_redundant[u] or length > longest_non_redundant[v]:
            to_remove.append((u, v))
    result.remove_edges_from(to_remove)
    return result
