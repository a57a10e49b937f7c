"""The basic cone-based topology control algorithm, CBTC(alpha).

This module implements the growing phase of Figure 1 of the paper as a
centralized, per-node computation.  "Centralized" here refers only to how the
computation is *executed* (a loop over nodes with access to ground-truth
distances), not to the information each node uses: the computation at node
``u`` consumes exactly what the distributed protocol would learn — which
nodes acknowledge a broadcast at each power level, the direction each
acknowledgement arrives from, and the power required to reach each
discovered node.  The message-passing version that actually exchanges Hello
and Ack messages over the simulator lives in :mod:`repro.core.protocol`; the
two produce identical neighbour sets for the same power schedule (this is
covered by an integration test).

Algorithm (per node ``u``)::

    N_u <- {};  D_u <- {};  p_u <- p0
    while p_u < P and gap_alpha(D_u):
        p_u <- Increase(p_u)
        bcast(u, p_u, "Hello") and gather Acks
        N_u <- N_u + {v : v discovered};  D_u <- D_u + {dir_u(v)}

The power schedule provides the sequence ``p0 < Increase(p0) < ... <= P``.
By default the *exhaustive* schedule is used: it visits exactly the power
levels at which new neighbours appear, so the resulting per-node power equals
the idealized ``p(rad^-_{u,alpha})`` used in the paper's analysis and Table 1
(a doubling schedule over-shoots by up to the growth factor).
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

from repro.geometry.angles import max_angular_gap_of_sorted
from repro.net.network import Network
from repro.net.node import Node, NodeId
from repro.radio.power import ExhaustiveSchedule, PowerSchedule
from repro.core.state import CBTCOutcome, NeighborRecord, NodeState


def _sorted_candidates(network: Network, node: Node) -> List[Tuple[float, Node, float]]:
    """``(required_power, node, distance)`` for each candidate, sorted.

    The growing phase visits strictly increasing power levels, so with
    candidates pre-sorted by required power (ties broken by node ID for
    determinism) each level consumes a contiguous slice instead of
    rescanning the whole candidate set.  Candidates are the alive nodes
    within maximum range, with the distances the spatial index computed.
    """
    power_model = network.power_model
    candidates = [
        (power_model.required_power(dist), network.node(other_id), dist)
        for other_id, dist in network.spatial_index().neighbors_with_distances(
            node.position, power_model.max_range, exclude=node.node_id
        )
    ]
    candidates.sort(key=lambda item: (item[0], item[1].node_id))
    return candidates


def _all_sorted_candidates(network: Network) -> dict:
    """Per-node sorted candidate lists for every alive node, in one index pass.

    A single ``pairs_within(max_range)`` enumeration computes each pairwise
    distance (and its required power) once and credits it to both endpoints,
    halving the distance work of querying per node.  The result is memoized
    in the network's derived cache, so repeated CBTC runs over an unchanged
    network — Table 1 evaluates four optimization configs per network,
    sweeps run many alphas — skip the enumeration entirely.  The network
    drops the memo on any node change.
    """
    power_model = network.power_model
    cache = network.derived_cache
    cache_key = ("cbtc_sorted_candidates", power_model)
    adjacency = cache.get(cache_key)
    if adjacency is not None:
        return adjacency
    required_power = power_model.required_power
    alive = [node for node in network.nodes if node.alive]
    nodes_by_id = {node.node_id: node for node in alive}
    adjacency = {node.node_id: [] for node in alive}
    for u, v, dist in network.spatial_index().pairs_within(power_model.max_range):
        required = required_power(dist)
        adjacency[u].append((required, nodes_by_id[v], dist))
        adjacency[v].append((required, nodes_by_id[u], dist))
    for items in adjacency.values():
        items.sort(key=lambda item: (item[0], item[1].node_id))
    cache.put(cache_key, adjacency)
    return adjacency


def _schedule_for_node(
    network: Network,
    candidates: List[Tuple[float, Node, float]],
    schedule: Optional[PowerSchedule],
) -> List[float]:
    """Concrete power levels for one node's growing phase."""
    power_model = network.power_model
    if schedule is not None:
        return schedule(power_model)
    exhaustive = ExhaustiveSchedule(raw_levels=tuple(required for required, _, _ in candidates))
    return exhaustive(power_model)


def run_cbtc_for_node(
    network: Network,
    node_id: NodeId,
    alpha: float,
    *,
    schedule: Optional[PowerSchedule] = None,
    initial_power: float = 0.0,
    _candidates: Optional[List[Tuple[float, Node, float]]] = None,
) -> NodeState:
    """Run the growing phase of CBTC(alpha) at a single node.

    Parameters
    ----------
    network:
        The physical network (positions + power model).
    node_id:
        The node at which to run the algorithm.
    alpha:
        The cone angle parameter.
    schedule:
        Power-level schedule (the ``Increase`` function).  ``None`` selects
        the exhaustive schedule of the node's candidate-neighbour power
        levels, which yields the idealized minimum growth power.
    initial_power:
        Lower bound on the starting power; levels below it are skipped.  The
        reconfiguration rules use this to restart the growing phase from
        ``p(rad^-_{u,alpha})`` instead of from ``p0``.

    Returns
    -------
    NodeState
        Discovered neighbours (with discovery-power tags), the final power,
        and whether the node ended as a boundary node.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    node = network.node(node_id)
    state = NodeState(node_id=node_id, alpha=alpha)
    power_model = network.power_model
    candidates = _sorted_candidates(network, node) if _candidates is None else _candidates
    levels = [level for level in _schedule_for_node(network, candidates, schedule) if level >= initial_power]
    if not levels:
        levels = [power_model.max_power]

    final_power = initial_power
    next_candidate = 0
    # Discovered directions, kept sorted incrementally so the per-level gap
    # test is a linear scan instead of a fresh sort (directions from
    # ``direction_to`` are already in [0, 2*pi), so no normalization needed).
    directions: List[float] = []
    gap_open: Optional[bool] = None

    for level in levels:
        state.rounds += 1
        final_power = level
        # Power levels are strictly increasing, so the acceptance threshold
        # is monotone and each candidate is examined exactly once.
        threshold = level * (1 + 1e-12)
        discovered_this_level = False
        while next_candidate < len(candidates) and candidates[next_candidate][0] <= threshold:
            required, other, distance = candidates[next_candidate]
            next_candidate += 1
            direction = node.direction_to(other)
            state.add_neighbor(
                NeighborRecord(
                    neighbor=other.node_id,
                    direction=direction,
                    required_power=required,
                    discovery_power=level,
                    distance=distance,
                )
            )
            bisect.insort(directions, direction)
            discovered_this_level = True
        # The gap can only change when a direction was added.
        if gap_open is None or discovered_this_level:
            gap_open = max_angular_gap_of_sorted(directions) > alpha + 1e-12
        if not gap_open:
            break

    state.final_power = final_power
    state.used_max_power = (
        abs(final_power - power_model.max_power) <= 1e-9 * max(1.0, power_model.max_power)
    )
    return state


def run_cbtc(
    network: Network,
    alpha: float,
    *,
    schedule: Optional[PowerSchedule] = None,
) -> CBTCOutcome:
    """Run CBTC(alpha) at every alive node of the network.

    Returns a :class:`CBTCOutcome` containing one :class:`NodeState` per
    alive node.  The neighbour relation it induces is the paper's
    ``N_alpha``; use :mod:`repro.core.topology` to build the graphs
    ``G_alpha`` (symmetric closure) and ``G^-_alpha`` (symmetric subset), and
    :mod:`repro.core.optimizations` to apply the optimizations.
    """
    outcome = CBTCOutcome(alpha=alpha)
    all_candidates = _all_sorted_candidates(network)
    for node in network.nodes:
        if not node.alive:
            continue
        outcome.states[node.node_id] = run_cbtc_for_node(
            network,
            node.node_id,
            alpha,
            schedule=schedule,
            _candidates=all_candidates[node.node_id],
        )
    return outcome
