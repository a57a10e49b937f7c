"""Reconfiguration under mobility, failures and joins (Section 4).

The paper's reconfiguration algorithm reacts to the three events produced by
the Neighbor Discovery Protocol:

* ``leave_u(v)`` — drop ``v`` from ``N_u``; if dropping ``dir_u(v)`` opens an
  alpha-gap, re-run CBTC(alpha) at ``u`` starting from power
  ``p(rad^-_{u,alpha})`` (not from ``p0``);
* ``join_u(v)`` — record ``v``'s direction and required power, then shrink
  back (drop the farthest neighbours as long as coverage is unchanged);
* ``angle_change_u(v)`` — update the direction; re-run CBTC if a gap
  appeared, otherwise try to shrink back.

``ReconfigurationManager`` maintains the per-node CBTC states across such
events and can *synchronize* against the network's current ground truth: it
derives the events a beaconing NDP would deliver (using the paper's beacon
power policy) and applies them until no further events are generated.  After
synchronization the invariant behind Theorem 2.1 holds again for the new
node positions — every node either has no alpha-gap or transmits at maximum
power — so the reconstructed ``G_alpha`` preserves the connectivity of the
new ``G_R``.

``beacon_power_policy`` implements the power rules of Section 4: beacons use
``p(rad_{u,alpha})`` (the power needed to reach every neighbour in
``E_alpha``), and nodes that shrank back as boundary nodes must keep
beaconing with the power the *basic* algorithm computed (maximum power), or
two re-approaching partitions could never hear each other.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.geometry.angles import angle_difference
from repro.net.network import Network
from repro.net.node import NodeId
from repro.core.cbtc import run_cbtc, run_cbtc_for_node
from repro.core.optimizations import shrink_back_node
from repro.core.pipeline import OptimizationConfig, build_topology
from repro.core.state import CBTCOutcome, NeighborRecord, NodeState
from repro.core.topology import TopologyResult
from repro.obs.metrics import COUNT_BUCKETS, Histogram


@dataclass(frozen=True)
class JoinEvent:
    """``join_u(v)``: node ``observer`` hears node ``subject`` for the first time."""

    observer: NodeId
    subject: NodeId
    direction: float
    required_power: float
    distance: float


@dataclass(frozen=True)
class LeaveEvent:
    """``leave_u(v)``: node ``observer`` stops hearing node ``subject``."""

    observer: NodeId
    subject: NodeId


@dataclass(frozen=True)
class AngleChangeEvent:
    """``angle_change_u(v)``: the direction of ``subject`` seen by ``observer`` moved."""

    observer: NodeId
    subject: NodeId
    new_direction: float
    required_power: float
    distance: float


ReconfigurationEvent = object  # union of the three event dataclasses


@dataclass
class _SyncScratch:
    """Loop-invariant geometry shared by the iterations of one synchronize.

    ``reach[u][v]`` holds the distance for every alive in-range pair (both
    directions); ``sorted_reach[u]`` the same partners as parallel
    distance-sorted lists (for beacon-prefix queries); ``directions`` is a
    lazily filled ``direction(u, v)`` memo.
    """

    reach: Dict[NodeId, Dict[NodeId, float]]
    sorted_reach: Dict[NodeId, Tuple[List[float], List[NodeId]]]
    directions: Dict[Tuple[NodeId, NodeId], float] = field(default_factory=dict)


def beacon_power_policy(
    outcome: CBTCOutcome,
    network: Network,
    *,
    distances: Optional[Dict[NodeId, Dict[NodeId, float]]] = None,
) -> Dict[NodeId, float]:
    """Beacon power per node, following Section 4 of the paper.

    Every node beacons with the power needed to reach all of its ``E_alpha``
    neighbours; nodes that are boundary nodes of the *basic* algorithm beacon
    with maximum power regardless of any shrink-back, so that temporarily
    partitioned components can rediscover each other.

    The ``E_alpha`` adjacency (the symmetric closure of the neighbour
    relation) is accumulated directly from the per-node records rather than
    through a ``networkx`` graph — this runs once per synchronization
    iteration and once per epoch for battery accounting, so the constant
    factor matters at scale.  ``distances`` optionally supplies precomputed
    pairwise distances (the synchronizer's in-range scratch); missing pairs
    fall back to the geometric computation, so the values are identical to
    the historic graph-based version either way.
    """
    closure: Dict[NodeId, Set[NodeId]] = {state.node_id: set() for state in outcome}
    for state in outcome:
        for neighbor in state.neighbors:
            closure[state.node_id].add(neighbor)
            closure.setdefault(neighbor, set()).add(state.node_id)
    powers: Dict[NodeId, float] = {}
    max_power = network.power_model.max_power
    empty: Dict[NodeId, float] = {}
    for state in outcome:
        node_id = state.node_id
        neighbors = closure[node_id]
        if neighbors:
            if distances is not None:
                known = distances.get(node_id, empty)
                radius = max(
                    known.get(other) or network.distance(node_id, other)
                    for other in neighbors
                )
            else:
                radius = max(network.distance(node_id, other) for other in neighbors)
            power = network.power_model.required_power(radius)
        else:
            power = 0.0
        if state.is_boundary or state.used_max_power and state.has_gap():
            power = max_power
        powers[node_id] = power
    return powers


class ReconfigurationManager:
    """Maintains per-node CBTC state across joins, leaves and movement."""

    def __init__(
        self,
        network: Network,
        alpha: float,
        *,
        outcome: Optional[CBTCOutcome] = None,
        angle_threshold: float = 0.05,
    ) -> None:
        self.network = network
        self.alpha = alpha
        self.angle_threshold = angle_threshold
        self.outcome = outcome.copy() if outcome is not None else run_cbtc(network, alpha)
        self.events_applied = 0
        self.reruns = 0
        self.memo_hits = 0
        # Nodes each observer has heard from (the NDP's memory).  A join is
        # only generated for nodes *not* in this set; without it, a newcomer
        # that shrink-back immediately discards would be re-detected forever.
        # After the initial CBTC run a node has heard from its discovered
        # neighbours and from every node that discovered it (it answered
        # their Hello messages), so both directions seed the memory.
        self._known: Dict[NodeId, Set[NodeId]] = {
            state.node_id: set(state.neighbor_ids) for state in self.outcome
        }
        for state in self.outcome:
            for neighbor in state.neighbor_ids:
                self._known.setdefault(neighbor, set()).add(state.node_id)
        # Dirty bookkeeping for the incremental topology pipeline: every
        # node whose CBTC state this manager rewrites lands in ``_touched``,
        # and the network feeds every geometric change (move/crash/recover/
        # add/remove) into the registered listener.  ``topology()`` consumes
        # both sets; while they stay empty the memoized result is returned
        # untouched.
        self._touched: Set[NodeId] = set()
        self._net_dirty: Set[NodeId] = network.register_dirty_listener()
        self._builder = None
        self._full_builds = 0
        self._retired_incremental_updates = 0
        self._retired_fallbacks = 0
        self._retired_dirty_hist = Histogram(COUNT_BUCKETS)
        self._last_result: Optional[TopologyResult] = None
        self._last_config: Optional[OptimizationConfig] = None

    def close(self) -> None:
        """Detach this manager from its network's dirty-notification feed.

        Managers normally live as long as their network, but code that
        creates several managers over one long-lived network (comparing
        alphas or configs on the same placement) should close the retired
        ones — otherwise every node change keeps feeding their abandoned
        listener sets.  Safe to call more than once; the manager remains
        usable afterwards except that ``topology()`` can no longer observe
        geometric changes automatically.
        """
        self.network.unregister_dirty_listener(self._net_dirty)

    def _retire_builder(self) -> None:
        """Fold the current builder's work counters into the manager's own,
        so ``topology_builds``/``incremental_updates`` stay monotone across
        builder replacements (config changes, incremental=False switches)."""
        if self._builder is not None:
            self._full_builds += self._builder.full_builds
            self._retired_incremental_updates += self._builder.incremental_updates
            self._retired_fallbacks += self._builder.fallbacks
            self._retired_dirty_hist.merge(self._builder.dirty_size_hist)
            self._builder = None

    # ------------------------------------------------------------------ #
    # Event application (the paper's three rules)
    # ------------------------------------------------------------------ #
    def _state(self, node_id: NodeId) -> NodeState:
        if node_id not in self.outcome.states:
            self.outcome.states[node_id] = NodeState(node_id=node_id, alpha=self.alpha)
            self._touched.add(node_id)
        if node_id not in self._known:
            self._known[node_id] = set(self.outcome.states[node_id].neighbor_ids)
        return self.outcome.states[node_id]

    def _rerun(self, node_id: NodeId, *, from_power: float) -> None:
        """Re-run the growing phase at ``node_id`` starting from ``from_power``."""
        self.reruns += 1
        self._touched.add(node_id)
        self.outcome.states[node_id] = run_cbtc_for_node(
            self.network,
            node_id,
            self.alpha,
            initial_power=from_power,
        )
        self._known.setdefault(node_id, set()).update(self.outcome.states[node_id].neighbor_ids)

    def apply_leave(self, event: LeaveEvent) -> None:
        """Apply a leave event per the paper's rule."""
        self.events_applied += 1
        self._touched.add(event.observer)
        state = self._state(event.observer)
        self._known[event.observer].discard(event.subject)
        previous_power = state.power_to_reach_all()
        state.remove_neighbor(event.subject)
        if state.has_gap():
            self._rerun(event.observer, from_power=previous_power)

    def apply_join(self, event: JoinEvent) -> None:
        """Apply a join event: record the newcomer, then shrink back."""
        self.events_applied += 1
        self._touched.add(event.observer)
        state = self._state(event.observer)
        self._known[event.observer].add(event.subject)
        state.add_neighbor(
            NeighborRecord(
                neighbor=event.subject,
                direction=event.direction,
                required_power=event.required_power,
                discovery_power=event.required_power,
                distance=event.distance,
            )
        )
        self.outcome.states[event.observer] = shrink_back_node(state)

    def apply_angle_change(self, event: AngleChangeEvent) -> None:
        """Apply an angle-change event: update the direction, re-run or shrink."""
        self.events_applied += 1
        self._touched.add(event.observer)
        state = self._state(event.observer)
        old = state.neighbors.get(event.subject)
        previous_power = state.power_to_reach_all()
        discovery = old.discovery_power if old is not None else event.required_power
        state.neighbors[event.subject] = NeighborRecord(
            neighbor=event.subject,
            direction=event.new_direction,
            required_power=event.required_power,
            discovery_power=discovery,
            distance=event.distance,
        )
        if state.has_gap() and not state.used_max_power:
            self._rerun(event.observer, from_power=previous_power)
        else:
            self.outcome.states[event.observer] = shrink_back_node(state)

    def apply(self, event: ReconfigurationEvent) -> None:
        """Dispatch an event to the appropriate rule."""
        if isinstance(event, LeaveEvent):
            self.apply_leave(event)
        elif isinstance(event, JoinEvent):
            self.apply_join(event)
        elif isinstance(event, AngleChangeEvent):
            self.apply_angle_change(event)
        else:
            raise TypeError(f"unknown reconfiguration event {event!r}")

    # ------------------------------------------------------------------ #
    # Centralized synchronization against ground truth
    # ------------------------------------------------------------------ #
    def _build_sync_scratch(self) -> _SyncScratch:
        """Precompute geometry shared by every iteration of one synchronize.

        Node positions are static *within* a synchronize call — only states
        and NDP memory evolve as events are applied — so the alive in-range
        pair set, the pairwise distances and the pairwise directions are all
        loop invariants.  One ``pairs_within(max_range)`` enumeration (the
        same memoized pair set the epoch's measurement phase reuses) feeds
        every iteration's forget/leave/angle/join checks.  Its tolerance
        matches ``can_reach`` exactly (``d <= R + 1e-12``), so an alive pair
        is in ``reach`` iff the two nodes can communicate.
        """
        network = self.network
        reach: Dict[NodeId, Dict[NodeId, float]] = {}
        for u, v, dist in network.spatial_index().pairs_within(network.power_model.max_range):
            reach.setdefault(u, {})[v] = dist
            reach.setdefault(v, {})[u] = dist
        sorted_reach: Dict[NodeId, Tuple[List[float], List[NodeId]]] = {}
        for u, partners in reach.items():
            ordered = sorted((dist, other) for other, dist in partners.items())
            sorted_reach[u] = ([dist for dist, _ in ordered], [other for _, other in ordered])
        return _SyncScratch(reach=reach, sorted_reach=sorted_reach)

    def _joins_by_observer(
        self,
        beacon_powers: Dict[NodeId, float],
        alive: Set[NodeId],
        scratch: _SyncScratch,
    ) -> Dict[NodeId, List[JoinEvent]]:
        """Join events per observer, computed subject-first.

        A pair ``(observer, subject)`` of distinct alive nodes is a join when
        the subject is not yet known to the observer and
        ``can_reach(d) and reaches_with(beacon_power, d)`` holds.  Rather
        than testing every alive pair, each subject's candidates are a
        distance-sorted prefix of its precomputed in-range list: its beacon
        only reaches nodes within ``range_for_power`` of its beacon power.
        The exact predicate is then applied to each candidate, and subjects
        are visited in ``beacon_powers`` order, so each observer's join list
        (events, floats and order) equals the all-pairs definition
        (property-tested).
        """
        power_model = self.network.power_model
        joins: Dict[NodeId, List[JoinEvent]] = {}
        states = self.outcome.states
        known_of = self._known
        for subject, beacon_power in beacon_powers.items():
            if subject not in alive:
                continue
            distances, partners = scratch.sorted_reach.get(subject, ([], []))
            # Over-approximate the reception radius so the prefix cut-off
            # never drops a node the exact predicate below would accept
            # (same trick as Network.receivers_of_broadcast).
            bound = power_model.range_for_power(beacon_power * (1.0 + 1e-9)) + 1e-9
            cutoff = bisect.bisect_right(distances, bound)
            for i, observer in enumerate(partners[:cutoff]):
                state = states.get(observer)
                if state is None:
                    continue
                known = known_of.get(observer)
                if known is None:
                    known = known_of.setdefault(observer, set(state.neighbor_ids))
                if subject in known:
                    continue
                distance = distances[i]
                if power_model.can_reach(distance) and power_model.reaches_with(
                    beacon_power, distance
                ):
                    joins.setdefault(observer, []).append(
                        JoinEvent(
                            observer=observer,
                            subject=subject,
                            direction=self._direction(observer, subject, scratch),
                            required_power=power_model.required_power(distance),
                            distance=distance,
                        )
                    )
        return joins

    def _direction(self, u: NodeId, v: NodeId, scratch: _SyncScratch) -> float:
        """``direction(u, v)``, memoized per synchronize call (static geometry)."""
        key = (u, v)
        cached = scratch.directions.get(key)
        if cached is None:
            cached = self.network.direction(u, v)
            scratch.directions[key] = cached
        return cached

    def _detect_events(self, scratch: _SyncScratch) -> List[ReconfigurationEvent]:
        """Derive the events a beaconing NDP would deliver in the current geometry."""
        events: List[ReconfigurationEvent] = []
        network = self.network
        power_model = network.power_model
        beacon_powers = beacon_power_policy(self.outcome, network, distances=scratch.reach)
        alive: Set[NodeId] = {node.node_id for node in network.nodes if node.alive}
        joins_by_observer = self._joins_by_observer(beacon_powers, alive, scratch)
        empty: Dict[NodeId, float] = {}

        for state in list(self.outcome):
            observer = state.node_id
            if observer not in alive:
                continue
            in_range = scratch.reach.get(observer, empty)
            known = self._known.get(observer)
            if known is None:
                known = self._known.setdefault(observer, set(state.neighbor_ids))
            # Forget heard-from nodes that are gone or out of range, so that a
            # node which moves away and later returns produces a fresh join.
            for other_id in list(known):
                if other_id not in state.neighbors and other_id not in in_range:
                    known.discard(other_id)
            # Leaves: recorded neighbours that died or moved out of maximum range.
            for neighbor_id in state.neighbor_ids:
                distance = in_range.get(neighbor_id)
                if distance is None:
                    events.append(LeaveEvent(observer=observer, subject=neighbor_id))
                    continue
                # The neighbour is still reachable: silently refresh its
                # distance/power bookkeeping and emit an angle-change event
                # when its direction moved beyond the detection threshold.
                current_direction = self._direction(observer, neighbor_id, scratch)
                recorded = state.neighbors[neighbor_id]
                if angle_difference(current_direction, recorded.direction) > self.angle_threshold:
                    events.append(
                        AngleChangeEvent(
                            observer=observer,
                            subject=neighbor_id,
                            new_direction=current_direction,
                            required_power=power_model.required_power(distance),
                            distance=distance,
                        )
                    )
                elif abs(distance - recorded.distance) > 1e-9:
                    # A silent distance refresh still rewrites the record, so
                    # the incremental topology pipeline must see this node as
                    # touched even though no event is emitted.
                    self._touched.add(observer)
                    state.neighbors[neighbor_id] = NeighborRecord(
                        neighbor=neighbor_id,
                        direction=recorded.direction,
                        required_power=power_model.required_power(distance),
                        discovery_power=recorded.discovery_power,
                        distance=distance,
                    )
            # Joins: nodes whose beacon reaches the observer but that the
            # observer has not heard from (precomputed subject-first; see
            # _joins_by_observer).
            events.extend(joins_by_observer.get(observer, ()))
        return events

    def synchronize(self, *, max_iterations: int = 20) -> int:
        """Apply detected events until quiescence; return iterations used.

        Dead nodes' states are dropped first (they no longer participate).
        Raises ``RuntimeError`` if the loop does not stabilize within
        ``max_iterations`` — with a finite node set and monotone power levels
        this indicates a bug rather than a legitimate oscillation.
        """
        alive = {node.node_id for node in self.network.nodes if node.alive}
        for node_id in list(self.outcome.states):
            if node_id not in alive:
                del self.outcome.states[node_id]
                self._known.pop(node_id, None)
                self._touched.add(node_id)
        for node_id in sorted(alive):
            if node_id not in self.outcome.states:
                # A brand-new (or recovered) node runs the full growing phase,
                # exactly as the paper prescribes for nodes joining the network.
                self._rerun(node_id, from_power=0.0)

        # Geometry is static for the whole synchronize call, so the in-range
        # pair set, distances and directions are computed once and shared by
        # every detection iteration (see _build_sync_scratch).
        scratch = self._build_sync_scratch()
        for iteration in range(1, max_iterations + 1):
            events = self._detect_events(scratch)
            if not events:
                return iteration - 1
            for event in events:
                self.apply(event)
        raise RuntimeError("reconfiguration did not stabilize within the iteration budget")

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    @property
    def topology_builds(self) -> int:
        """How many full pipeline builds ``topology()`` has performed (monotone)."""
        return self._full_builds + (self._builder.full_builds if self._builder else 0)

    @property
    def incremental_updates(self) -> int:
        """How many incremental splices ``topology()`` has performed (monotone)."""
        return self._retired_incremental_updates + (
            self._builder.incremental_updates if self._builder else 0
        )

    @property
    def rebuild_fallbacks(self) -> int:
        """How often splicing was abandoned for a full rebuild (monotone)."""
        return self._retired_fallbacks + (self._builder.fallbacks if self._builder else 0)

    def dirty_size_histogram(self) -> Histogram:
        """Merged per-update dirty-set-size distribution (telemetry only)."""
        merged = Histogram(COUNT_BUCKETS)
        merged.merge(self._retired_dirty_hist)
        if self._builder is not None:
            merged.merge(self._builder.dirty_size_hist)
        return merged

    def topology(
        self,
        *,
        config: Optional[OptimizationConfig] = None,
        incremental: bool = True,
    ) -> TopologyResult:
        """Build the current controlled topology from the maintained states.

        The result is memoized on a clean/dirty flag: when no event has been
        applied and no node has moved, crashed, recovered, joined or left
        since the last call (and the optimization config is unchanged), the
        previous :class:`TopologyResult` is returned untouched — no pipeline
        work at all.  Otherwise, with ``incremental=True`` (the default) the
        dirty node set is spliced into the previous result through
        :class:`~repro.core.incremental.IncrementalTopologyBuilder`;
        ``incremental=False`` forces the historic from-scratch
        :func:`~repro.core.pipeline.build_topology` (both produce
        byte-identical results — test-enforced).
        """
        config = config if config is not None else OptimizationConfig.none()
        dirty = self._touched | self._net_dirty
        if (
            self._last_result is not None
            and not dirty
            and config == self._last_config
        ):
            self.memo_hits += 1
            return self._last_result
        if incremental:
            if self._builder is None or not self._builder.matches(
                self.network, self.alpha, config
            ):
                from repro.core.incremental import IncrementalTopologyBuilder

                self._retire_builder()
                self._builder = IncrementalTopologyBuilder(
                    self.network, self.alpha, config=config
                )
                result = self._builder.rebuild(outcome=self.outcome)
            else:
                result = self._builder.update(dirty, outcome=self.outcome)
        else:
            self._retire_builder()
            self._full_builds += 1
            result = build_topology(
                self.network,
                self.alpha,
                config=config,
                outcome=self.outcome,
            )
        self._touched.clear()
        self._net_dirty.clear()
        self._last_result = result
        self._last_config = config
        return result
