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

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.geometry.angles import angle_difference
from repro.net.network import Network
from repro.net.node import NodeId
from repro.core.cbtc import run_cbtc, run_cbtc_for_node
from repro.core.optimizations import shrink_back_node
from repro.core.pipeline import OptimizationConfig, build_topology
from repro.core.state import CBTCOutcome, NeighborRecord, NodeState
from repro.core.topology import TopologyResult


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


#: Per alive node, the distance to every alive node within maximum range.
Reach = Dict[NodeId, Dict[NodeId, float]]


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
    through a ``networkx`` graph.  ``distances`` optionally supplies
    precomputed pairwise distances (the synchronizer's in-range scratch);
    missing pairs fall back to the geometric computation, so the values are
    identical to the historic graph-based version either way.
    """
    closure = _closure(outcome)
    return {
        state.node_id: _beacon_power(state, closure[state.node_id], network, distances)
        for state in outcome
    }


def _closure(outcome: CBTCOutcome) -> Dict[NodeId, Set[NodeId]]:
    """The symmetric closure of the neighbour relation, per node."""
    closure: Dict[NodeId, Set[NodeId]] = {state.node_id: set() for state in outcome}
    for state in outcome:
        for neighbor in state.neighbors:
            closure[state.node_id].add(neighbor)
            closure.setdefault(neighbor, set()).add(state.node_id)
    return closure


_NO_DISTANCES: Dict[NodeId, float] = {}


def _beacon_power(
    state: NodeState,
    neighbors: Set[NodeId],
    network: Network,
    distances: Optional[Reach],
) -> float:
    """One node's beacon power, given its ``E_alpha`` neighbours."""
    node_id = state.node_id
    power = 0.0
    if neighbors:
        if distances is not None:
            known = distances.get(node_id, _NO_DISTANCES)
            radius = max(
                known.get(other) or network.distance(node_id, other) for other in neighbors
            )
        else:
            radius = max(network.distance(node_id, other) for other in neighbors)
        power = network.power_model.required_power(radius)
    if state.is_boundary:
        power = network.power_model.max_power
    return power


def _reception_bound(network: Network, power: float) -> float:
    """A distance beyond which a beacon of ``power`` reaches nobody.

    Over-approximates the reception radius (same trick as
    ``Network.receivers_of_broadcast``), so ``distance > bound`` rules a
    receiver out without evaluating ``reaches_with``.
    """
    return network.power_model.range_for_power(power * (1.0 + 1e-9)) + 1e-9


class _BeaconPowers:
    """Beacon powers across the iterations of one synchronize.

    Built with :func:`beacon_power_policy`'s rules; :meth:`refresh` then
    re-derives only the powers an iteration's events can have changed.  A
    node's power depends on its own state and its ``E_alpha`` neighbours,
    and applying an event rewrites only the observer's state, so only the
    observers and their old and new neighbours need a new value.
    """

    def __init__(
        self,
        outcome: CBTCOutcome,
        network: Network,
        distances: Reach,
    ) -> None:
        self.network = network
        self.distances = distances
        self.closure = _closure(outcome)
        self.powers = {
            state.node_id: _beacon_power(state, self.closure[state.node_id], network, distances)
            for state in outcome
        }
        # Subjects' join order; the outcome's key order is fixed while it runs.
        self.rank = {node: rank for rank, node in enumerate(self.powers)}
        self.bounds = {node: _reception_bound(network, power) for node, power in self.powers.items()}

    def refresh(
        self, outcome: CBTCOutcome, before: Dict[NodeId, List[NodeId]]
    ) -> List[Tuple[NodeId, float]]:
        """Update after the observers in ``before`` changed state.

        ``before`` maps each changed observer to its neighbour ids before the
        change.  Returns ``(node, previous power)`` for every power that
        changed.  The key order of ``powers`` (the outcome's) is kept.
        """
        closure = self.closure
        states = outcome.states
        affected: Dict[NodeId, None] = {}
        for node, old_ids in before.items():
            affected[node] = None
            old = set(old_ids)
            new = states[node].neighbors
            for other in old_ids:
                affected[other] = None
                if other in new:
                    continue
                other_state = states.get(other)
                if other_state is None or node not in other_state.neighbors:
                    closure[node].discard(other)
                    closure[other].discard(node)
            for other in new:
                affected[other] = None
                if other not in old:
                    closure[node].add(other)
                    closure.setdefault(other, set()).add(node)
        changed: List[Tuple[NodeId, float]] = []
        for node in affected:
            state = states.get(node)
            if state is None:
                continue
            power = _beacon_power(state, closure[node], self.network, self.distances)
            previous = self.powers[node]
            if power != previous:
                self.powers[node] = power
                self.bounds[node] = _reception_bound(self.network, power)
                changed.append((node, previous))
        return changed


#: Attributes of the incremental topology builder that older managers
#: pickled; see ``ReconfigurationManager.__setstate__``.
_RETIRED_STATE = ("_retired_incremental_updates", "_retired_fallbacks", "_retired_dirty_hist")


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
        if not angle_threshold >= 0.0:
            # A record refreshed to the current direction must never count
            # as an angle change; synchronize relies on it.
            raise ValueError(f"angle_threshold must be non-negative (got {angle_threshold!r})")
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
        # Dirty bookkeeping for the topology memo: every node whose CBTC
        # state this manager rewrites lands in ``_touched``, and the network
        # feeds every geometric change (move/crash/recover/add/remove) into
        # the registered listener.  While both sets stay empty ``topology()``
        # returns the memoized result untouched.
        self._touched: Set[NodeId] = set()
        self._net_dirty: Set[NodeId] = network.register_dirty_listener()
        self._full_builds = 0
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

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Managers pickled by older versions carry an incremental topology
        # builder and the counters of retired ones.  Only the builder's
        # full-build count is kept, so ``topology_builds`` stays monotone.
        builder = state.pop("_builder", None)
        if builder is not None:
            state["_full_builds"] += builder.full_builds
        for key in _RETIRED_STATE:
            state.pop(key, None)
        self.__dict__.update(state)

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
        """Apply an angle-change event: update the direction, re-run or shrink.

        The record is re-tagged at its current required power, the level at
        which a growing phase run now would discover the neighbour.
        """
        self.events_applied += 1
        self._touched.add(event.observer)
        state = self._state(event.observer)
        previous_power = state.power_to_reach_all()
        state.neighbors[event.subject] = NeighborRecord(
            neighbor=event.subject,
            direction=event.new_direction,
            required_power=event.required_power,
            discovery_power=event.required_power,
            distance=event.distance,
        )
        if not state.used_max_power and state.has_gap():
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
    def _reach(self) -> Reach:
        """The in-range distances shared by every iteration of one synchronize.

        Node positions are static *within* a synchronize call — only states
        and NDP memory evolve as events are applied — so the alive in-range
        pair set and the pairwise distances are loop invariants.  One
        ``pairs_within(max_range)`` enumeration (the same memoized pair set
        the epoch's measurement phase reuses) feeds every iteration's
        forget/leave/angle/join checks.  Its tolerance matches ``can_reach``
        exactly (``d <= R + 1e-12``), so an alive pair is in ``reach`` iff
        the two nodes can communicate.
        """
        network = self.network
        reach: Reach = {}
        for u, v, dist in network.spatial_index().pairs_within(network.power_model.max_range):
            reach.setdefault(u, {})[v] = dist
            reach.setdefault(v, {})[u] = dist
        return reach

    def _joins(
        self,
        observer: NodeId,
        known: Set[NodeId],
        beacons: _BeaconPowers,
        alive: Set[NodeId],
        reach: Reach,
        candidates: Optional[List[NodeId]] = None,
    ) -> List[JoinEvent]:
        """The join events ``observer`` receives, in ``beacons.powers`` order.

        A subject joins when it is alive, the observer has not heard from it
        (it is not in ``known``) and its beacon reaches the observer:
        ``reaches_with(beacon_power, d)``, which implies ``can_reach(d)``.
        Only in-range partners can pass; ``candidates`` narrows them further
        (by default every in-range partner is tested).
        """
        power_model = self.network.power_model
        bounds = beacons.bounds
        in_range = reach.get(observer, _NO_DISTANCES)
        # Most unknown partners lie beyond their beacon's reach; the bound
        # rejects them before the power predicate is evaluated (a node
        # without a state has no beacon, hence no bound).
        unknown = [
            subject
            for subject in (in_range if candidates is None else candidates)
            if in_range[subject] <= bounds.get(subject, -1.0) and subject not in known
        ]
        subjects = [
            subject
            for subject in unknown
            if subject in alive
            and power_model.reaches_with(beacons.powers[subject], in_range[subject])
        ]
        subjects.sort(key=beacons.rank.__getitem__)
        return [
            JoinEvent(
                observer=observer,
                subject=subject,
                direction=self.network.direction(observer, subject),
                required_power=power_model.required_power(in_range[subject]),
                distance=in_range[subject],
            )
            for subject in subjects
        ]

    def _newly_reached(
        self,
        changed: List[Tuple[NodeId, float]],
        beacons: _BeaconPowers,
        reach: Reach,
    ) -> Dict[NodeId, List[NodeId]]:
        """Per observer, the subjects whose beacon now reaches it but did not before.

        ``changed`` holds ``(subject, previous power)`` for every beacon
        power that changed.  A lower power never reaches more, so only
        raised powers are scanned.
        """
        power_model = self.network.power_model
        reached: Dict[NodeId, List[NodeId]] = {}
        for subject, previous in changed:
            power = beacons.powers[subject]
            if power <= previous:
                continue
            bound = beacons.bounds[subject]
            for observer, distance in reach.get(subject, _NO_DISTANCES).items():
                if (
                    distance <= bound
                    and power_model.reaches_with(power, distance)
                    and not power_model.reaches_with(previous, distance)
                ):
                    reached.setdefault(observer, []).append(subject)
        return reached

    def _detect_events(
        self,
        reach: Reach,
        beacons: _BeaconPowers,
        alive: Set[NodeId],
        reached: Optional[Dict[NodeId, List[NodeId]]] = None,
        changed: AbstractSet[NodeId] = frozenset(),
        rebuilt: AbstractSet[NodeId] = frozenset(),
    ) -> List[ReconfigurationEvent]:
        """Derive the events a beaconing NDP would deliver in the current geometry.

        Without ``reached`` every alive observer is fully checked.  With it
        (a later pass of :meth:`synchronize`), only the observers in
        ``changed`` (an event of the previous pass rewrote their state) are
        re-checked for re-admission, and only those in ``rebuilt`` also get
        their recorded neighbours re-checked.  Joins are looked for only
        among the subjects ``reached`` lists per observer and those just
        re-admitted.  Observers are visited in outcome order.
        """
        events: List[ReconfigurationEvent] = []
        for state in list(self.outcome):
            observer = state.node_id
            if observer not in alive:
                continue
            if reached is not None and observer not in changed and observer not in reached:
                continue
            known = self._known.get(observer)
            if known is None:
                known = self._known.setdefault(observer, set(state.neighbor_ids))
            if reached is None:
                self._neighbor_events(state, known, reach, events)
                # Joins: nodes whose beacon reaches the observer but that
                # the observer has not heard from.
                events.extend(self._joins(observer, known, beacons, alive, reach))
                continue
            candidates = reached.get(observer)
            if observer in changed:
                if observer in rebuilt:
                    readmitted = self._neighbor_events(state, known, reach, events)
                else:
                    readmitted = self._readmit(state, known, reach)
                if readmitted:
                    candidates = readmitted.union(candidates) if candidates else readmitted
            if candidates:
                events.extend(self._joins(observer, known, beacons, alive, reach, candidates))
        return events

    def _readmit(self, state: NodeState, known: Set[NodeId], reach: Reach) -> Set[NodeId]:
        """Forget the heard-from nodes the observer's kept levels would record.

        An unrecorded heard-from node whose required power is at most the
        observer's highest discovery tag is one a growing phase up to that
        level would discover and shrink-back would keep; it is forgotten so
        that it joins again.  Returns the forgotten nodes.
        """
        neighbors = state.neighbors
        readmitted: Set[NodeId] = set()
        if not neighbors:
            return readmitted
        top = max(record.discovery_power for record in neighbors.values())
        # Rejects most nodes before the exact power comparison.
        bound = _reception_bound(self.network, top)
        required_power = self.network.power_model.required_power
        in_range = reach.get(state.node_id, _NO_DISTANCES)
        for other in known:
            if other not in neighbors:
                distance = in_range.get(other)
                if distance is not None and distance <= bound and required_power(distance) <= top:
                    readmitted.add(other)
        known.difference_update(readmitted)
        return readmitted

    def _neighbor_events(
        self,
        state: NodeState,
        known: Set[NodeId],
        reach: Reach,
        events: List[ReconfigurationEvent],
    ) -> Set[NodeId]:
        """Append one observer's leave and angle-change events to ``events``.

        Also forgets heard-from nodes that left, silently refreshes (and
        re-tags) the records of neighbours that stayed, and then re-admits
        (see :meth:`_readmit`).  Returns the re-admitted nodes.
        """
        observer = state.node_id
        power_model = self.network.power_model
        in_range = reach.get(observer, _NO_DISTANCES)
        neighbors = state.neighbors
        # Forget heard-from nodes that are gone or out of range, so that a
        # node which moves away and later returns produces a fresh join.
        stale = known.difference(in_range)
        if stale:
            stale.difference_update(neighbors)
            known.difference_update(stale)
        # Leaves: recorded neighbours that died or moved out of maximum range.
        for neighbor_id in sorted(neighbors):
            distance = in_range.get(neighbor_id)
            if distance is None:
                events.append(LeaveEvent(observer=observer, subject=neighbor_id))
                continue
            # The neighbour is still reachable: silently refresh its
            # distance/power bookkeeping and emit an angle-change event when
            # its direction moved beyond the detection threshold.
            current_direction = self.network.direction(observer, neighbor_id)
            recorded = neighbors[neighbor_id]
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
                # A silent distance refresh still rewrites the record, so the
                # topology memo must see this node as touched even though no
                # event is emitted.
                self._touched.add(observer)
                required = power_model.required_power(distance)
                neighbors[neighbor_id] = NeighborRecord(
                    neighbor=neighbor_id,
                    direction=recorded.direction,
                    required_power=required,
                    discovery_power=required,
                    distance=distance,
                )
        return self._readmit(state, known, reach)

    def synchronize(self, *, max_iterations: int = 20) -> int:
        """Apply detected events until quiescence; return iterations used.

        Dead nodes' states are dropped first (they no longer participate).
        Raises ``RuntimeError`` if the loop does not stabilize within
        ``max_iterations`` — with a finite node set and monotone power levels
        this indicates a bug rather than a legitimate oscillation.

        The first iteration fully checks every observer.  A later one
        re-checks recorded neighbours only where an event of the previous
        iteration re-ran the growing phase, and looks for joins only among
        the subjects whose beacon power rose enough to newly reach an
        observer.  It finds exactly the events a full pass would; README
        ("Inside synchronize") has the argument.
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
        # pair set and distances are computed once and shared by every
        # detection iteration (see _reach).
        reach = self._reach()
        beacons = _BeaconPowers(self.outcome, self.network, reach)
        reached: Optional[Dict[NodeId, List[NodeId]]] = None
        before: Dict[NodeId, List[NodeId]] = {}
        rebuilt: Set[NodeId] = set()
        for iteration in range(1, max_iterations + 1):
            events = self._detect_events(reach, beacons, alive, reached, before, rebuilt)
            if not events:
                return iteration - 1
            # Each observer's neighbour ids before its events, for the beacon refresh.
            before = {}
            for event in events:
                if event.observer not in before:
                    before[event.observer] = list(self.outcome.states[event.observer].neighbors)
            rebuilt = set()
            for event in events:
                reruns = self.reruns
                self.apply(event)
                if self.reruns != reruns:
                    rebuilt.add(event.observer)
            reached = self._newly_reached(beacons.refresh(self.outcome, before), beacons, reach)
        raise RuntimeError("reconfiguration did not stabilize within the iteration budget")

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    @property
    def topology_builds(self) -> int:
        """How many full pipeline builds ``topology()`` has performed (monotone)."""
        return self._full_builds

    # Kept for the benchmark harness, which reads both; they go with it in
    # the benchmark change (ROADMAP, item 1).
    @property
    def incremental_updates(self) -> int:
        """Always 0: ``topology()`` no longer splices."""
        return 0

    @property
    def rebuild_fallbacks(self) -> int:
        """Always 0: ``topology()`` no longer splices."""
        return 0

    def topology(self, *, config: Optional[OptimizationConfig] = None) -> TopologyResult:
        """Build the current controlled topology from the maintained states.

        The result is memoized on a clean/dirty flag: when no event has been
        applied and no node has moved, crashed, recovered, joined or left
        since the last call (and the optimization config is unchanged), the
        previous :class:`TopologyResult` is returned untouched — no pipeline
        work at all.  Otherwise it is a full
        :func:`~repro.core.pipeline.build_topology` on the maintained states.
        The result never shares a state with the manager: later events leave
        a held result unchanged.
        """
        config = config if config is not None else OptimizationConfig.none()
        if (
            self._last_result is not None
            and not self._touched
            and not self._net_dirty
            and config == self._last_config
        ):
            self.memo_hits += 1
            return self._last_result
        self._full_builds += 1
        # Shrink-back writes new states; without it the pipeline would hand
        # back the manager's own, so they are copied.
        outcome = self.outcome if config.shrink_back else self.outcome.copy()
        result = build_topology(self.network, self.alpha, config=config, outcome=outcome)
        self._touched.clear()
        self._net_dirty.clear()
        self._last_result = result
        self._last_config = config
        return result
