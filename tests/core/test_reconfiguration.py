"""Tests for repro.core.reconfiguration."""

import copy
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.reconfiguration as reconfiguration
from repro.core.analysis import preserves_connectivity
from repro.core.cbtc import run_cbtc
from repro.core.pipeline import OptimizationConfig
from repro.core.reconfiguration import (
    AngleChangeEvent,
    JoinEvent,
    LeaveEvent,
    ReconfigurationManager,
    _BeaconPowers,
    _reception_bound,
    beacon_power_policy,
)
from repro.core.state import NeighborRecord
from repro.geometry import Point
from repro.geometry.angles import angle_difference
from repro.net.network import Network
from repro.net.node import Node
from repro.net.placement import PlacementConfig, random_uniform_placement
from repro.radio import PathLossModel, PowerModel
from tests.hypothesis_profiles import battery_examples

ALPHA = 5 * math.pi / 6


@pytest.fixture
def network():
    return random_uniform_placement(PlacementConfig(node_count=30), seed=12)


class TestBeaconPowerPolicy:
    def test_boundary_nodes_beacon_at_max_power(self, network):
        outcome = run_cbtc(network, ALPHA)
        powers = beacon_power_policy(outcome, network)
        for node_id in outcome.boundary_nodes():
            assert powers[node_id] == pytest.approx(network.power_model.max_power)

    def test_non_boundary_nodes_beacon_with_e_alpha_power(self, network):
        from repro.core.topology import symmetric_closure_graph

        outcome = run_cbtc(network, ALPHA)
        powers = beacon_power_policy(outcome, network)
        closure = symmetric_closure_graph(outcome, network)
        for state in outcome:
            if state.is_boundary:
                continue
            neighbors = list(closure.neighbors(state.node_id))
            if not neighbors:
                continue
            needed = max(network.required_power(state.node_id, other) for other in neighbors)
            assert powers[state.node_id] == pytest.approx(needed)


class TestEventRules:
    def test_leave_without_gap_is_local(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        # Find a node with a removable neighbour that does not open a gap.
        for state in manager.outcome:
            for neighbor in state.neighbor_ids:
                trial = state.copy()
                trial.remove_neighbor(neighbor)
                if not trial.has_gap():
                    before = manager.reruns
                    manager.apply_leave(LeaveEvent(observer=state.node_id, subject=neighbor))
                    assert manager.reruns == before
                    assert neighbor not in manager.outcome.state(state.node_id).neighbors
                    return
        pytest.skip("no removable neighbour found in this topology")

    def test_leave_with_gap_triggers_rerun(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        for state in manager.outcome:
            for neighbor in state.neighbor_ids:
                trial = state.copy()
                trial.remove_neighbor(neighbor)
                if trial.has_gap() and not state.used_max_power:
                    before = manager.reruns
                    manager.apply_leave(LeaveEvent(observer=state.node_id, subject=neighbor))
                    assert manager.reruns == before + 1
                    return
        pytest.skip("no gap-opening neighbour found in this topology")

    def test_join_adds_then_shrinks(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        observer = network.node_ids[0]
        manager.apply_join(
            JoinEvent(
                observer=observer,
                subject=999,
                direction=1.0,
                required_power=1.0,
                distance=1.0,
            )
        )
        # The newcomer is either kept or shrunk away, but the manager must have
        # processed the event and must not have lost cone coverage.
        state = manager.outcome.state(observer)
        assert manager.events_applied == 1
        assert state.largest_gap() <= max(ALPHA, run_cbtc(network, ALPHA).state(observer).largest_gap()) + 1e-9

    def test_angle_change_updates_direction(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        observer = None
        subject = None
        for state in manager.outcome:
            if state.neighbor_ids:
                observer = state.node_id
                subject = state.neighbor_ids[0]
                break
        new_direction = (manager.outcome.state(observer).neighbors[subject].direction + 0.01) % (2 * math.pi)
        manager.apply_angle_change(
            AngleChangeEvent(
                observer=observer,
                subject=subject,
                new_direction=new_direction,
                required_power=manager.outcome.state(observer).neighbors[subject].required_power,
                distance=manager.outcome.state(observer).neighbors[subject].distance,
            )
        )
        if subject in manager.outcome.state(observer).neighbors:
            assert manager.outcome.state(observer).neighbors[subject].direction == pytest.approx(new_direction)

    def test_unknown_event_type_rejected(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        with pytest.raises(TypeError):
            manager.apply(object())


class TestSynchronize:
    def test_synchronize_reaches_a_fixpoint_without_changes(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        # The very first synchronization may process a handful of join events
        # (nodes whose beacons reach non-neighbours), but it must settle: a
        # second call on the unchanged network detects nothing.
        manager.synchronize()
        assert manager.synchronize() == 0

    def test_node_failure_preserves_connectivity(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        network.node(network.node_ids[5]).crash()
        network.node(network.node_ids[17]).crash()
        manager.synchronize()
        topology = manager.topology()
        assert preserves_connectivity(network.max_power_graph(), topology.graph)
        assert network.node_ids[5] not in topology.graph or topology.graph.degree[network.node_ids[5]] == 0

    def test_node_movement_preserves_connectivity(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        moved = network.node(network.node_ids[3])
        moved.move_to(Point(moved.position.x + 400.0, moved.position.y))
        manager.synchronize()
        assert preserves_connectivity(network.max_power_graph(), manager.topology().graph)

    def test_new_node_joins_and_is_connected(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        newcomer = Node(node_id=1000, position=Point(750.0, 750.0))
        network.add_node(newcomer)
        manager.synchronize()
        topology = manager.topology()
        assert 1000 in topology.graph
        assert preserves_connectivity(network.max_power_graph(), topology.graph)

    def test_negative_angle_threshold_is_rejected(self, network):
        # A freshly written record would count as an angle change forever.
        with pytest.raises(ValueError):
            ReconfigurationManager(network, ALPHA, angle_threshold=-0.01)
        with pytest.raises(ValueError):
            ReconfigurationManager(network, ALPHA, angle_threshold=float("nan"))

    def test_repeated_synchronize_is_stable(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        moved = network.node(network.node_ids[8])
        moved.move_to(Point(100.0, 100.0))
        manager.synchronize()
        events_after_first = manager.events_applied
        manager.synchronize()
        assert manager.events_applied == events_after_first


class TestTopologyMemoization:
    """Satellite regression: no rebuild when synchronize applied zero events."""

    @pytest.fixture
    def network(self):
        return random_uniform_placement(PlacementConfig(node_count=30), seed=9)

    def test_clean_synchronize_reuses_memoized_topology(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        first = manager.topology()
        builds_after_first = manager.topology_builds
        # Nothing moved, nothing crashed: synchronize applies zero events and
        # topology() must hand back the same object without any pipeline work.
        for _ in range(3):
            assert manager.synchronize() == 0
            assert manager.topology() is first
        assert manager.topology_builds == builds_after_first
        assert manager.memo_hits == 3

    def test_full_rebuild_path_is_also_memoized(self, network, monkeypatch):
        import repro.core.reconfiguration as reconfiguration_module

        calls = {"count": 0}
        real_build = reconfiguration_module.build_topology

        def counting_build(*args, **kwargs):
            calls["count"] += 1
            return real_build(*args, **kwargs)

        monkeypatch.setattr(reconfiguration_module, "build_topology", counting_build)
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        first = manager.topology()
        assert calls["count"] == 1
        manager.synchronize()
        assert manager.topology() is first
        assert calls["count"] == 1  # zero events => no build_topology call

    def test_any_node_change_invalidates_the_memo(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        first = manager.topology()
        network.node(network.node_ids[0]).move_to(Point(10.0, 10.0))
        manager.synchronize()
        assert manager.topology() is not first

    def test_config_change_invalidates_the_memo(self, network):
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        basic = manager.topology()
        shrunk = manager.topology(config=OptimizationConfig.shrink_only())
        assert shrunk is not basic

    def test_grid_and_brute_force_topologies_match(self, network, brute_force_twin):
        from repro.io.results import results_to_json

        # The twin manager runs on the brute-force index, so this checks
        # the grid-backed manager against the oracle end to end.
        oracle = brute_force_twin(network)
        grid_manager = ReconfigurationManager(network, ALPHA)
        oracle_manager = ReconfigurationManager(oracle, ALPHA)
        for step in range(3):
            for twin in (network, oracle):
                twin.node(twin.node_ids[step]).move_to(Point(200.0 + 40 * step, 300.0))
            grid_manager.synchronize()
            oracle_manager.synchronize()
            a = grid_manager.topology(config=OptimizationConfig.shrink_only())
            b = oracle_manager.topology(config=OptimizationConfig.shrink_only())
            assert results_to_json(a) == results_to_json(b)

    def test_held_result_survives_later_events(self, network):
        from repro.io.results import results_to_json

        # Without shrink-back the pipeline keeps the states it is given, so
        # the manager must not hand it its own.
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        held = manager.topology()
        before = results_to_json(held)
        network.node(network.node_ids[0]).move_to(Point(10.0, 10.0))
        assert manager.synchronize() > 0
        assert results_to_json(held) == before
        assert results_to_json(manager.topology()) != before


def _joins_by_definition(manager, beacon_powers, alive):
    """Join events from checking every alive ``(observer, subject)`` pair.

    A pair is a join when the subject is not yet known to the observer and
    ``can_reach(d) and reaches_with(beacon, d)`` holds.  Each observer's
    list is in ``beacon_powers`` (subject) order.
    """
    network = manager.network
    power_model = network.power_model
    joins = {}
    for subject, beacon in beacon_powers.items():
        if subject not in alive:
            continue
        for observer in sorted(alive):
            state = manager.outcome.states.get(observer)
            if observer == subject or state is None:
                continue
            if subject in manager._known.get(observer, set(state.neighbor_ids)):
                continue
            distance = network.distance(observer, subject)
            if power_model.can_reach(distance) and power_model.reaches_with(beacon, distance):
                joins.setdefault(observer, []).append(
                    JoinEvent(
                        observer=observer,
                        subject=subject,
                        direction=network.direction(observer, subject),
                        required_power=power_model.required_power(distance),
                        distance=distance,
                    )
                )
    return joins


class TestJoinDetection:
    """``_joins`` against the all-pairs definition of a join."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        node_count=st.integers(min_value=2, max_value=30),
        crashes=st.integers(min_value=0, max_value=3),
        forget=st.floats(min_value=0.0, max_value=1.0),
        data=st.data(),
    )
    def test_matches_all_pairs_definition(self, seed, node_count, crashes, forget, data):
        network = random_uniform_placement(PlacementConfig(node_count=node_count), seed=seed)
        manager = ReconfigurationManager(network, ALPHA)
        for node_id in network.node_ids[:crashes]:
            network.node(node_id).crash()
        # Forget part of each node's NDP memory so unknown in-range pairs exist.
        for node_id, known in manager._known.items():
            for other in sorted(known):
                if data.draw(st.floats(min_value=0.0, max_value=1.0)) < forget:
                    known.discard(other)
        alive = {node.node_id for node in network.nodes if node.alive}
        power_model = network.power_model
        beacon_powers = beacon_power_policy(manager.outcome, network)
        for subject in sorted(beacon_powers):
            # Beacons exactly at, and a hair below, the power needed to reach
            # some other node put a partner right on the prefix cut-off.
            other = data.draw(st.sampled_from(network.node_ids))
            exact = power_model.required_power(network.distance(subject, other))
            beacon_powers[subject] = data.draw(
                st.sampled_from(
                    [beacon_powers[subject], 0.0, power_model.max_power, exact, exact * (1 - 1e-12)]
                )
            )
        expected = _joins_by_definition(manager, beacon_powers, alive)
        reach = manager._reach()
        beacons = _BeaconPowers(manager.outcome, network, reach)
        beacons.powers = beacon_powers
        beacons.bounds = {node: _reception_bound(network, power) for node, power in beacon_powers.items()}
        joins = {}
        for state in manager.outcome:
            observer = state.node_id
            if observer in alive:
                known = manager._known.get(observer, set(state.neighbor_ids))
                found = manager._joins(observer, known, beacons, alive, reach)
                if found:
                    joins[observer] = found
        assert joins == expected


# --------------------------------------------------------------------------- #
# The synchronize oracle: every iteration re-derives every beacon power and
# scans every observer.
# --------------------------------------------------------------------------- #
def _reference_detect(manager, reach, alive):
    """One all-observer detection pass (joins from the all-pairs definition).

    Each observer forgets heard-from nodes out of range, checks every
    recorded neighbour (a silent refresh re-tags the record), and re-admits
    the unrecorded heard-from nodes whose required power is at most its
    highest discovery tag; joins are then derived for every observer.
    """
    network = manager.network
    power_model = network.power_model
    beacon_powers = beacon_power_policy(manager.outcome, network, distances=reach)
    neighbor_events = {}
    for state in list(manager.outcome):
        observer = state.node_id
        if observer not in alive:
            continue
        in_range = reach.get(observer, {})
        known = manager._known.setdefault(observer, set(state.neighbor_ids))
        for other_id in list(known):
            if other_id not in state.neighbors and other_id not in in_range:
                known.discard(other_id)
        events = neighbor_events[observer] = []
        for neighbor_id in state.neighbor_ids:
            distance = in_range.get(neighbor_id)
            if distance is None:
                events.append(LeaveEvent(observer=observer, subject=neighbor_id))
                continue
            current_direction = network.direction(observer, neighbor_id)
            recorded = state.neighbors[neighbor_id]
            if angle_difference(current_direction, recorded.direction) > manager.angle_threshold:
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
                manager._touched.add(observer)
                state.neighbors[neighbor_id] = NeighborRecord(
                    neighbor=neighbor_id,
                    direction=recorded.direction,
                    required_power=power_model.required_power(distance),
                    discovery_power=power_model.required_power(distance),
                    distance=distance,
                )
        if state.neighbors:
            top = max(record.discovery_power for record in state.neighbors.values())
            for other_id in list(known):
                if (
                    other_id not in state.neighbors
                    and other_id in in_range
                    and power_model.required_power(in_range[other_id]) <= top
                ):
                    known.discard(other_id)
    joins_by_observer = _joins_by_definition(manager, beacon_powers, alive)
    events = []
    for observer, found in neighbor_events.items():
        events.extend(found)
        events.extend(joins_by_observer.get(observer, ()))
    return events


def _reference_synchronize(manager, *, max_iterations=20):
    """Synchronize with full passes; returns every pass's event list."""
    network = manager.network
    alive = {node.node_id for node in network.nodes if node.alive}
    for node_id in list(manager.outcome.states):
        if node_id not in alive:
            del manager.outcome.states[node_id]
            manager._known.pop(node_id, None)
            manager._touched.add(node_id)
    for node_id in sorted(alive):
        if node_id not in manager.outcome.states:
            manager._rerun(node_id, from_power=0.0)
    reach = {}
    for u, v, dist in network.spatial_index().pairs_within(network.power_model.max_range):
        reach.setdefault(u, {})[v] = dist
        reach.setdefault(v, {})[u] = dist
    passes = []
    for _ in range(max_iterations):
        events = _reference_detect(manager, reach, alive)
        passes.append(events)
        if not events:
            return passes
        for event in events:
            manager.apply(event)
    raise RuntimeError("reference synchronize did not stabilize")


def _recorded_synchronize(manager):
    """``manager.synchronize()`` plus the event list of every detection pass."""
    passes = []
    detect = manager._detect_events

    def recording(*args, **kwargs):
        events = detect(*args, **kwargs)
        passes.append(list(events))
        return events

    manager._detect_events = recording
    try:
        iterations = manager.synchronize()
    finally:
        del manager._detect_events
    assert iterations == len(passes) - 1
    return passes


def _manager_snapshot(manager):
    states = [
        (s.node_id, s.alpha, list(s.neighbors.items()), s.final_power, s.used_max_power, s.rounds)
        for s in manager.outcome
    ]
    known = {node: sorted(heard) for node, heard in manager._known.items()}
    return states, known, manager.events_applied, manager.reruns, sorted(manager._touched)


#: Grid spacing of the oracle worlds: integer-valued coordinates make equal
#: distances (and so beacons landing exactly on a partner) common.
GRID = 50.0
GRID_CELLS = 17
ORACLE_POWER = PowerModel(propagation=PathLossModel(exponent=2.0), max_range=500.0)


def _grid_point(cell):
    return Point(GRID * (cell % GRID_CELLS), GRID * (cell // GRID_CELLS))


def _apply_step(network, step, occupied):
    """Apply one schedule step; ``occupied`` maps grid cells to node ids."""
    kind, index, cell = step
    node_ids = network.node_ids
    node = network.node(node_ids[index % len(node_ids)])
    if kind == "move" and cell not in occupied:
        del occupied[next(c for c, n in occupied.items() if n == node.node_id)]
        occupied[cell] = node.node_id
        node.move_to(_grid_point(cell))
    elif kind == "crash":
        node.crash()
    elif kind == "recover":
        node.recover()
    elif kind == "join" and cell not in occupied:
        newcomer = max(node_ids) + 1
        occupied[cell] = newcomer
        network.add_node(Node(node_id=newcomer, position=_grid_point(cell)))


def _run_twins(cells, rounds, *, alpha=ALPHA, spy=None):
    """Run ``rounds`` of steps on twin managers: production vs. the oracle.

    Returns the per-round pass lists (they are asserted equal).  ``spy``,
    when given, is called with the production manager before each round.
    """
    network = Network.from_points([_grid_point(cell) for cell in cells], power_model=ORACLE_POWER)
    manager = ReconfigurationManager(network, alpha)
    twin_network, twin = copy.deepcopy((network, manager))
    occupied = {cell: node_id for node_id, cell in enumerate(cells)}
    twin_occupied = dict(occupied)
    history = []
    for steps in rounds:
        for step in steps:
            _apply_step(network, step, occupied)
            _apply_step(twin_network, step, twin_occupied)
        if spy is not None:
            spy(manager)
        produced = _recorded_synchronize(manager)
        expected = _reference_synchronize(twin)
        assert produced == expected
        assert _manager_snapshot(manager) == _manager_snapshot(twin)
        history.append(produced)
    return history


_STEPS = st.tuples(
    st.sampled_from(["move", "move", "crash", "recover", "join"]),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=GRID_CELLS * GRID_CELLS - 1),
)


class TestSynchronizeOracle:
    """Production ``synchronize`` (later passes re-detect only what changed)
    against the all-observer loop, on twin managers."""

    @settings(max_examples=battery_examples(25), deadline=None)
    @given(
        cells=st.lists(
            st.integers(min_value=0, max_value=GRID_CELLS * GRID_CELLS - 1),
            min_size=3,
            max_size=16,
            unique=True,
        ),
        rounds=st.lists(st.lists(_STEPS, max_size=5), min_size=1, max_size=3),
        alpha=st.sampled_from([ALPHA, 2 * math.pi / 3]),
    )
    def test_matches_all_observer_loop(self, cells, rounds, alpha):
        _run_twins(cells, rounds, alpha=alpha)

    #: A fixed world and schedule (found by search) that hits every case the
    #: re-detection rule has to get right; the test asserts each one happens.
    CELLS = [150, 155, 62, 247, 55, 280, 223, 235, 161, 185]
    ROUNDS = [
        [("crash", 9, 91), ("move", 39, 139)],
        [("recover", 9, 168), ("crash", 33, 193)],
        [("move", 9, 2), ("join", 4, 203), ("move", 37, 217)],
    ]

    def test_exercises_the_delicate_cases(self, monkeypatch):
        seen = {
            # A beacon power went down between passes.
            "decrease": False,
            # A raised beacon power reaches a partner exactly at its distance,
            # and that partner had no event (only the new beacon makes it
            # re-detect).
            "exact_reach": False,
            # A crashed node was still a recorded neighbour.
            "crashed_neighbor": False,
            # A recovered node re-ran the growing phase from power 0.
            "recovered_rerun": False,
            # A later pass re-admitted a node at an observer whose state the
            # previous pass rewrote.
            "readmitted_later": False,
        }
        production = []

        refresh = _BeaconPowers.refresh

        def spying_refresh(self, outcome, before):
            changed = refresh(self, outcome, before)
            seen["decrease"] |= any(self.powers[node] < previous for node, previous in changed)
            self.spied_before = before
            return changed

        newly_reached = ReconfigurationManager._newly_reached

        def spying_newly_reached(self, changed, beacons, reach):
            reached = newly_reached(self, changed, beacons, reach)
            power_model = self.network.power_model
            for subject, previous in changed:
                power = beacons.powers[subject]
                for observer, distance in reach.get(subject, {}).items():
                    if (
                        power > previous
                        and power_model.required_power(distance) == power
                        and observer in reached
                        and observer not in beacons.spied_before
                        and subject not in self._known[observer]
                    ):
                        seen["exact_reach"] = True
            return reached

        rerun = ReconfigurationManager._rerun

        def spying_rerun(self, node_id, *, from_power):
            if self in production and from_power == 0.0 and node_id in self.spied_seen:
                seen["recovered_rerun"] = True
            rerun(self, node_id, from_power=from_power)

        detect = ReconfigurationManager._detect_events

        def spying_detect(self, reach, beacons, alive, reached=None, *args):
            self.spied_later = reached is not None
            return detect(self, reach, beacons, alive, reached, *args)

        readmit = ReconfigurationManager._readmit

        def spying_readmit(self, state, known, reach):
            readmitted = readmit(self, state, known, reach)
            if self in production and readmitted and self.spied_later:
                seen["readmitted_later"] = True
            return readmitted

        def spy(manager):
            production[:] = [manager]
            manager.spied_seen = getattr(manager, "spied_seen", set()) | set(manager.outcome.states)
            dead = {node.node_id for node in manager.network.nodes if not node.alive}
            seen["crashed_neighbor"] |= any(dead & set(state.neighbors) for state in manager.outcome)

        monkeypatch.setattr(_BeaconPowers, "refresh", spying_refresh)
        monkeypatch.setattr(ReconfigurationManager, "_newly_reached", spying_newly_reached)
        monkeypatch.setattr(ReconfigurationManager, "_rerun", spying_rerun)
        monkeypatch.setattr(ReconfigurationManager, "_detect_events", spying_detect)
        monkeypatch.setattr(ReconfigurationManager, "_readmit", spying_readmit)
        history = _run_twins(self.CELLS, self.ROUNDS, spy=spy)
        assert seen == dict.fromkeys(seen, True)
        # Later passes happened: the restricted re-detection was exercised.
        assert max(len(passes) for passes in history) >= 3

    def test_rerun_states_get_their_neighbours_rechecked(self, monkeypatch):
        # Skew every re-run's recorded distances, as if the growing phase had
        # measured them differently: the next pass must refresh them, so the
        # observers whose events re-ran CBTC cannot be limited to join checks.
        grow = reconfiguration.run_cbtc_for_node

        def skewed(*args, **kwargs):
            state = grow(*args, **kwargs)
            for neighbor, record in list(state.neighbors.items()):
                state.neighbors[neighbor] = dataclasses.replace(record, distance=record.distance + 1e-6)
            return state

        monkeypatch.setattr(reconfiguration, "run_cbtc_for_node", skewed)
        _run_twins(self.CELLS, self.ROUNDS)
