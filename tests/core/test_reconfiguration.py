"""Tests for repro.core.reconfiguration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import preserves_connectivity
from repro.core.cbtc import run_cbtc
from repro.core.pipeline import OptimizationConfig
from repro.core.reconfiguration import (
    AngleChangeEvent,
    JoinEvent,
    LeaveEvent,
    ReconfigurationManager,
    beacon_power_policy,
)
from repro.geometry import Point
from repro.net.node import Node
from repro.net.placement import PlacementConfig, random_uniform_placement

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
        first = manager.topology(incremental=False)
        assert calls["count"] == 1
        manager.synchronize()
        assert manager.topology(incremental=False) is first
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

    def test_incremental_and_full_topologies_are_byte_identical(self, network, brute_force_twin):
        from repro.io.results import results_to_json

        # The full-rebuild manager runs on the brute-force index, so this
        # checks the grid-backed splice against the oracle end to end.
        oracle = brute_force_twin(network)
        incremental_manager = ReconfigurationManager(network, ALPHA)
        full_manager = ReconfigurationManager(oracle, ALPHA)
        for step in range(3):
            for twin in (network, oracle):
                twin.node(twin.node_ids[step]).move_to(Point(200.0 + 40 * step, 300.0))
            incremental_manager.synchronize()
            full_manager.synchronize()
            a = incremental_manager.topology(config=OptimizationConfig.shrink_only())
            b = full_manager.topology(
                config=OptimizationConfig.shrink_only(), incremental=False
            )
            assert results_to_json(a) == results_to_json(b)


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
    """``_joins_by_observer`` against the all-pairs definition of a join."""

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
        scratch = manager._build_sync_scratch()
        assert manager._joins_by_observer(beacon_powers, alive, scratch) == expected
