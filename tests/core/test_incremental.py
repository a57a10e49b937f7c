"""Tests for the incremental topology pipeline (repro.core.incremental).

The contract under test: ``update_topology`` / ``IncrementalTopologyBuilder``
produce results **byte-identical** (via ``repro.io`` serialization) to a
from-scratch ``build_topology`` after any sequence of moves, crashes,
recoveries and joins.
"""

import copy
import dataclasses
import math
import pickle
import random

import pytest

from repro.core.incremental import IncrementalTopologyBuilder
from repro.core.pipeline import OptimizationConfig, build_topology, update_topology
from repro.core.reconfiguration import ReconfigurationManager
from repro.geometry import Point
from repro.io.results import results_to_json
from repro.net.node import Node
from repro.net.placement import PlacementConfig, random_uniform_placement

ALPHA = 5 * math.pi / 6

CONFIGS = [
    OptimizationConfig.none(),
    OptimizationConfig.shrink_only(),
    OptimizationConfig.all(),
]


def _drift_network(node_count=120, seed=3):
    side = 1500.0 * math.sqrt(node_count / 100.0)
    network = random_uniform_placement(
        PlacementConfig(node_count=node_count, width=side, height=side), seed=seed
    )
    return network, side


def _perturb(network, side, rng, movers=4):
    dirty = set()
    alive = [n.node_id for n in network.nodes if n.alive]
    for node_id in rng.sample(alive, min(movers, len(alive))):
        node = network.node(node_id)
        node.move_to(
            Point(
                min(max(node.position.x + rng.uniform(-80.0, 80.0), 0.0), side),
                min(max(node.position.y + rng.uniform(-80.0, 80.0), 0.0), side),
            )
        )
        dirty.add(node_id)
    return dirty


class TestUpdateTopologyEquivalence:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
    def test_moves_splice_byte_identically(self, config):
        alpha = 2 * math.pi / 3 if config.asymmetric_removal else ALPHA
        network, side = _drift_network()
        rng = random.Random(0)
        result = update_topology(network, alpha, None, [], config=config)
        assert results_to_json(result) == results_to_json(
            build_topology(network, alpha, config=config)
        )
        for _ in range(5):
            dirty = _perturb(network, side, rng)
            result = update_topology(network, alpha, result, dirty, config=config)
            assert results_to_json(result) == results_to_json(
                build_topology(network, alpha, config=config)
            )

    def test_crash_recover_and_join_splice_byte_identically(self):
        network, side = _drift_network()
        rng = random.Random(1)
        result = update_topology(network, ALPHA, None, [], config=OptimizationConfig.all())
        victim = network.node_ids[7]
        schedule = [
            lambda: (network.node(victim).crash(), {victim})[1],
            lambda: _perturb(network, side, rng),
            lambda: (network.node(victim).recover(), {victim})[1],
            lambda: (
                network.add_node(Node(node_id=9000, position=Point(side / 2, side / 2))),
                {9000},
            )[1],
            lambda: _perturb(network, side, rng) | {9000},
        ]
        for step in schedule:
            dirty = step()
            result = update_topology(
                network, ALPHA, result, dirty, config=OptimizationConfig.all()
            )
            assert results_to_json(result) == results_to_json(
                build_topology(network, ALPHA, config=OptimizationConfig.all())
            )

    def test_empty_dirty_set_returns_previous_result(self):
        network, _ = _drift_network(node_count=40)
        result = update_topology(network, ALPHA, None, [], config=OptimizationConfig.none())
        again = update_topology(network, ALPHA, result, [], config=OptimizationConfig.none())
        assert again is result

    def test_builder_state_never_leaks_into_serialization(self):
        network, _ = _drift_network(node_count=30)
        result = update_topology(network, ALPHA, None, [], config=OptimizationConfig.none())
        assert hasattr(result, "incremental_builder")
        assert "incremental_builder" not in results_to_json(result)

    def test_config_change_reprimes_with_full_build(self):
        network, _ = _drift_network(node_count=40)
        result = update_topology(network, ALPHA, None, [], config=OptimizationConfig.none())
        builder = result.incremental_builder
        switched = update_topology(
            network, ALPHA, result, [], config=OptimizationConfig.shrink_only()
        )
        assert switched.incremental_builder is not builder
        assert results_to_json(switched) == results_to_json(
            build_topology(network, ALPHA, config=OptimizationConfig.shrink_only())
        )


class TestFallbacks:
    def test_large_dirty_region_falls_back_to_full_rebuild(self):
        network, side = _drift_network(node_count=40)
        result = update_topology(network, ALPHA, None, [], config=OptimizationConfig.none())
        builder = result.incremental_builder
        dirty = {node.node_id for node in network.nodes}
        for node_id in list(dirty):
            node = network.node(node_id)
            node.move_to(Point(node.position.x + 5.0, node.position.y))
        updated = update_topology(network, ALPHA, result, dirty, config=OptimizationConfig.none())
        assert builder.full_builds == 2
        assert results_to_json(updated) == results_to_json(
            build_topology(network, ALPHA, config=OptimizationConfig.none())
        )


class TestManagerDrivenBuilder:
    """The builder consuming reconfiguration-manager-maintained states."""

    def test_manager_outcome_splice_matches_full_build(self):
        network, side = _drift_network(node_count=150, seed=11)
        manager = ReconfigurationManager(network, ALPHA)
        builder = IncrementalTopologyBuilder(
            network, ALPHA, config=OptimizationConfig.shrink_only()
        )
        dirty = network.register_dirty_listener()
        builder.rebuild(outcome=manager.outcome)
        rng = random.Random(5)
        for _ in range(4):
            _perturb(network, side, rng, movers=6)
            manager.synchronize(max_iterations=40)
            result = builder.update(dirty | manager._touched, outcome=manager.outcome)
            manager._touched.clear()
            dirty.clear()
            full = build_topology(
                network,
                ALPHA,
                config=OptimizationConfig.shrink_only(),
                outcome=manager.outcome,
            )
            assert results_to_json(result) == results_to_json(full)
        assert builder.incremental_updates >= 1


class TestSharedBaseGraph:
    """With no edge removed, a rebuild's result shares the builder's base
    graph; the next splice must copy it first."""

    def test_splices_leave_earlier_results_unchanged(self):
        network, side = _drift_network()
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()  # the first call completes every node's knowledge
        config = OptimizationConfig.shrink_only()
        results = [manager.topology(config=config)]
        assert results[0].graph is manager._builder._base
        snapshots = [results_to_json(results[0])]
        rng = random.Random(5)
        for _ in range(3):
            _perturb(network, side, rng)
            manager.synchronize()
            results.append(manager.topology(config=config))
            snapshots.append(results_to_json(results[-1]))
            full = build_topology(network, ALPHA, config=config, outcome=manager.outcome)
            assert snapshots[-1] == results_to_json(full)
        assert manager.incremental_updates == 3
        assert [results_to_json(result) for result in results] == snapshots

    def test_builder_pickled_with_a_separate_final_graph_continues_identically(self):
        # Builders pickled before the sharing held their own copy of the
        # final graph and of the manager's states; they must load and keep
        # splicing exactly as a builder that shares the graph.
        network, side = _drift_network()
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        config = OptimizationConfig.shrink_only()
        manager.topology(config=config)
        twin_network, twin = copy.deepcopy((network, manager))
        builder = manager._builder
        builder._result = dataclasses.replace(builder._result, graph=builder._base.copy())
        builder._raw = manager.outcome.copy()
        manager._last_result = builder._result
        network, manager = pickle.loads(pickle.dumps((network, manager)))
        rng, twin_rng = random.Random(9), random.Random(9)
        for _ in range(3):
            _perturb(network, side, rng)
            _perturb(twin_network, side, twin_rng)
            manager.synchronize()
            twin.synchronize()
            assert results_to_json(manager.topology(config=config)) == results_to_json(
                twin.topology(config=config)
            )
        assert manager.incremental_updates == twin.incremental_updates == 3


class TestModeSwitching:
    def test_switching_outcome_modes_reprimes_instead_of_mixing(self):
        network, side = _drift_network(node_count=60)
        manager = ReconfigurationManager(network, ALPHA)
        builder = IncrementalTopologyBuilder(network, ALPHA, config=OptimizationConfig.none())
        builder.rebuild(outcome=manager.outcome)
        dirty = _perturb(network, side, random.Random(8))
        manager.synchronize()
        builder.update(dirty | manager._touched, outcome=manager.outcome)
        builds_before = builder.full_builds
        # Same builder, now without an external outcome: must re-prime (it
        # holds no self-run CBTC states to splice into) and then still match
        # a from-scratch build.
        result = builder.update({network.node_ids[0]})
        assert builder.full_builds == builds_before + 1
        assert results_to_json(result) == results_to_json(
            build_topology(network, ALPHA, config=OptimizationConfig.none())
        )


class TestManagerHygiene:
    def test_counters_stay_monotone_across_builder_replacement(self):
        network, side = _drift_network(node_count=40)
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        manager.topology()
        _perturb(network, side, random.Random(3))
        manager.synchronize()
        manager.topology()
        builds = manager.topology_builds
        updates = manager.incremental_updates
        _perturb(network, side, random.Random(4))
        manager.synchronize()
        manager.topology(incremental=False)  # discards the builder
        assert manager.topology_builds == builds + 1
        assert manager.incremental_updates == updates

    def test_close_detaches_the_dirty_listener(self):
        network, side = _drift_network(node_count=20)
        manager = ReconfigurationManager(network, ALPHA)
        manager.close()
        _perturb(network, side, random.Random(5))
        assert manager._net_dirty == set()
        manager.close()  # idempotent
