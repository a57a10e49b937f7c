"""Tests for the incremental topology pipeline (repro.core.incremental).

The contract under test: ``IncrementalTopologyBuilder``, fed the CBTC
states a ``ReconfigurationManager`` maintains, produces results
**byte-identical** (via ``repro.io`` serialization) to a from-scratch
``build_topology(outcome=...)`` on the same states after any sequence of
moves, crashes, recoveries and joins.
"""

import copy
import dataclasses
import math
import pickle
import random

import pytest

from repro.core.incremental import IncrementalTopologyBuilder
from repro.core.pipeline import OptimizationConfig, build_topology
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


class _Managed:
    """A network, the manager maintaining its CBTC states, and a builder fed
    the manager's outcome the way ``ReconfigurationManager.topology`` feeds
    its own."""

    def __init__(self, node_count=120, seed=3, *, alpha=ALPHA, config=OptimizationConfig.none()):
        self.network, self.side = _drift_network(node_count, seed)
        self.alpha, self.config = alpha, config
        self.manager = ReconfigurationManager(self.network, alpha)
        self.manager.synchronize()  # the first call completes every node's knowledge
        self.manager._touched.clear()
        self._changed = self.network.register_dirty_listener()
        self.builder = IncrementalTopologyBuilder(self.network, alpha, config=config)
        self.result = self.builder.rebuild(self.manager.outcome)

    def update(self):
        """Synchronize the states, then splice every changed node in."""
        self.manager.synchronize(max_iterations=40)
        dirty = self._changed | self.manager._touched
        self._changed.clear()
        self.manager._touched.clear()
        self.result = self.builder.update(dirty, self.manager.outcome)
        return self.result

    def fresh(self):
        return build_topology(
            self.network, self.alpha, config=self.config, outcome=self.manager.outcome
        )


class TestUpdateTopologyEquivalence:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
    def test_moves_splice_byte_identically(self, config):
        alpha = 2 * math.pi / 3 if config.asymmetric_removal else ALPHA
        world = _Managed(alpha=alpha, config=config)
        assert results_to_json(world.result) == results_to_json(world.fresh())
        rng = random.Random(0)
        for _ in range(5):
            _perturb(world.network, world.side, rng)
            assert results_to_json(world.update()) == results_to_json(world.fresh())
        assert world.builder.incremental_updates >= 1

    def test_crash_recover_and_join_splice_byte_identically(self):
        world = _Managed(config=OptimizationConfig.all())
        network, side = world.network, world.side
        rng = random.Random(1)
        victim = network.node_ids[7]
        schedule = [
            lambda: network.node(victim).crash(),
            lambda: _perturb(network, side, rng),
            lambda: network.node(victim).recover(),
            lambda: network.add_node(Node(node_id=9000, position=Point(side / 2, side / 2))),
            lambda: _perturb(network, side, rng),
        ]
        for step in schedule:
            step()
            assert results_to_json(world.update()) == results_to_json(world.fresh())
        assert world.builder.incremental_updates >= 1

    def test_empty_dirty_set_returns_previous_result(self):
        world = _Managed(node_count=40)
        assert world.builder.update([], world.manager.outcome) is world.result
        assert world.update() is world.result

    def test_builder_state_never_leaks_into_serialization(self):
        world = _Managed(node_count=30)
        assert results_to_json(world.result) == results_to_json(world.fresh())
        assert all(value is not world.builder for value in vars(world.result).values())

    def test_config_change_reprimes_with_full_build(self):
        network, _ = _drift_network(node_count=40)
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        manager.topology(config=OptimizationConfig.none())
        builder = manager._builder
        switched = manager.topology(config=OptimizationConfig.shrink_only())
        assert manager._builder is not builder
        assert manager._builder.full_builds == 1
        assert results_to_json(switched) == results_to_json(
            build_topology(
                network, ALPHA, config=OptimizationConfig.shrink_only(), outcome=manager.outcome
            )
        )


class TestFallbacks:
    def test_large_dirty_region_falls_back_to_full_rebuild(self):
        world = _Managed(node_count=40)
        for node in world.network.nodes:
            node.move_to(Point(node.position.x + 5.0, node.position.y))
        updated = world.update()
        assert world.builder.full_builds == 2
        assert world.builder.fallbacks == 1
        assert results_to_json(updated) == results_to_json(world.fresh())


class TestManagerDrivenBuilder:
    """The builder consuming reconfiguration-manager-maintained states."""

    def test_manager_outcome_splice_matches_full_build(self):
        world = _Managed(node_count=150, seed=11, config=OptimizationConfig.shrink_only())
        rng = random.Random(5)
        for _ in range(4):
            _perturb(world.network, world.side, rng, movers=6)
            assert results_to_json(world.update()) == results_to_json(world.fresh())
        assert world.builder.incremental_updates >= 1


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
        assert not hasattr(manager._builder, "_raw")
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
