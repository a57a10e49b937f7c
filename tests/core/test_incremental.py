"""Epoch-to-epoch topologies from the reconfiguration manager.

The contract under test: ``ReconfigurationManager.topology``, after any
sequence of moves, crashes, recoveries and joins followed by
``synchronize``, is **byte-identical** (via ``repro.io`` serialization) to
a from-scratch ``build_topology(outcome=...)`` on the manager's states, and
a result once handed out never changes.  Managers pickled while topologies
were spliced incrementally (they carry an ``IncrementalTopologyBuilder``)
load and continue identically.
"""

import copy
import math
import pickle
import random

import pytest

import repro.core.incremental as incremental_module
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
    alive = [n.node_id for n in network.nodes if n.alive]
    for node_id in rng.sample(alive, min(movers, len(alive))):
        node = network.node(node_id)
        node.move_to(
            Point(
                min(max(node.position.x + rng.uniform(-80.0, 80.0), 0.0), side),
                min(max(node.position.y + rng.uniform(-80.0, 80.0), 0.0), side),
            )
        )


class _Managed:
    """A network and the manager maintaining its CBTC states."""

    def __init__(self, node_count=120, seed=3, *, alpha=ALPHA, config=OptimizationConfig.none()):
        self.network, self.side = _drift_network(node_count, seed)
        self.alpha, self.config = alpha, config
        self.manager = ReconfigurationManager(self.network, alpha)
        self.manager.synchronize()  # the first call completes every node's knowledge
        self.result = self.manager.topology(config=config)

    def update(self):
        """Synchronize the states, then take the manager's topology."""
        self.manager.synchronize(max_iterations=40)
        self.result = self.manager.topology(config=self.config)
        return self.result

    def fresh(self):
        return build_topology(
            self.network, self.alpha, config=self.config, outcome=self.manager.outcome
        )


class _OldBuilder:
    """``repro.core.incremental.IncrementalTopologyBuilder`` as older
    versions pickled it: splice caches and counters.  Pickles under the
    real class's name while patched into its module."""

    __module__ = incremental_module.__name__
    __qualname__ = "IncrementalTopologyBuilder"


def _with_old_builder(manager, *, full_builds):
    """Give ``manager`` the attributes an older version pickled with it."""
    builder = _OldBuilder()
    builder.network, builder.alpha = manager.network, manager.alpha
    builder.full_builds, builder.incremental_updates, builder.fallbacks = full_builds, 5, 1
    builder._result = manager._last_result
    builder._removed = {(0, 1)}
    manager._builder = builder
    manager._retired_incremental_updates = 2
    manager._retired_fallbacks = 1
    manager._retired_dirty_hist = None


def _old_pickle(monkeypatch, obj):
    with monkeypatch.context() as patch:
        patch.setattr(incremental_module, "IncrementalTopologyBuilder", _OldBuilder)
        return pickle.dumps(obj)


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
        assert world.manager.topology_builds == 6

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

    def test_empty_dirty_set_returns_previous_result(self):
        world = _Managed(node_count=40)
        assert world.update() is world.result
        assert world.manager.topology_builds == 1

    def test_builder_state_never_leaks_into_serialization(self):
        # The result shares no state with the manager, whatever the config.
        for config in CONFIGS:
            world = _Managed(node_count=30, config=config)
            assert results_to_json(world.result) == results_to_json(world.fresh())
            maintained = world.manager.outcome
            assert world.result.outcome is not maintained
            assert all(
                state is not maintained.states.get(node_id)
                for node_id, state in world.result.outcome.states.items()
            )

    def test_config_change_reprimes_with_full_build(self):
        network, _ = _drift_network(node_count=40)
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        manager.topology(config=OptimizationConfig.none())
        switched = manager.topology(config=OptimizationConfig.shrink_only())
        assert manager.topology_builds == 2
        assert results_to_json(switched) == results_to_json(
            build_topology(
                network, ALPHA, config=OptimizationConfig.shrink_only(), outcome=manager.outcome
            )
        )


class TestManagerDrivenBuilder:
    """A larger world under shrink-back, several movers per epoch."""

    def test_manager_outcome_splice_matches_full_build(self):
        world = _Managed(node_count=150, seed=11, config=OptimizationConfig.shrink_only())
        rng = random.Random(5)
        for _ in range(4):
            _perturb(world.network, world.side, rng, movers=6)
            assert results_to_json(world.update()) == results_to_json(world.fresh())


class TestSharedBaseGraph:
    """Results handed out earlier never change under later epochs."""

    def test_splices_leave_earlier_results_unchanged(self):
        for config in CONFIGS:
            network, side = _drift_network()
            manager = ReconfigurationManager(network, ALPHA)
            manager.synchronize()  # the first call completes every node's knowledge
            results = [manager.topology(config=config)]
            snapshots = [results_to_json(results[0])]
            rng = random.Random(5)
            for _ in range(3):
                _perturb(network, side, rng)
                manager.synchronize()
                results.append(manager.topology(config=config))
                snapshots.append(results_to_json(results[-1]))
                full = build_topology(network, ALPHA, config=config, outcome=manager.outcome)
                assert snapshots[-1] == results_to_json(full)
            assert [results_to_json(result) for result in results] == snapshots

    def test_builder_pickled_with_a_separate_final_graph_continues_identically(
        self, monkeypatch
    ):
        # Managers pickled while topologies were spliced carry the builder;
        # they must load without it and go on exactly as a current manager.
        network, side = _drift_network()
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        config = OptimizationConfig.shrink_only()
        manager.topology(config=config)
        twin_network, twin = copy.deepcopy((network, manager))
        _with_old_builder(manager, full_builds=0)
        network, manager = pickle.loads(_old_pickle(monkeypatch, (network, manager)))
        for key in ("_builder", "_retired_incremental_updates", "_retired_fallbacks"):
            assert not hasattr(manager, key)
        rng, twin_rng = random.Random(9), random.Random(9)
        for _ in range(3):
            _perturb(network, side, rng)
            _perturb(twin_network, side, twin_rng)
            manager.synchronize()
            twin.synchronize()
            assert results_to_json(manager.topology(config=config)) == results_to_json(
                twin.topology(config=config)
            )
        assert manager.topology_builds == twin.topology_builds == 4


class TestManagerHygiene:
    def test_counters_stay_monotone_across_builder_replacement(self, monkeypatch):
        # A loaded old builder's full builds are folded into the manager's.
        network, side = _drift_network(node_count=40)
        manager = ReconfigurationManager(network, ALPHA)
        manager.synchronize()
        manager.topology()
        _with_old_builder(manager, full_builds=3)
        loaded = pickle.loads(_old_pickle(monkeypatch, manager))
        assert loaded.topology_builds == 4
        assert loaded.incremental_updates == loaded.rebuild_fallbacks == 0
        _perturb(loaded.network, side, random.Random(4))
        loaded.synchronize()
        loaded.topology()
        assert loaded.topology_builds == 5

    def test_close_detaches_the_dirty_listener(self):
        network, side = _drift_network(node_count=20)
        manager = ReconfigurationManager(network, ALPHA)
        manager.close()
        _perturb(network, side, random.Random(5))
        assert manager._net_dirty == set()
        manager.close()  # idempotent
