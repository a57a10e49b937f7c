"""Maintained CBTC states under mobility: divergence from fresh CBTC, and
connectivity on every epoch."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import preserves_max_power_connectivity, state_divergence
from repro.core.cbtc import run_cbtc
from repro.core.optimizations import shrink_back
from repro.core.pipeline import OptimizationConfig, build_topology
from repro.core.reconfiguration import ReconfigurationManager
from repro.geometry import Point
from repro.net.placement import PlacementConfig, random_uniform_placement
from repro.scenarios.catalogue import get_scenario
from repro.scenarios.runner import ScenarioRunner
from tests.hypothesis_profiles import battery_examples

ALPHA = 5 * math.pi / 6


def _drift_spec(node_count):
    """``random-waypoint-drift`` at the catalogue density, 20% movers, one epoch per run()."""
    base = get_scenario("random-waypoint-drift")
    side = base.placement.width * math.sqrt(node_count / base.placement.node_count)
    return dataclasses.replace(
        base,
        placement=dataclasses.replace(base.placement, node_count=node_count, width=side, height=side),
        mobility=dataclasses.replace(base.mobility, mover_fraction=0.2),
        epochs=1,
    )


class TestStateDivergence:
    def test_fresh_shrunk_states_do_not_diverge(self):
        network = random_uniform_placement(PlacementConfig(node_count=60), seed=4)
        divergence = state_divergence(shrink_back(run_cbtc(network, ALPHA)), network)
        assert divergence.power_ratio == 1.0
        assert divergence.share_above == 0.0
        assert divergence.mean_records == divergence.fresh_mean_records > 0

    def test_maintained_power_stays_near_fresh_over_drift_epochs(self):
        # Without re-tagging and re-admission the maintained states drift to
        # more than twice the power of a fresh run within ten epochs.
        runner = ScenarioRunner(_drift_spec(400), seed=1)
        runner.prime()
        ratios = []
        for _ in range(20):
            result = runner.run()
            assert all(epoch.connectivity_preserved for epoch in result.epochs)
            ratios.append(state_divergence(runner._manager.outcome, runner.network).power_ratio)
        assert max(ratios) <= 1.2, ratios


_STEP = st.one_of(
    st.tuples(
        st.just("move"),
        st.integers(min_value=0, max_value=60),
        st.floats(min_value=0.0, max_value=1500.0),
        st.floats(min_value=0.0, max_value=1500.0),
    ),
    st.tuples(st.sampled_from(["crash", "recover"]), st.integers(min_value=0, max_value=60)),
)


class TestConnectivityUnderSchedules:
    """The reconfiguration rules keep ``G_R``'s connectivity after every
    epoch, and each synchronize ends at a fixpoint."""

    @settings(max_examples=battery_examples(30), deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        node_count=st.integers(min_value=8, max_value=40),
        alpha=st.sampled_from([ALPHA, 2 * math.pi / 3]),
        epochs=st.lists(st.lists(_STEP, max_size=8), min_size=1, max_size=4),
    )
    def test_every_epoch_preserves_connectivity(self, seed, node_count, alpha, epochs):
        network = random_uniform_placement(PlacementConfig(node_count=node_count), seed=seed)
        manager = ReconfigurationManager(network, alpha)
        node_ids = network.node_ids
        for steps in epochs:
            for step in steps:
                node = network.node(node_ids[step[1] % len(node_ids)])
                if step[0] == "move":
                    node.move_to(Point(step[2], step[3]))
                elif step[0] == "crash":
                    node.crash()
                else:
                    node.recover()
            manager.synchronize()
            # A synchronize ends at a fixpoint: a second one applies nothing.
            applied = manager.events_applied
            assert manager.synchronize() == 0
            assert manager.events_applied == applied
            # The reconfiguration rules keep G_alpha, its shrink-back and
            # pairwise edge removal (all optimizations at 5pi/6).  Asymmetric
            # edge removal is left out: on maintained states at 2pi/3 it can
            # disconnect (ROADMAP, item 3; TestAsymmetricRemovalDefect).
            for config in (
                OptimizationConfig.none(),
                OptimizationConfig.shrink_only(),
                OptimizationConfig(shrink_back=True, pairwise_removal=True),
            ):
                graph = manager.topology(config=config).graph
                assert preserves_max_power_connectivity(network, graph)


#: A schedule on which asymmetric edge removal disconnects maintained states
#: (ROADMAP, item 3): node 9 keeps an alpha-gap and never lists node 3, which
#: it hears, so the symmetric subset graph cuts node 3 off after epoch 2.
DEFECT_ALPHA = 2 * math.pi / 3
DEFECT_EPOCHS = (
    (("move", 4, 0.0, 0.0), ("crash", 12), ("move", 0, 1161.0, 1.0), ("crash", 18)),
    (("move", 3, 661.0, 0.0),),
)


def _defect_epochs(network):
    """Apply the defect schedule to ``network`` one epoch per iteration."""
    for steps in DEFECT_EPOCHS:
        for step in steps:
            node = network.node(step[1])
            if step[0] == "move":
                node.move_to(Point(step[2], step[3]))
            else:
                node.crash()
        yield


def _defect_network():
    return random_uniform_placement(PlacementConfig(node_count=19), seed=1506)


class TestAsymmetricRemovalDefect:
    def test_fresh_states_keep_connectivity(self):
        network = _defect_network()
        for _ in _defect_epochs(network):
            fresh = build_topology(network, DEFECT_ALPHA, config=OptimizationConfig.all())
            assert preserves_max_power_connectivity(network, fresh.graph)

    @pytest.mark.xfail(
        strict=True,
        reason="maintained states miss an angle change of a heard, unrecorded node "
        "(ROADMAP, item 3)",
    )
    def test_maintained_states_keep_connectivity(self):
        network = _defect_network()
        manager = ReconfigurationManager(network, DEFECT_ALPHA)
        for _ in _defect_epochs(network):
            manager.synchronize()
            graph = manager.topology(config=OptimizationConfig.all()).graph
            assert preserves_max_power_connectivity(network, graph)
