"""Shared fixtures for the test suite."""

from __future__ import annotations

import math

import pytest
from hypothesis import settings

import repro.net.network as network_module
from repro.geometry import BruteForceIndex, Point
from repro.net.network import Network
from repro.net.placement import PlacementConfig, random_uniform_placement
from repro.radio import PathLossModel, PowerModel
from tests.hypothesis_profiles import TIER1_PROFILE

# Derandomized property tests, so a failure seen once reproduces; the
# falsify CI job overrides this with --hypothesis-profile.
settings.load_profile(TIER1_PROFILE)

ALPHA_FIVE_SIXTHS = 5.0 * math.pi / 6.0
ALPHA_TWO_THIRDS = 2.0 * math.pi / 3.0


@pytest.fixture
def unit_power_model() -> PowerModel:
    """A power model with maximum range 1 and quadratic path loss."""
    return PowerModel(propagation=PathLossModel(exponent=2.0), max_range=1.0)


@pytest.fixture
def square_network(unit_power_model: PowerModel) -> Network:
    """Four nodes on a unit square with R = 1 (sides in range, diagonals out)."""
    return Network.from_points(
        [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)],
        power_model=unit_power_model,
    )


@pytest.fixture
def line_network(unit_power_model: PowerModel) -> Network:
    """Five nodes on a line, each 0.8 apart, so only consecutive pairs are in range."""
    return Network.from_points(
        [Point(0.8 * i, 0.0) for i in range(5)],
        power_model=unit_power_model,
    )


@pytest.fixture
def small_random_network() -> Network:
    """A 30-node random network on the paper's workload geometry (seeded)."""
    return random_uniform_placement(PlacementConfig(node_count=30), seed=7)


@pytest.fixture
def medium_random_network() -> Network:
    """A 60-node random network on the paper's workload geometry (seeded)."""
    return random_uniform_placement(PlacementConfig(node_count=60), seed=11)


@pytest.fixture
def brute_force_twin(monkeypatch):
    """Return ``twin(network)``: a copy of ``network`` backed by the oracle.

    The copy's spatial index is built while ``repro.net.network`` has
    :class:`BruteForceIndex` in place of ``UniformGridIndex``, so every
    construction on the copy runs against the linear-scan reference.  The
    network keeps its index live across moves, crashes and joins (only
    ``invalidate_spatial_index`` rebuilds it), so the twin stays on the
    oracle after the swap is undone; the original is pinned to the grid
    first.  Comparing outputs of the two networks checks the grid against
    the oracle through every production code path.
    """

    def twin(network: Network) -> Network:
        network.spatial_index()
        with monkeypatch.context() as patch:
            patch.setattr(network_module, "UniformGridIndex", BruteForceIndex)
            copy = network.copy()
            copy.spatial_index()
        return copy

    return twin
