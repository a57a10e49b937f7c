"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a plain-data description of one workload: where
nodes are placed, how they move, how they fail, which channel the messages
cross, how nodes join or get killed over time, whether batteries are finite,
and which CBTC configuration (alpha, power schedule, optimizations) controls
the topology.  Specs contain no live objects — only frozen dataclasses of
scalars — so they are picklable (the parallel experiment runner ships them
to worker processes), serializable through :mod:`repro.io.results`, and
hashable enough to cache on.

All randomness is derived from the single per-run ``seed`` via
:func:`repro.sim.randomness.derive_seed` with a component label
(``"placement"``, ``"mobility"``, ...), so every stochastic component gets an
independent stream and the whole run replays identically from ``(spec,
seed)`` regardless of process or call order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.pipeline import OptimizationConfig
from repro.net.failures import CrashFailureModel, FailureModel, NoFailures
from repro.net.mobility import (
    ConvoyModel,
    MobilityModel,
    PartitionModel,
    RandomWalkModel,
    RandomWaypointModel,
    StationaryModel,
)
from repro.net.network import Network
from repro.net.placement import (
    PlacementConfig,
    clustered_placement,
    grid_placement,
    random_uniform_placement,
)
from repro.sim.channel import Channel, DuplicatingChannel, LossyChannel, ReliableChannel
from repro.sim.randomness import derive_seed
from repro.traffic.spec import TrafficSpec


@dataclass(frozen=True)
class PlacementSpec:
    """Where and how many nodes are deployed.

    ``kind`` is one of ``"uniform"``, ``"grid"`` or ``"clustered"``; the
    cluster/jitter fields only apply to the matching kinds.
    """

    kind: str = "uniform"
    width: float = 1500.0
    height: float = 1500.0
    node_count: int = 100
    max_range: float = 500.0
    path_loss_exponent: float = 2.0
    cluster_count: int = 5
    cluster_radius: float = 200.0
    jitter: float = 0.0

    _KINDS = ("uniform", "grid", "clustered")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown placement kind {self.kind!r}; expected one of {self._KINDS}")

    def config(self) -> PlacementConfig:
        """The :class:`PlacementConfig` shared by all placement kinds."""
        return PlacementConfig(
            width=self.width,
            height=self.height,
            node_count=self.node_count,
            max_range=self.max_range,
            path_loss_exponent=self.path_loss_exponent,
        )

    def build(self, seed: int) -> Network:
        """Materialize the placement into a live :class:`Network`."""
        config = self.config()
        if self.kind == "uniform":
            return random_uniform_placement(config, seed=seed)
        if self.kind == "grid":
            return grid_placement(config, jitter=self.jitter, seed=seed)
        return clustered_placement(
            config,
            cluster_count=self.cluster_count,
            cluster_radius=self.cluster_radius,
            seed=seed,
        )


@dataclass(frozen=True)
class MobilitySpec:
    """How nodes move between epochs.

    ``kind``: ``"stationary"``, ``"random-walk"``, ``"random-waypoint"``,
    ``"partition"`` or ``"convoy"``.  Speed-like fields are interpreted per
    kind (``max_step`` for walks, ``min_speed``/``max_speed`` for waypoint,
    ``speed`` for partition separation and convoy travel).
    ``mover_fraction`` (random-waypoint only) restricts motion to a
    seed-stable subset of nodes — the partial-mobility regime whose events
    the reconfiguration protocol handles locally.
    """

    kind: str = "stationary"
    max_step: float = 25.0
    min_speed: float = 5.0
    max_speed: float = 20.0
    speed: float = 40.0
    jitter: float = 5.0
    period: int = 20
    mover_fraction: float = 1.0

    _KINDS = ("stationary", "random-walk", "random-waypoint", "partition", "convoy")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown mobility kind {self.kind!r}; expected one of {self._KINDS}")
        if not 0.0 <= self.mover_fraction <= 1.0:
            raise ValueError("mover_fraction must lie in [0, 1]")

    def build(self, placement: PlacementSpec, seed: int) -> MobilityModel:
        """Materialize the mobility model for a region of ``placement``'s size."""
        width, height = placement.width, placement.height
        if self.kind == "stationary":
            return StationaryModel()
        if self.kind == "random-walk":
            return RandomWalkModel(width=width, height=height, max_step=self.max_step, seed=seed)
        if self.kind == "random-waypoint":
            return RandomWaypointModel(
                width=width,
                height=height,
                min_speed=self.min_speed,
                max_speed=self.max_speed,
                seed=seed,
                mover_fraction=self.mover_fraction,
            )
        if self.kind == "partition":
            return PartitionModel(
                width=width, height=height, separation_speed=self.speed, period=self.period
            )
        return ConvoyModel(
            width=width, height=height, speed=self.speed, jitter=self.jitter, seed=seed
        )


@dataclass(frozen=True)
class FailureSpec:
    """Random crash/recovery behaviour applied once per epoch."""

    kind: str = "none"
    crash_probability: float = 0.01
    recovery_probability: float = 0.0

    _KINDS = ("none", "crash")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}; expected one of {self._KINDS}")

    def build(self, seed: int) -> FailureModel:
        """Materialize the failure model."""
        if self.kind == "none":
            return NoFailures()
        return CrashFailureModel(
            crash_probability=self.crash_probability,
            recovery_probability=self.recovery_probability,
            seed=seed,
        )


@dataclass(frozen=True)
class ChannelSpec:
    """Which channel carries protocol messages (distributed protocol only)."""

    kind: str = "reliable"
    loss_probability: float = 0.1
    duplicate_probability: float = 0.1
    min_delay: float = 0.5
    max_delay: float = 2.0

    _KINDS = ("reliable", "lossy", "duplicating")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}; expected one of {self._KINDS}")

    def build(self, seed: int) -> Channel:
        """Materialize the channel."""
        if self.kind == "reliable":
            return ReliableChannel()
        if self.kind == "lossy":
            return LossyChannel(
                loss_probability=self.loss_probability,
                min_delay=self.min_delay,
                max_delay=self.max_delay,
                seed=seed,
            )
        return DuplicatingChannel(duplicate_probability=self.duplicate_probability, seed=seed)


@dataclass(frozen=True)
class ChurnEvent:
    """Scripted churn at the start of one epoch.

    ``joins`` fresh nodes appear around ``(x, y)`` (region centre when both
    are ``None``) with a Gaussian ``spread``; ``crashes`` alive nodes are
    killed, chosen uniformly at random from the scenario's churn stream.
    """

    epoch: int
    joins: int = 0
    crashes: int = 0
    x: Optional[float] = None
    y: Optional[float] = None
    spread: float = 150.0

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError("churn epochs are 1-based")
        if self.joins < 0 or self.crashes < 0:
            raise ValueError("joins and crashes must be non-negative")


@dataclass(frozen=True)
class EnergySpec:
    """Finite per-node battery draining with beacon transmissions.

    Each epoch every alive node is charged ``steps_per_epoch`` time units of
    its Section 4 beacon power (plus ``idle_cost`` per step); a node whose
    budget is exhausted crashes.  ``capacity`` is in the same units as power
    × time (``p(d) = d^exponent`` per unit time).
    """

    capacity: float = float("inf")
    idle_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.idle_cost < 0:
            raise ValueError("idle_cost must be non-negative")

    @property
    def finite(self) -> bool:
        """Whether batteries actually constrain the run."""
        return math.isfinite(self.capacity)


@dataclass(frozen=True)
class OptimizationSpec:
    """Flat, serializable mirror of :class:`OptimizationConfig`."""

    shrink_back: bool = True
    asymmetric_removal: bool = False
    pairwise_removal: bool = False

    def config(self) -> OptimizationConfig:
        """Convert to the core pipeline's config object."""
        return OptimizationConfig(
            shrink_back=self.shrink_back,
            asymmetric_removal=self.asymmetric_removal,
            pairwise_removal=self.pairwise_removal,
        )


RECONFIGURATION = "reconfiguration"
DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario.

    ``protocol`` selects how topology control reacts to the evolving
    geometry: ``"reconfiguration"`` maintains per-node CBTC state through the
    :class:`~repro.core.reconfiguration.ReconfigurationManager` (the paper's
    Section 4 event rules); ``"distributed"`` re-runs the full
    message-passing protocol on the event engine each epoch, crossing the
    configured channel (which may lose or duplicate messages).

    ``traffic``, when set, runs that packet-level workload over each
    epoch's freshly constructed topology (per-epoch derived seeds), records
    the :class:`~repro.traffic.metrics.TrafficReport` in the epoch metrics,
    and folds the transmission energy into the scenario's ledger.
    """

    name: str
    description: str = ""
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    failures: FailureSpec = field(default_factory=FailureSpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    churn: Tuple[ChurnEvent, ...] = ()
    energy: EnergySpec = field(default_factory=EnergySpec)
    optimizations: OptimizationSpec = field(default_factory=OptimizationSpec)
    traffic: Optional[TrafficSpec] = None
    alpha: float = 5.0 * math.pi / 6.0
    epochs: int = 5
    steps_per_epoch: int = 5
    protocol: str = RECONFIGURATION
    sync_max_iterations: int = 40
    angle_threshold: float = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenarios must be named")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.epochs < 1:
            raise ValueError("a scenario needs at least one epoch")
        if self.steps_per_epoch < 0:
            raise ValueError("steps_per_epoch must be non-negative")
        if self.protocol not in (RECONFIGURATION, DISTRIBUTED):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        for event in self.churn:
            if event.epoch > self.epochs:
                raise ValueError(
                    f"churn event at epoch {event.epoch} lies beyond the run's {self.epochs} epochs"
                )

    # ------------------------------------------------------------------ #
    # Component materialization (seed-derived, order-independent)
    # ------------------------------------------------------------------ #
    def component_seed(self, seed: int, component: str) -> int:
        """The derived seed of one stochastic component of this run."""
        return derive_seed(seed, f"{self.name}:{component}")

    def build_network(self, seed: int) -> Network:
        """Place the initial network for run seed ``seed``."""
        return self.placement.build(self.component_seed(seed, "placement"))

    def build_mobility(self, seed: int) -> MobilityModel:
        """Build the mobility model for run seed ``seed``."""
        return self.mobility.build(self.placement, self.component_seed(seed, "mobility"))

    def build_failures(self, seed: int) -> FailureModel:
        """Build the failure model for run seed ``seed``."""
        return self.failures.build(self.component_seed(seed, "failures"))

    def build_channel(self, seed: int, *, epoch: int = 0) -> Channel:
        """Build the message channel for ``epoch`` of run seed ``seed``."""
        return self.channel.build(self.component_seed(seed, f"channel:{epoch}"))

    def scaled(self, *, node_count: Optional[int] = None, epochs: Optional[int] = None) -> "ScenarioSpec":
        """A copy of this scenario with the population or duration overridden.

        Churn events beyond a shortened run are dropped so the spec stays
        valid; join counts are left untouched (they scale the workload, which
        is the point of overriding ``node_count``).
        """
        spec = self
        if node_count is not None:
            spec = dataclasses.replace(
                spec, placement=dataclasses.replace(spec.placement, node_count=node_count)
            )
        if epochs is not None:
            kept = tuple(event for event in spec.churn if event.epoch <= epochs)
            spec = dataclasses.replace(spec, epochs=epochs, churn=kept)
        return spec
