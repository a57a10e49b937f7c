"""Mobility models.

Section 4 of the paper handles reconfiguration when nodes move, fail or
join.  These mobility models drive the reconfiguration experiments: each
model advances node positions by a time step, keeping nodes inside the
deployment region.  Models are deterministic given their seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.geometry import Point
from repro.net.network import Network
from repro.net.node import NodeId
from repro.sim.randomness import derive_seed


class MobilityModel:
    """Base class: advances node positions in place by ``dt`` time units."""

    def step(self, network: Network, dt: float = 1.0) -> None:
        """Advance every alive node's position by ``dt``."""
        raise NotImplementedError


class StationaryModel(MobilityModel):
    """No movement at all (the paper's static evaluation setting)."""

    def step(self, network: Network, dt: float = 1.0) -> None:
        return None


@dataclass
class RandomWalkModel(MobilityModel):
    """Each node moves a random small step in a random direction each tick.

    Movement is clamped to the rectangular region ``(0, 0)``–``(width, height)``.
    """

    width: float = 1500.0
    height: float = 1500.0
    max_step: float = 25.0
    seed: Optional[int] = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_step < 0:
            raise ValueError("max_step must be non-negative")
        self._rng = random.Random(self.seed)

    def step(self, network: Network, dt: float = 1.0) -> None:
        for node in network.nodes:
            if not node.alive:
                continue
            angle = self._rng.uniform(0.0, 2.0 * math.pi)
            step = self._rng.uniform(0.0, self.max_step) * dt
            x = min(max(node.position.x + step * math.cos(angle), 0.0), self.width)
            y = min(max(node.position.y + step * math.sin(angle), 0.0), self.height)
            node.move_to(Point(x, y))


@dataclass
class RandomWaypointModel(MobilityModel):
    """The classic random-waypoint model.

    Each node picks a uniformly random destination in the region and a speed
    in ``[min_speed, max_speed]``, travels towards it in straight-line steps,
    and upon arrival picks a new destination.

    ``mover_fraction`` restricts motion to a deterministic subset of the
    population: each node is a mover iff a seed-derived hash of its ID lands
    below the fraction, so the subset is stable across steps, independent of
    iteration order, and identical in every process.  Non-movers consume no
    randomness, keeping the movers' streams identical to a run where the
    stationary nodes do not exist.  The default of 1.0 preserves the
    historic behaviour bit for bit.  Partial mobility is the regime the
    reconfiguration protocol handles locally — a 2% mover set leaves most
    per-node CBTC state untouched each epoch.
    """

    width: float = 1500.0
    height: float = 1500.0
    min_speed: float = 5.0
    max_speed: float = 20.0
    seed: Optional[int] = None
    mover_fraction: float = 1.0
    _rng: random.Random = field(init=False, repr=False)
    _targets: Dict[NodeId, Tuple[Point, float]] = field(init=False, repr=False, default_factory=dict)
    _movers: Dict[NodeId, bool] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.min_speed < 0 or self.max_speed < self.min_speed:
            raise ValueError("speeds must satisfy 0 <= min_speed <= max_speed")
        if not 0.0 <= self.mover_fraction <= 1.0:
            raise ValueError("mover_fraction must lie in [0, 1]")
        self._rng = random.Random(self.seed)
        self._targets = {}
        self._movers = {}

    def _is_mover(self, node_id: NodeId) -> bool:
        if self.mover_fraction >= 1.0:
            return True
        cached = self._movers.get(node_id)
        if cached is None:
            draw = derive_seed(self.seed, f"mover:{node_id}") % 1_000_000
            cached = draw < self.mover_fraction * 1_000_000
            self._movers[node_id] = cached
        return cached

    def _new_target(self) -> Tuple[Point, float]:
        destination = Point(self._rng.uniform(0.0, self.width), self._rng.uniform(0.0, self.height))
        speed = self._rng.uniform(self.min_speed, self.max_speed)
        return destination, speed

    def step(self, network: Network, dt: float = 1.0) -> None:
        for node in network.nodes:
            if not node.alive or not self._is_mover(node.node_id):
                continue
            if node.node_id not in self._targets:
                self._targets[node.node_id] = self._new_target()
            destination, speed = self._targets[node.node_id]
            remaining = node.position.distance_to(destination)
            travel = speed * dt
            if remaining <= travel or remaining == 0.0:
                node.move_to(destination)
                self._targets[node.node_id] = self._new_target()
                continue
            fraction = travel / remaining
            node.move_to(
                Point(
                    node.position.x + (destination.x - node.position.x) * fraction,
                    node.position.y + (destination.y - node.position.y) * fraction,
                )
            )


@dataclass
class PartitionModel(MobilityModel):
    """Drives the network apart into two halves and then heals the split.

    Nodes whose *initial* x coordinate lies left of the vertical midline
    drift towards ``x = 0``; the rest drift towards ``x = width``.  For the
    first ``period // 2`` steps the halves separate at ``separation_speed``;
    for the remaining steps each node moves back towards its home position
    at the same speed.  The model is fully deterministic (no randomness):
    the interesting dynamics — a widening gap that severs ``G_R``, followed
    by partitions re-approaching and rediscovering each other through the
    boundary nodes' maximum-power beacons — come from the geometry alone.
    """

    width: float = 1500.0
    height: float = 1500.0
    separation_speed: float = 40.0
    period: int = 20
    _step_count: int = field(init=False, repr=False, default=0)
    _home: Dict[NodeId, Point] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.separation_speed < 0:
            raise ValueError("separation_speed must be non-negative")
        if self.period < 2:
            raise ValueError("period must be at least 2 steps")
        self._step_count = 0
        self._home = {}

    def step(self, network: Network, dt: float = 1.0) -> None:
        separating = (self._step_count % self.period) < self.period // 2
        midline = self.width / 2.0
        travel = self.separation_speed * dt
        for node in network.nodes:
            if not node.alive:
                continue
            home = self._home.setdefault(node.node_id, node.position)
            if separating:
                outward = -travel if home.x < midline else travel
                x = min(max(node.position.x + outward, 0.0), self.width)
            else:
                delta = home.x - node.position.x
                x = node.position.x + min(max(delta, -travel), travel)
            node.move_to(Point(x, node.position.y))
        self._step_count += 1


@dataclass
class ConvoyModel(MobilityModel):
    """Convoy/corridor motion: the whole population travels down a corridor.

    Every node advances along the x axis with a shared base ``speed`` plus a
    small per-step random jitter in both axes, bouncing off the corridor ends
    (the shared direction flips when the convoy's front reaches a boundary).
    This keeps relative positions — and hence the controlled topology —
    largely stable while the absolute geometry sweeps the region, stressing
    the angle-change path of the reconfiguration algorithm rather than the
    join/leave paths.
    """

    width: float = 1500.0
    height: float = 1500.0
    speed: float = 40.0
    jitter: float = 5.0
    seed: Optional[int] = None
    _rng: random.Random = field(init=False, repr=False)
    _direction: float = field(init=False, repr=False, default=1.0)

    def __post_init__(self) -> None:
        if self.speed < 0 or self.jitter < 0:
            raise ValueError("speed and jitter must be non-negative")
        self._rng = random.Random(self.seed)
        self._direction = 1.0

    def step(self, network: Network, dt: float = 1.0) -> None:
        alive = [node for node in network.nodes if node.alive]
        if not alive:
            return
        front = max(node.position.x for node in alive) if self._direction > 0 else min(
            node.position.x for node in alive
        )
        if self._direction > 0 and front + self.speed * dt > self.width:
            self._direction = -1.0
        elif self._direction < 0 and front - self.speed * dt < 0.0:
            self._direction = 1.0
        for node in alive:
            dx = self._direction * self.speed * dt + self._rng.uniform(-self.jitter, self.jitter)
            dy = self._rng.uniform(-self.jitter, self.jitter)
            x = min(max(node.position.x + dx, 0.0), self.width)
            y = min(max(node.position.y + dy, 0.0), self.height)
            node.move_to(Point(x, y))
