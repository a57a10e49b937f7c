"""Epoch-by-epoch scenario execution.

:class:`ScenarioRunner` materializes a :class:`~repro.scenarios.spec.ScenarioSpec`
for one seed and drives the network through its epochs:

1. scripted churn (flash-crowd joins, forced crashes) is applied;
2. the mobility model advances ``steps_per_epoch`` times;
3. the random failure model takes one step;
4. finite batteries are drained by beacon transmissions and exhausted nodes
   crash;
5. topology control reacts — either the
   :class:`~repro.core.reconfiguration.ReconfigurationManager` synchronizes
   its per-node CBTC states against the new geometry (the paper's Section 4
   event rules), or the full distributed protocol re-runs on the event
   engine across the scenario's channel;
6. per-epoch metrics are recorded (degree, radius, connectivity
   preservation versus the current ``G_R``, reconfiguration work, messages,
   energy).

Runs are deterministic: every stochastic component's seed is derived from
``(spec.name, seed, component label)``, so the same ``(spec, seed)`` pair
replays identically in any process.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.analysis import preserves_max_power_connectivity
from repro.core.pipeline import build_topology
from repro.core.protocol import run_distributed_cbtc
from repro.core.reconfiguration import ReconfigurationManager, beacon_power_policy
from repro.core.topology import TopologyResult
from repro.geometry import Point
from repro.graphs.routing import SourceRouteCache
from repro.io.results import results_to_json
from repro.net.energy import EnergyLedger
from repro.net.network import Network
from repro.net.node import Node
from repro.obs.trace import RecordingTracer, get_tracer, use_tracer
from repro.scenarios.spec import DISTRIBUTED, ScenarioSpec
from repro.sim.randomness import SeededRandom
from repro.traffic.metrics import TrafficReport
from repro.traffic.runner import run_traffic

import networkx as nx


@dataclass(frozen=True)
class EpochMetrics:
    """Everything measured at the end of one epoch."""

    epoch: int
    alive_nodes: int
    joined_nodes: int
    crashed_nodes: int
    battery_deaths: int
    events_applied: int
    reruns: int
    sync_iterations: int
    messages_sent: int
    edge_count: int
    average_degree: float
    average_radius: float
    max_radius: float
    connectivity_preserved: bool
    components: int
    total_power: float
    energy_consumed: float
    traffic: Optional[TrafficReport] = None
    #: Wall-clock seconds per phase (churn/mobility/failures/battery/
    #: rebuild/measure/traffic), populated only when profiling is enabled
    #: (``cbtc scenarios run --profile``); ``None`` otherwise so default
    #: runs stay deterministic byte for byte.
    phase_seconds: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class ScenarioSummary:
    """Aggregates over a whole scenario run (for the report tables)."""

    epochs: int
    preserved_fraction: float
    total_events_applied: int
    total_reruns: int
    total_messages: int
    total_energy: float
    final_alive_nodes: int
    mean_average_degree: float
    mean_average_radius: float
    mean_delivery_ratio: Optional[float] = None
    mean_traffic_latency: Optional[float] = None
    total_traffic_battery_deaths: int = 0


@dataclass
class ScenarioResult:
    """The full record of one ``(scenario, seed)`` run.

    ``spec`` embeds the exact specification the run executed, making result
    files self-describing: the experiment runner's resume-from-cache
    compares it against the requested spec, so a cached result computed
    under different parameters (e.g. a scaled-down smoke run) is never
    silently reported as the full scenario.
    """

    scenario: str
    seed: int
    alpha: float
    protocol: str
    initial_nodes: int
    epochs: List[EpochMetrics] = field(default_factory=list)
    summary: Optional[ScenarioSummary] = None
    spec: Optional[ScenarioSpec] = None

    def summarize(self) -> ScenarioSummary:
        """Compute (and cache) the aggregate summary of this run."""
        count = len(self.epochs)
        preserved = sum(1 for epoch in self.epochs if epoch.connectivity_preserved)
        traffic_epochs = [epoch.traffic for epoch in self.epochs if epoch.traffic is not None]
        self.summary = ScenarioSummary(
            epochs=count,
            preserved_fraction=preserved / count if count else 0.0,
            total_events_applied=sum(epoch.events_applied for epoch in self.epochs),
            total_reruns=sum(epoch.reruns for epoch in self.epochs),
            total_messages=sum(epoch.messages_sent for epoch in self.epochs),
            total_energy=self.epochs[-1].energy_consumed if self.epochs else 0.0,
            final_alive_nodes=self.epochs[-1].alive_nodes if self.epochs else 0,
            mean_average_degree=(
                sum(epoch.average_degree for epoch in self.epochs) / count if count else 0.0
            ),
            mean_average_radius=(
                sum(epoch.average_radius for epoch in self.epochs) / count if count else 0.0
            ),
            mean_delivery_ratio=(
                sum(t.delivery_ratio for t in traffic_epochs) / len(traffic_epochs)
                if traffic_epochs
                else None
            ),
            mean_traffic_latency=(
                sum(t.average_latency for t in traffic_epochs) / len(traffic_epochs)
                if traffic_epochs
                else None
            ),
            total_traffic_battery_deaths=sum(t.battery_deaths for t in traffic_epochs),
        )
        return self.summary


class ScenarioRunner:
    """Drives one scenario run from a spec and a seed.

    Each epoch synchronizes the reconfiguration manager and takes its
    memoized topology.  ``verify_incremental`` makes every epoch check that
    topology against a fresh ``build_topology`` on the manager's states
    (slow; used by the catalogue equivalence tests).  ``profile`` records
    wall-clock per-phase timings into each epoch's metrics.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: int = 0,
        *,
        verify_incremental: bool = False,
        profile: bool = False,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.verify_incremental = verify_incremental
        self.profile = profile
        self.network: Network = spec.build_network(seed)
        self.mobility = spec.build_mobility(seed)
        self.failures = spec.build_failures(seed)
        self._churn_rng = SeededRandom(spec.component_seed(seed, "churn"))
        self.ledger = EnergyLedger(self.network.node_ids, capacity=spec.energy.capacity)
        self._next_node_id = max(self.network.node_ids, default=-1) + 1
        self._route_cache = SourceRouteCache()
        self._manager: Optional[ReconfigurationManager] = None
        if spec.protocol != DISTRIBUTED:
            self._manager = ReconfigurationManager(
                self.network, spec.alpha, angle_threshold=spec.angle_threshold
            )

    def prime(self) -> Optional[TopologyResult]:
        """Build the initial topology before the first epoch (warm start).

        Long-running deployments (and the benchmarks) call this so the first
        epoch does not also pay for the initial build.  Epoch results are
        unchanged — the manager's topology is a pure function of the current
        geometry and CBTC states.  No-op under the distributed protocol.
        """
        if self._manager is None:
            return None
        return self._manager.topology(config=self.spec.optimizations.config())

    # ------------------------------------------------------------------ #
    # Per-epoch mechanics
    # ------------------------------------------------------------------ #
    def _apply_churn(self, epoch: int) -> tuple:
        """Apply this epoch's scripted joins/crashes; return their counts."""
        joined = 0
        crashed = 0
        for event in self.spec.churn:
            if event.epoch != epoch:
                continue
            center_x = event.x if event.x is not None else self.spec.placement.width / 2.0
            center_y = event.y if event.y is not None else self.spec.placement.height / 2.0
            for _ in range(event.joins):
                x = min(
                    max(center_x + self._churn_rng.gauss(0.0, event.spread), 0.0),
                    self.spec.placement.width,
                )
                y = min(
                    max(center_y + self._churn_rng.gauss(0.0, event.spread), 0.0),
                    self.spec.placement.height,
                )
                node = Node(node_id=self._next_node_id, position=Point(x, y))
                self._next_node_id += 1
                self.network.add_node(node)
                joined += 1
            if event.crashes:
                alive = [node.node_id for node in self.network.nodes if node.alive]
                victims = self._churn_rng.sample(alive, min(event.crashes, len(alive)))
                for victim in victims:
                    self.network.node(victim).crash()
                    crashed += 1
        return joined, crashed

    def _drain_batteries(self) -> int:
        """Charge one epoch of beacon energy; crash exhausted nodes."""
        spec = self.spec
        duration = max(spec.steps_per_epoch, 1)
        if self._manager is not None:
            powers = beacon_power_policy(self._manager.outcome, self.network)
        else:
            powers = {}
        deaths = 0
        for node in self.network.nodes:
            if not node.alive:
                continue
            power = powers.get(node.node_id, 0.0) + spec.energy.idle_cost
            if power > 0.0:
                self.ledger.charge_transmission(node.node_id, power, duration=duration)
            if spec.energy.finite and self.ledger.account(node.node_id).exhausted:
                node.crash()
                deaths += 1
        return deaths

    def _verify_against_full_rebuild(self, epoch: int, topology: TopologyResult) -> None:
        """Assert the memoized topology equals a from-scratch build (slow)."""
        full = build_topology(
            self.network,
            self.spec.alpha,
            config=self.spec.optimizations.config(),
            outcome=self._manager.outcome,
        )
        if results_to_json(topology) != results_to_json(full):
            raise AssertionError(
                f"memoized topology diverged from a fresh build at epoch {epoch} "
                f"of scenario {self.spec.name!r} (seed {self.seed})"
            )

    def _reconcile(self, epoch: int) -> tuple:
        """React to the new geometry; return (topology, work counters)."""
        spec = self.spec
        if self._manager is not None:
            events_before = self._manager.events_applied
            reruns_before = self._manager.reruns
            iterations = self._manager.synchronize(max_iterations=spec.sync_max_iterations)
            topology = self._manager.topology(config=spec.optimizations.config())
            if self.verify_incremental:
                self._verify_against_full_rebuild(epoch, topology)
            return (
                topology,
                self._manager.events_applied - events_before,
                self._manager.reruns - reruns_before,
                iterations,
                0,
            )
        channel = spec.build_channel(self.seed, epoch=epoch)
        run = run_distributed_cbtc(self.network, spec.alpha, channel=channel)
        topology = build_topology(
            self.network, spec.alpha, config=spec.optimizations.config(), outcome=run.outcome
        )
        # The protocol engine's transmission energy lands in the scenario
        # ledger; the per-epoch metric reads the ledger's running total.
        for node_id, consumed in run.engine.energy.snapshot().items():
            if consumed > 0.0:
                self.ledger.charge_transmission(node_id, consumed, duration=1.0)
        return topology, 0, 0, 0, len(run.engine.trace)

    def _run_traffic(self, epoch: int, topology: TopologyResult) -> Optional[TrafficReport]:
        """Run the spec's packet workload over this epoch's topology.

        The workload gets its own per-epoch derived seed and its own energy
        ledger (so its battery semantics follow the traffic spec, not the
        scenario's beacon-energy spec); the transmission energy it consumed
        is then folded into the scenario ledger, and any traffic-induced
        battery deaths persist — a hot spot drained by forwarding stays
        dead in later epochs.
        """
        tspec = self.spec.traffic
        if tspec is None:
            return None
        traffic_seed = self.spec.component_seed(self.seed, f"traffic:{epoch}")
        run = run_traffic(
            self.network,
            topology.graph,
            tspec,
            traffic_seed,
            route_cache=self._route_cache,
        )
        for node_id, consumed in run.engine.energy.snapshot().items():
            if consumed > 0.0:
                self.ledger.charge_transmission(node_id, consumed, duration=1.0)
        return run.report

    def _measure(
        self,
        epoch: int,
        topology: TopologyResult,
        *,
        joined: int,
        crashed: int,
        battery_deaths: int,
        events_applied: int,
        reruns: int,
        sync_iterations: int,
        messages_sent: int,
    ) -> EpochMetrics:
        graph = topology.graph
        # Sorted so the float sum below is canonical regardless of the
        # radius dict's insertion order.
        radii = sorted(topology.node_radius.values())
        return EpochMetrics(
            epoch=epoch,
            alive_nodes=len(self.network.alive_nodes()),
            joined_nodes=joined,
            crashed_nodes=crashed,
            battery_deaths=battery_deaths,
            events_applied=events_applied,
            reruns=reruns,
            sync_iterations=sync_iterations,
            messages_sent=messages_sent,
            edge_count=graph.number_of_edges(),
            average_degree=topology.average_degree(),
            average_radius=sum(radii) / len(radii) if radii else 0.0,
            max_radius=max(radii) if radii else 0.0,
            connectivity_preserved=preserves_max_power_connectivity(self.network, graph),
            components=(
                nx.number_connected_components(graph) if graph.number_of_nodes() else 0
            ),
            total_power=sum(p for _, p in sorted(topology.node_power.items())),
            energy_consumed=self.ledger.total_consumed(),
        )

    # ------------------------------------------------------------------ #
    # The run loop
    # ------------------------------------------------------------------ #
    def run(self) -> ScenarioResult:
        """Execute every epoch and return the collected metrics."""
        spec = self.spec
        result = ScenarioResult(
            scenario=spec.name,
            seed=self.seed,
            alpha=spec.alpha,
            protocol=spec.protocol,
            initial_nodes=len(self.network),
            spec=spec,
        )
        # Profiling installs a recording tracer for the epoch body, so the
        # phase timings come from the same span model as every other layer
        # (and nested spans — e.g. topology.update — record alongside).
        # Spans are telemetry only: timings land in measurement output,
        # never back in the simulation.
        profiler = RecordingTracer() if self.profile else None
        for epoch in range(1, spec.epochs + 1):
            if profiler is not None:
                profiler.reset()
            tracer = profiler if profiler is not None else get_tracer()
            scope = use_tracer(profiler) if profiler is not None else nullcontext()
            with scope, tracer.span("epoch", epoch=epoch):
                with tracer.span("churn"):
                    joined, churn_crashed = self._apply_churn(epoch)
                with tracer.span("mobility"):
                    for _ in range(spec.steps_per_epoch):
                        self.mobility.step(self.network)
                # The failure model reports every liveness *change*; only
                # nodes that are now dead count as crashes (recoveries are
                # rejoins).
                with tracer.span("failures"):
                    random_crashed = sum(
                        1
                        for node_id in self.failures.step(self.network)
                        if not self.network.node(node_id).alive
                    )
                with tracer.span("battery"):
                    battery_deaths = self._drain_batteries()
                with tracer.span("rebuild"):
                    topology, events, reruns, iterations, messages = self._reconcile(
                        epoch
                    )
                with tracer.span("measure"):
                    metrics = self._measure(
                        epoch,
                        topology,
                        joined=joined,
                        crashed=churn_crashed + random_crashed + battery_deaths,
                        battery_deaths=battery_deaths,
                        events_applied=events,
                        reruns=reruns,
                        sync_iterations=iterations,
                        messages_sent=messages,
                    )
                # Traffic runs last so the topology metrics above describe
                # the graph the packets actually crossed; traffic-induced
                # battery deaths and energy show up from the next epoch's
                # figures on.
                with tracer.span("traffic"):
                    traffic_report = self._run_traffic(epoch, topology)
            if traffic_report is not None:
                metrics = dataclasses.replace(metrics, traffic=traffic_report)
            if profiler is not None:
                durations = profiler.durations()
                metrics = dataclasses.replace(
                    metrics,
                    phase_seconds={
                        "churn": durations.get("churn", 0.0),
                        "mobility": durations.get("mobility", 0.0),
                        "failures": durations.get("failures", 0.0),
                        "battery": durations.get("battery", 0.0),
                        "rebuild": durations.get("rebuild", 0.0),
                        "measure": durations.get("measure", 0.0),
                        "traffic": durations.get("traffic", 0.0),
                        "total": durations.get("epoch", 0.0),
                    },
                )
            result.epochs.append(metrics)
        result.summarize()
        return result


def run_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    *,
    verify_incremental: bool = False,
    profile: bool = False,
) -> ScenarioResult:
    """Convenience wrapper: build a runner and execute the scenario."""
    return ScenarioRunner(spec, seed, verify_incremental=verify_incremental, profile=profile).run()
