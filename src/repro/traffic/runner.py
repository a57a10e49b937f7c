"""Running one packet-level traffic workload over a constructed topology.

:func:`run_traffic` is the subsystem's entry point: given a physical
network, a topology graph built over it (CBTC, a baseline, anything), a
:class:`~repro.traffic.spec.TrafficSpec` and a seed, it

1. materializes the workload's flows (seed-derived, order-independent);
2. computes one static route per flow over the topology under the spec's
   routing policy (min-hop or min-power link weights), reusing one Dijkstra
   pass per distinct source;
3. wires a :class:`~repro.traffic.forwarding.TrafficProcess` per alive node
   into a :class:`~repro.sim.engine.SimulationEngine` over either a
   reliable unit-delay channel or the SINR
   :class:`~repro.sim.channel.InterferenceChannel`;
4. runs to the spec's horizon and condenses the statistics into a
   :class:`~repro.traffic.metrics.TrafficReport`.

Determinism: identical ``(network, graph, spec, seed)`` replay a byte-
identical packet trace — the property test serializes
``engine.trace.records`` from two runs and compares the JSON.  The runner
never touches global RNG state, so it composes with the scenario engine and
the multiprocessing experiment grid without cross-talk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import networkx as nx

from repro.graphs.routing import (
    SourceRouteCache,
    canonical_single_source_paths,
    link_weights,
)
from repro.net.energy import EnergyLedger
from repro.net.network import Network
from repro.net.node import NodeId
from repro.radio.interference import InterferenceModel
from repro.sim.channel import Channel, InterferenceChannel, ReliableChannel
from repro.sim.engine import SimulationEngine
from repro.traffic.forwarding import ACK, DATA, RoutingPlan, TrafficProcess, TrafficRuntime
from repro.traffic.metrics import TrafficReport, TrafficStats, build_report
from repro.traffic.spec import MIN_HOP, Flow, TrafficSpec


@dataclass
class TrafficRun:
    """The full record of one traffic run."""

    spec: TrafficSpec
    seed: int
    flows: Tuple[Flow, ...]
    report: TrafficReport
    engine: SimulationEngine

    @property
    def trace_records(self):
        """The packet trace (every transmission, in order)."""
        return self.engine.trace.records


def build_routing_plan(
    network: Network,
    graph: nx.Graph,
    flows: Tuple[Flow, ...],
    *,
    routing: str,
    route_cache: Optional[SourceRouteCache] = None,
) -> RoutingPlan:
    """Static per-flow routes over ``graph`` under the given policy.

    ``min-hop`` weights every edge 1; ``min-power`` weights each edge by the
    transmission power it requires, so routes minimize total radiated
    energy.  Flows whose endpoints are not connected in ``graph`` land in
    ``unroutable``.

    Routes come from :func:`~repro.graphs.routing.canonical_single_source_paths`
    (one pass per distinct source), whose equal-cost tie-breaking is a pure
    function of the weighted adjacency — independent of edge insertion
    order.  ``route_cache`` optionally carries shortest-path trees across
    calls over an evolving topology: only sources whose tree touches a
    changed edge are recomputed (see
    :class:`~repro.graphs.routing.SourceRouteCache`), with no effect on the
    resulting plan.
    """
    adjacency = link_weights(network, graph, min_hop=routing == MIN_HOP)
    if route_cache is not None:
        route_cache.sync(adjacency)

    plan = RoutingPlan()
    paths_by_source: Dict[NodeId, Dict[NodeId, list]] = {}
    clamp = network.power_model.clamp
    for flow in flows:
        if flow.source not in adjacency or flow.destination not in adjacency:
            plan.unroutable.add(flow.flow_id)
            continue
        if flow.source not in paths_by_source:
            if route_cache is not None:
                paths_by_source[flow.source] = route_cache.paths(flow.source)
            else:
                paths_by_source[flow.source] = canonical_single_source_paths(
                    adjacency, flow.source
                )
        path = paths_by_source[flow.source].get(flow.destination)
        if path is None or len(path) < 2:
            plan.unroutable.add(flow.flow_id)
            continue
        plan.path_hops[flow.flow_id] = len(path) - 1
        for u, v in zip(path, path[1:]):
            plan.next_hop.setdefault(u, {})[flow.flow_id] = v
            if (u, v) not in plan.link_power:
                plan.link_power[(u, v)] = clamp(network.required_power(u, v))
    return plan


def build_channel(network: Network, spec: TrafficSpec) -> Channel:
    """The medium the workload crosses, per the spec."""
    if not spec.interference:
        return ReliableChannel(delay=spec.link_delay)
    model = InterferenceModel(
        propagation=network.power_model.propagation,
        noise_floor=spec.noise_floor,
        sinr_threshold=spec.sinr_threshold,
        airtime=spec.airtime,
    )
    return InterferenceChannel(network, model, delay=spec.link_delay)


def run_traffic(
    network: Network,
    graph: nx.Graph,
    spec: TrafficSpec,
    seed: int = 0,
    *,
    energy_ledger: Optional[EnergyLedger] = None,
    route_cache: Optional[SourceRouteCache] = None,
) -> TrafficRun:
    """Run one traffic workload over ``graph`` and report the metrics.

    ``energy_ledger`` lets callers (the scenario runner) supply their own
    ledger; by default a fresh one with the spec's battery capacity is
    created.  Battery deaths crash nodes in ``network`` — callers that need
    the population back must run on a copy.  ``route_cache`` carries
    per-source shortest-path trees across repeated runs over an evolving
    topology (the scenario runner supplies one), trading a graph diff for
    skipped Dijkstra passes without changing any route.
    """
    flows = spec.build_flows(network, seed)
    plan = build_routing_plan(
        network, graph, flows, routing=spec.routing, route_cache=route_cache
    )
    ledger = (
        energy_ledger
        if energy_ledger is not None
        else EnergyLedger(network.node_ids, capacity=spec.battery_capacity)
    )
    stats = TrafficStats()
    runtime = TrafficRuntime(spec=spec, plan=plan, stats=stats, ledger=ledger, network=network)
    engine = SimulationEngine(network, channel=build_channel(network, spec), energy_ledger=ledger)
    for node in network.alive_nodes():
        engine.register(node.node_id, TrafficProcess(node.node_id, runtime, flows))
    engine.run(until=spec.horizon, max_events=spec.max_events)

    counts = engine.trace.count_by_kind()
    report = build_report(
        stats,
        packet_size_bits=spec.packet_size_bits,
        duration=engine.now,
        data_transmissions=counts.get(DATA, 0),
        ack_transmissions=counts.get(ACK, 0),
        total_energy=ledger.total_consumed(),
        max_node_energy=ledger.max_consumed(),
    )
    return TrafficRun(spec=spec, seed=seed, flows=flows, report=report, engine=engine)
