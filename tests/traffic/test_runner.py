"""Tests for the packet-level traffic runner (repro.traffic.runner).

The headline property — the acceptance criterion of the traffic subsystem —
is that an identical ``(TrafficSpec, seed)`` pair replays a *byte-identical*
packet trace, which the hypothesis battery checks by serializing the
engine's trace records from two independent runs.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import OptimizationConfig, build_topology
from repro.io.results import results_to_json
from repro.net.network import Network
from repro.net.placement import PlacementConfig, random_uniform_placement
from repro.traffic.forwarding import ACK, DATA
from repro.traffic.runner import build_routing_plan, run_traffic
from repro.traffic.spec import MIN_HOP, MIN_POWER, TrafficSpec

ALPHA = 5.0 * math.pi / 6.0

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def small_world(seed=1, node_count=30):
    network = random_uniform_placement(PlacementConfig(node_count=node_count), seed=seed)
    graph = build_topology(network, ALPHA, config=OptimizationConfig.all()).graph
    return network, graph


def chain_world(hops=3, spacing=100.0):
    positions = [(i * spacing, 0.0) for i in range(hops + 1)]
    network = Network.from_positions(positions)
    return network, network.max_power_graph()


class TestRoutingPlan:
    def test_min_hop_prefers_fewer_edges(self):
        # A triangle detour: 0-2 direct (long) vs 0-1-2 (two short hops).
        network = Network.from_positions([(0.0, 0.0), (200.0, 150.0), (400.0, 0.0)])
        graph = network.max_power_graph()
        flows = TrafficSpec(flow_count=1).build_flows(network, 0)
        spec_flow = flows[0]
        plan_hops = build_routing_plan(network, graph, flows, routing=MIN_HOP)
        plan_power = build_routing_plan(network, graph, flows, routing=MIN_POWER)
        # Min-hop never uses more hops than min-power on the same pair.
        assert plan_hops.path_hops[spec_flow.flow_id] <= plan_power.path_hops[spec_flow.flow_id]

    def test_disconnected_flow_is_unroutable(self):
        network = Network.from_positions([(0.0, 0.0), (100.0, 0.0), (5000.0, 0.0), (5100.0, 0.0)])
        graph = network.max_power_graph()
        flows = TrafficSpec(flow_count=6).build_flows(network, 3)
        plan = build_routing_plan(network, graph, flows, routing=MIN_POWER)
        for flow in flows:
            crosses = (flow.source < 2) != (flow.destination < 2)
            assert (flow.flow_id in plan.unroutable) == crosses

    def test_link_powers_are_clamped_to_max(self):
        network, graph = small_world()
        flows = TrafficSpec(flow_count=5).build_flows(network, 0)
        plan = build_routing_plan(network, graph, flows, routing=MIN_POWER)
        max_power = network.power_model.max_power
        assert plan.link_power
        assert all(0.0 < p <= max_power for p in plan.link_power.values())


class TestReliableDelivery:
    def test_everything_delivered_on_reliable_channel(self):
        network, graph = small_world()
        spec = TrafficSpec(kind="cbr", flow_count=6, packets_per_flow=4)
        run = run_traffic(network, graph, spec, seed=2)
        report = run.report
        assert report.offered_packets == 24
        assert report.delivered_packets == 24
        assert report.delivery_ratio == 1.0
        assert report.retransmit_drops == 0
        assert report.average_latency > 0
        assert report.average_hops >= 1.0
        assert report.total_energy > 0
        assert report.energy_per_delivered_bit > 0

    def test_accounting_is_exhaustive(self):
        network, graph = small_world()
        spec = TrafficSpec(kind="cbr", flow_count=8, packets_per_flow=5, interference=True)
        report = run_traffic(network, graph, spec, seed=3).report
        assert (
            report.delivered_packets
            + report.queue_drops
            + report.no_route_drops
            + report.retransmit_drops
            + report.stranded_packets
            == report.offered_packets
        )

    def test_single_hop_latency_is_link_delay(self):
        network, graph = chain_world(hops=1)
        spec = TrafficSpec(kind="cbr", flow_count=1, packets_per_flow=1, link_delay=1.0)
        run = run_traffic(network, graph, spec, seed=0)
        assert run.report.delivered_packets == 1
        assert run.report.average_hops == 1.0
        assert run.report.average_latency == pytest.approx(1.0)

    def test_multi_hop_chain_counts_hops(self):
        network, graph = chain_world(hops=4)
        # Force the single flow to cross the whole chain by picking a seed
        # whose sampled pair spans it; instead just run every seed until one
        # does -- deterministic because build_flows is.
        spec = TrafficSpec(kind="cbr", flow_count=1, packets_per_flow=2)
        for seed in range(20):
            flows = spec.build_flows(network, seed)
            if {flows[0].source, flows[0].destination} == {0, 4}:
                run = run_traffic(network, graph, spec, seed=seed)
                assert run.report.average_hops == 4.0
                return
        pytest.skip("no seed in range sampled the end-to-end pair")

    def test_acks_ride_alongside_data(self):
        network, graph = small_world()
        spec = TrafficSpec(kind="cbr", flow_count=4, packets_per_flow=3)
        run = run_traffic(network, graph, spec, seed=1)
        counts = run.engine.trace.count_by_kind()
        assert counts[DATA] >= run.report.delivered_packets
        assert counts[ACK] == counts[DATA]  # reliable channel: every data acked

    def test_no_route_flows_are_counted(self):
        network = Network.from_positions([(0.0, 0.0), (100.0, 0.0), (5000.0, 0.0), (5100.0, 0.0)])
        graph = network.max_power_graph()
        spec = TrafficSpec(kind="cbr", flow_count=6, packets_per_flow=2)
        report = run_traffic(network, graph, spec, seed=3).report
        assert report.no_route_drops > 0
        assert report.no_route_drops + report.delivered_packets == report.offered_packets


class TestQueueAndRetransmission:
    def test_tiny_queue_drops_burst_packets(self):
        network, graph = chain_world(hops=1)
        spec = TrafficSpec(
            kind="burst",
            flow_count=1,
            packets_per_flow=30,
            packet_interval=0.01,
            queue_capacity=2,
        )
        report = run_traffic(network, graph, spec, seed=0).report
        assert report.queue_drops > 0
        assert report.delivered_packets + report.queue_drops == report.offered_packets

    def test_retransmission_cap_abandons_jammed_link(self):
        # An SINR threshold no reception can meet jams every delivery, so
        # the sender must retry exactly `retransmit_limit` times then drop.
        network, graph = chain_world(hops=1)
        spec = TrafficSpec(
            kind="cbr",
            flow_count=1,
            packets_per_flow=1,
            retransmit_limit=2,
            interference=True,
            sinr_threshold=1e12,
        )
        run = run_traffic(network, graph, spec, seed=0)
        report = run.report
        assert report.offered_packets == 1
        assert report.delivered_packets == 0
        assert report.retransmit_drops == 1
        assert report.link_abandonments == 1
        assert run.engine.trace.count_by_kind().get(DATA, 0) == 3  # 1 original + 2 retries
        assert run.engine.trace.count_by_kind().get(ACK, 0) == 0


class TestBatteriesAndLifetime:
    def test_finite_batteries_crash_nodes_and_set_lifetime(self):
        network, graph = small_world()
        spec = TrafficSpec(
            kind="hotspot",
            flow_count=8,
            packets_per_flow=6,
            packet_interval=2.0,
            battery_capacity=3.0e5,
        )
        report = run_traffic(network, graph, spec, seed=1).report
        assert report.battery_deaths > 0
        assert report.lifetime is not None and report.lifetime > 0
        assert len(network.alive_nodes()) == len(network) - report.battery_deaths

    def test_infinite_batteries_never_die(self):
        network, graph = small_world()
        spec = TrafficSpec(kind="cbr", flow_count=5, packets_per_flow=3)
        report = run_traffic(network, graph, spec, seed=1).report
        assert report.battery_deaths == 0
        assert report.lifetime is None


class TestTraceDeterminism:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_identical_spec_and_seed_replay_byte_identical_trace(self, seed):
        spec = TrafficSpec(kind="cbr", flow_count=5, packets_per_flow=3, interference=True)
        traces = []
        for _ in range(2):
            network, graph = small_world(seed=7, node_count=25)
            run = run_traffic(network, graph, spec, seed=seed)
            traces.append(results_to_json(run.trace_records))
        assert traces[0] == traces[1]

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_reports_replay_identically(self, seed):
        spec = TrafficSpec(kind="uniform", flow_count=4, packets_per_flow=2, interference=True)
        payloads = []
        for _ in range(2):
            network, graph = small_world(seed=11, node_count=25)
            run = run_traffic(network, graph, spec, seed=seed)
            payloads.append(results_to_json(run.report))
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize(
        "interference, digest",
        [
            (False, "92efeea7ab05376bfb809bf2200242212ffb01196abccaca75a539bbe034ca35"),
            (True, "a8442b79ae307c0967e39b8cbc0fb5514aad4d5ecd5a01e7574966871e9a8d7a"),
        ],
    )
    def test_trace_json_is_pinned(self, interference, digest):
        """The trace's bytes are pinned: a different digest means the
        engine popped events in a different order."""
        spec = TrafficSpec(kind="cbr", flow_count=5, packets_per_flow=3, interference=interference)
        network, graph = small_world(seed=7, node_count=25)
        payload = results_to_json(run_traffic(network, graph, spec, seed=3).trace_records)
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == digest

    def test_different_seeds_change_the_workload(self):
        spec = TrafficSpec(kind="cbr", flow_count=5, packets_per_flow=3)
        network, graph = small_world(seed=7, node_count=25)
        first = results_to_json(run_traffic(network, graph, spec, seed=0).trace_records)
        network, graph = small_world(seed=7, node_count=25)
        second = results_to_json(run_traffic(network, graph, spec, seed=1).trace_records)
        assert first != second
