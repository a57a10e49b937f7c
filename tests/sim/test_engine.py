"""Tests for the discrete-event simulation engine."""

import pytest

from repro.geometry import Point
from repro.net.network import Network
from repro.radio import PathLossModel, PowerModel
from repro.sim.channel import DuplicatingChannel, LossyChannel, ReliableChannel
from repro.sim.engine import SimulationEngine
from repro.sim.messages import Message
from repro.sim.process import NodeProcess


def _three_node_line(spacing: float = 1.0, max_range: float = 1.5) -> Network:
    power_model = PowerModel(propagation=PathLossModel(), max_range=max_range)
    return Network.from_points(
        [Point(0, 0), Point(spacing, 0), Point(2 * spacing, 0)], power_model=power_model
    )


class RecordingProcess(NodeProcess):
    """Collects everything the engine delivers to it."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.started = False
        self.received = []
        self.timers = []

    def on_start(self, ctx):
        self.started = True

    def on_message(self, ctx, message, info):
        self.received.append((message, info))

    def on_timer(self, ctx, tag):
        self.timers.append((ctx.now, tag))


class BroadcastOnStart(RecordingProcess):
    def __init__(self, node_id, power, kind="hello"):
        super().__init__(node_id)
        self.power = power
        self.kind = kind

    def on_start(self, ctx):
        super().on_start(ctx)
        ctx.bcast(self.power, Message(self.kind, {"power": self.power}))


class TestRegistration:
    def test_register_unknown_node_rejected(self):
        engine = SimulationEngine(_three_node_line())
        with pytest.raises(KeyError):
            engine.register(99, RecordingProcess(99))

    def test_double_registration_rejected(self):
        engine = SimulationEngine(_three_node_line())
        engine.register(0, RecordingProcess(0))
        with pytest.raises(ValueError):
            engine.register(0, RecordingProcess(0))

    def test_registered_nodes_sorted(self):
        engine = SimulationEngine(_three_node_line())
        engine.register(2, RecordingProcess(2))
        engine.register(0, RecordingProcess(0))
        assert engine.registered_nodes == [0, 2]


class TestBroadcastDelivery:
    def test_broadcast_reaches_only_nodes_within_power(self):
        network = _three_node_line()
        engine = SimulationEngine(network)
        processes = {i: RecordingProcess(i) for i in network.node_ids}
        processes[0] = BroadcastOnStart(0, power=network.power_model.required_power(1.0))
        for node_id, process in processes.items():
            engine.register(node_id, process)
        engine.run_to_completion()
        assert len(processes[1].received) == 1
        assert len(processes[2].received) == 0

    def test_delivery_info_contents(self):
        network = _three_node_line()
        engine = SimulationEngine(network)
        sender_power = network.power_model.required_power(1.2)
        engine.register(0, BroadcastOnStart(0, power=sender_power))
        receiver = RecordingProcess(1)
        engine.register(1, receiver)
        engine.register(2, RecordingProcess(2))
        engine.run_to_completion()
        message, info = receiver.received[0]
        assert message.kind == "hello"
        assert info.sender == 0
        assert info.transmit_power == pytest.approx(sender_power)
        # The receiver's estimate of the power required to reach node 0 back
        # must equal the true required power for the 1.0 distance.
        assert info.required_power == pytest.approx(network.power_model.required_power(1.0))
        assert info.direction == pytest.approx(3.141592653589793)

    def test_dead_sender_does_not_transmit(self):
        network = _three_node_line()
        network.node(0).crash()
        engine = SimulationEngine(network)
        engine.register(0, BroadcastOnStart(0, power=network.power_model.max_power))
        receiver = RecordingProcess(1)
        engine.register(1, receiver)
        engine.run_to_completion()
        assert receiver.received == []

    def test_dead_receiver_does_not_receive(self):
        network = _three_node_line()
        network.node(1).crash()
        engine = SimulationEngine(network)
        engine.register(0, BroadcastOnStart(0, power=network.power_model.max_power))
        receiver = RecordingProcess(2)
        engine.register(2, receiver)
        engine.run_to_completion()
        # Node 2 is out of range anyway at distance 2 > 1.5; use max power graph:
        # distance 2.0 > max_range 1.5, so nothing arrives there either.
        assert receiver.received == []

    def test_unicast_send_reaches_only_destination(self):
        network = _three_node_line(spacing=0.5)
        engine = SimulationEngine(network)

        class Unicaster(RecordingProcess):
            def on_start(self, ctx):
                ctx.send(ctx.max_power, Message("ping"), 2)

        engine.register(0, Unicaster(0))
        bystander = RecordingProcess(1)
        target = RecordingProcess(2)
        engine.register(1, bystander)
        engine.register(2, target)
        engine.run_to_completion()
        assert len(target.received) == 1
        assert bystander.received == []

    def test_unicast_beyond_power_is_dropped(self):
        network = _three_node_line()
        engine = SimulationEngine(network)

        class WeakUnicaster(RecordingProcess):
            def on_start(self, ctx):
                ctx.send(0.1, Message("ping"), 1)

        engine.register(0, WeakUnicaster(0))
        target = RecordingProcess(1)
        engine.register(1, target)
        engine.run_to_completion()
        assert target.received == []

    def test_power_clamped_to_max(self):
        network = _three_node_line(spacing=1.0, max_range=1.5)
        engine = SimulationEngine(network)
        engine.register(0, BroadcastOnStart(0, power=1e12))
        far = RecordingProcess(2)
        engine.register(2, far)
        engine.run_to_completion()
        # Even "infinite" requested power cannot exceed P, and node 2 at
        # distance 2.0 is beyond the maximum range 1.5.
        assert far.received == []


class TestTimers:
    def test_timer_fires_at_requested_time(self):
        network = _three_node_line()
        engine = SimulationEngine(network)

        class TimerProcess(RecordingProcess):
            def on_start(self, ctx):
                ctx.set_timer(5.0, "wake")

        process = TimerProcess(0)
        engine.register(0, process)
        engine.run_to_completion()
        assert process.timers == [(5.0, "wake")]

    def test_negative_timer_rejected(self):
        engine = SimulationEngine(_three_node_line())
        engine.register(0, RecordingProcess(0))
        with pytest.raises(ValueError):
            engine.schedule_timer(0, -1.0, None)

    def test_cancelled_timer_does_not_fire(self):
        network = _three_node_line()
        engine = SimulationEngine(network)
        process = RecordingProcess(0)
        engine.register(0, process)
        event = engine.schedule_timer(0, 1.0, "cancel-me")
        event.cancel()
        engine.run_to_completion()
        assert process.timers == []

    def test_timer_for_dead_node_ignored(self):
        network = _three_node_line()
        engine = SimulationEngine(network)
        process = RecordingProcess(0)
        engine.register(0, process)
        engine.schedule_timer(0, 1.0, "tick")
        network.node(0).crash()
        engine.run_to_completion()
        assert process.timers == []


class TestEventOrder:
    def test_equal_time_and_priority_pop_in_creation_order(self):
        network = _three_node_line()
        engine = SimulationEngine(network)
        process = RecordingProcess(0)
        engine.register(0, process)
        # Interleave two instants so ties are broken inside a mixed heap.
        for tag in range(12):
            engine.schedule_timer(0, 2.0 if tag % 3 == 0 else 1.0, tag)
        engine.run_to_completion()
        assert [tag for _, tag in process.timers] == [
            1, 2, 4, 5, 7, 8, 10, 11, 0, 3, 6, 9
        ]

    def test_cancelled_head_is_skipped_by_run(self):
        network = _three_node_line()
        engine = SimulationEngine(network)
        process = RecordingProcess(0)
        engine.register(0, process)
        engine.schedule_timer(0, 1.0, "dropped").cancel()
        engine.schedule_timer(0, 1.0, "kept")
        engine.schedule_timer(0, 9.0, "late")
        engine.run(until=5.0)
        assert process.timers == [(1.0, "kept")]
        assert engine.pending_events() == 1


class TestRunControls:
    def test_run_until_time_bound(self):
        network = _three_node_line()
        engine = SimulationEngine(network)
        process = RecordingProcess(0)
        engine.register(0, process)
        engine.schedule_timer(0, 1.0, "a")
        engine.schedule_timer(0, 10.0, "b")
        engine.run(until=5.0)
        assert [tag for _, tag in process.timers] == ["a"]
        assert engine.pending_events() == 1

    def test_run_to_completion_event_budget(self):
        network = _three_node_line()
        engine = SimulationEngine(network)

        class SelfPerpetuating(RecordingProcess):
            def on_start(self, ctx):
                ctx.set_timer(1.0, "again")

            def on_timer(self, ctx, tag):
                ctx.set_timer(1.0, "again")

        engine.register(0, SelfPerpetuating(0))
        with pytest.raises(RuntimeError):
            engine.run_to_completion(max_events=50)

    def test_clock_is_monotone(self):
        network = _three_node_line()
        engine = SimulationEngine(network)
        times = []

        class Clocked(RecordingProcess):
            def on_timer(self, ctx, tag):
                times.append(ctx.now)

        process = Clocked(0)
        engine.register(0, process)
        for delay in (3.0, 1.0, 2.0):
            engine.schedule_timer(0, delay, delay)
        engine.run_to_completion()
        assert times == sorted(times)


class TestDuplicateSuppressionAndTrace:
    def test_duplicates_suppressed_by_default(self):
        network = _three_node_line(spacing=0.5)
        engine = SimulationEngine(network, channel=DuplicatingChannel(duplicate_probability=1.0, seed=0))
        engine.register(0, BroadcastOnStart(0, power=network.power_model.max_power))
        receiver = RecordingProcess(1)
        engine.register(1, receiver)
        engine.run_to_completion()
        assert len(receiver.received) == 1

    def test_duplicates_delivered_when_suppression_disabled(self):
        network = _three_node_line(spacing=0.5)
        engine = SimulationEngine(
            network,
            channel=DuplicatingChannel(duplicate_probability=1.0, seed=0),
            suppress_duplicates=False,
        )
        engine.register(0, BroadcastOnStart(0, power=network.power_model.max_power))
        receiver = RecordingProcess(1)
        engine.register(1, receiver)
        engine.run_to_completion()
        assert len(receiver.received) == 2
        assert receiver.received[1][1].duplicate

    def test_lossy_channel_can_drop_everything(self):
        network = _three_node_line(spacing=0.5)
        engine = SimulationEngine(network, channel=LossyChannel(loss_probability=0.999999, seed=1))
        engine.register(0, BroadcastOnStart(0, power=network.power_model.max_power))
        receiver = RecordingProcess(1)
        engine.register(1, receiver)
        engine.run_to_completion()
        assert receiver.received == []

    def test_trace_and_energy_recording(self):
        network = _three_node_line(spacing=0.5)
        engine = SimulationEngine(network, channel=ReliableChannel())
        power = network.power_model.required_power(0.5)
        engine.register(0, BroadcastOnStart(0, power=power))
        engine.register(1, RecordingProcess(1))
        engine.run_to_completion()
        assert len(engine.trace) == 1
        record = engine.trace.records[0]
        assert record.sender == 0
        assert record.kind == "hello"
        assert record.transmit_power == pytest.approx(power)
        assert engine.energy.consumed_by(0) == pytest.approx(power)
        assert engine.energy.consumed_by(1) == 0.0
