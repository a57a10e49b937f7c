"""The discrete-event simulation engine.

The engine owns the virtual clock, the event queue, the physical network and
the channel, and drives registered node processes.  Its responsibilities:

* translate a process's ``bcast``/``send`` into delivery events for every
  physical receiver (the reception set of the paper's ``bcast`` is exactly
  ``{v | p(d(u, v)) <= p}``);
* attach reception metadata (reception power, direction of arrival, required
  return power) to every delivery, because those are the quantities the
  paper assumes a receiver can measure;
* honour the channel's loss / duplication / delay decisions;
* suppress duplicate envelope deliveries when asked to (the paper assumes a
  duplicate-suppression mechanism exists);
* record every transmission in the :class:`~repro.sim.trace.MessageTrace`
  and charge it to the :class:`~repro.net.energy.EnergyLedger`.

The engine is single-threaded and deterministic: identical seeds and inputs
produce identical executions.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.net.energy import EnergyLedger
from repro.net.network import Network
from repro.net.node import NodeId
from repro.radio.propagation import ReceptionReport
from repro.sim.channel import Channel, ReliableChannel
from repro.sim.events import Event, MessageDelivery, TimerFired
from repro.sim.messages import Envelope, Message
from repro.sim.process import DeliveryInfo, Process, ProtocolContext
from repro.sim.trace import MessageTrace, TraceRecord


class SimulationEngine:
    """Deterministic discrete-event simulator for wireless protocols."""

    def __init__(
        self,
        network: Network,
        *,
        channel: Optional[Channel] = None,
        suppress_duplicates: bool = True,
        energy_ledger: Optional[EnergyLedger] = None,
    ) -> None:
        self.network = network
        self.channel = channel if channel is not None else ReliableChannel(delay=1.0)
        self.suppress_duplicates = suppress_duplicates
        self.trace = MessageTrace()
        self.energy = energy_ledger if energy_ledger is not None else EnergyLedger(network.node_ids)
        self.now: float = 0.0
        # Heap entries are ``(time, priority, sequence, event)``: tuple
        # comparison runs in C, where ``Event.__lt__`` would be a Python
        # call per comparison.  ``sequence`` is unique, so the order is the
        # events' own and the event itself is never compared.
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._processes: Dict[NodeId, Process] = {}
        self._contexts: Dict[NodeId, ProtocolContext] = {}
        self._seen_envelopes: Dict[NodeId, Set[int]] = {}
        self._started = False
        self._events_processed = 0

    # ------------------------------------------------------------------ #
    # Process management
    # ------------------------------------------------------------------ #
    def register(self, node_id: NodeId, process: Process) -> None:
        """Attach a process to a node.  One process per node."""
        if node_id not in self.network:
            raise KeyError(f"node {node_id} is not part of the network")
        if node_id in self._processes:
            raise ValueError(f"node {node_id} already has a registered process")
        self._processes[node_id] = process
        self._contexts[node_id] = ProtocolContext(self, node_id)
        self._seen_envelopes[node_id] = set()

    def process_for(self, node_id: NodeId) -> Process:
        """The process registered at ``node_id``."""
        return self._processes[node_id]

    def context_for(self, node_id: NodeId) -> ProtocolContext:
        """The protocol context of ``node_id`` (useful for injecting actions in tests)."""
        return self._contexts[node_id]

    @property
    def registered_nodes(self) -> List[NodeId]:
        """IDs of nodes with registered processes, sorted."""
        return sorted(self._processes)

    # ------------------------------------------------------------------ #
    # Actions invoked by processes via their context
    # ------------------------------------------------------------------ #
    def transmit(self, sender: NodeId, power: float, message: Message, destination: Optional[NodeId]) -> None:
        """Carry out a ``bcast`` (``destination is None``) or ``send``."""
        sender_node = self.network.node(sender)
        if not sender_node.alive:
            return
        power_model = self.network.power_model
        power = power_model.clamp(power)
        envelope = Envelope(message=message, sender=sender, transmit_power=power, destination=destination)

        if destination is None:
            receiver_ids = self.network.receivers_of_broadcast(sender, power)
        else:
            receiver_ids = []
            if destination in self.network:
                dest_node = self.network.node(destination)
                if dest_node.alive and power_model.reaches_with(power, sender_node.distance_to(dest_node)):
                    receiver_ids = [destination]

        # Announce the transmission before planning deliveries: medium-aware
        # channels (SINR interference) must see it occupy the air even when
        # nobody is in range.
        self.channel.begin_transmission(envelope, sender_node.position, self.now)

        self.trace.record(
            TraceRecord(
                time=self.now,
                sender=sender,
                kind=message.kind,
                transmit_power=power,
                destination=destination,
                receivers=len(receiver_ids),
            )
        )
        self.energy.charge_transmission(sender, power)

        for receiver in receiver_ids:
            distance = self.network.distance(sender, receiver)
            delays = self.channel.plan_delivery(envelope, receiver, distance)
            reception_power = power_model.propagation.reception_power(power, distance)
            for delay in delays:
                self._push(
                    MessageDelivery(
                        time=self.now + max(delay, 0.0),
                        receiver=receiver,
                        envelope=envelope,
                        reception_power=reception_power,
                    )
                )

    def schedule_timer(self, node_id: NodeId, delay: float, tag: Any) -> TimerFired:
        """Schedule a timer for ``node_id``; returns the event so tests can cancel it."""
        if delay < 0:
            raise ValueError("timer delay must be non-negative")
        event = TimerFired(time=self.now + delay, node=node_id, tag=tag)
        self._push(event)
        return event

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def _push(self, event: Event) -> None:
        heapq.heappush(self._queue, (event.time, event.priority, event.sequence, event))

    def _start_processes(self) -> None:
        if self._started:
            return
        self._started = True
        for node_id in sorted(self._processes):
            if self.network.node(node_id).alive:
                self._processes[node_id].on_start(self._contexts[node_id])

    def pending_events(self) -> int:
        """Number of events still queued (cancelled events included)."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_processed

    def step(self) -> bool:
        """Dispatch the next event.  Returns ``False`` when the queue is empty."""
        self._start_processes()
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            self.now = max(self.now, event.time)
            self._dispatch(event)
            self._events_processed += 1
            return True
        return False

    def run(self, *, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, the clock passes ``until`` or ``max_events`` fire."""
        self._start_processes()
        dispatched = 0
        while self._queue:
            if max_events is not None and dispatched >= max_events:
                return
            next_time, _, _, next_event = self._queue[0]
            if next_event.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and next_time > until:
                return
            if not self.step():
                return
            dispatched += 1

    def run_to_completion(self, *, max_events: int = 1_000_000) -> None:
        """Run until no events remain (bounded by ``max_events`` as a safety net)."""
        self.run(max_events=max_events)
        if self._queue and self._events_processed >= max_events:
            raise RuntimeError(
                "simulation exceeded the maximum event budget; "
                "the protocol appears not to quiesce"
            )

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, event: Event) -> None:
        if isinstance(event, MessageDelivery):
            self._deliver(event)
        elif isinstance(event, TimerFired):
            self._fire_timer(event)
        else:  # pragma: no cover - no other event types exist
            raise TypeError(f"unknown event type {type(event)!r}")

    def _deliver(self, event: MessageDelivery) -> None:
        receiver = event.receiver
        envelope = event.envelope
        if envelope is None or receiver not in self._processes:
            return
        receiver_node = self.network.node(receiver)
        if not receiver_node.alive:
            return
        duplicate = envelope.unique_id() in self._seen_envelopes[receiver]
        if duplicate and self.suppress_duplicates:
            return
        self._seen_envelopes[receiver].add(envelope.unique_id())

        propagation = self.network.power_model.propagation
        report = ReceptionReport(
            transmit_power=envelope.transmit_power,
            reception_power=max(event.reception_power, 1e-300),
        )
        required_power = propagation.estimate_required_power(report)
        info = DeliveryInfo(
            sender=envelope.sender,
            time=self.now,
            transmit_power=envelope.transmit_power,
            reception_power=event.reception_power,
            required_power=required_power,
            direction=self.network.direction(receiver, envelope.sender),
            duplicate=duplicate,
        )
        self._processes[receiver].on_message(self._contexts[receiver], envelope.message, info)

    def _fire_timer(self, event: TimerFired) -> None:
        node_id = event.node
        if node_id not in self._processes:
            return
        if not self.network.node(node_id).alive:
            return
        self._processes[node_id].on_timer(self._contexts[node_id], event.tag)
