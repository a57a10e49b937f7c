"""Neighbor Discovery Protocol (NDP).

Section 4 of the paper relies on a simple beaconing protocol to detect
changes in the neighbourhood: every node periodically broadcasts a beacon
carrying its ID and the beacon's transmission power; a neighbour is
considered *failed* when a predefined number of beacons is missed within an
interval, *new* when a beacon arrives from a node not heard from during the
previous interval, and an *angle change* is flagged when a known neighbour's
direction of arrival moves by more than a threshold.

This package is a standalone model of that beaconing on the
discrete-event simulator, and only its own tests (``tests/ndp/``) use it.
The reconfiguration the rest of the stack runs
(:class:`~repro.core.reconfiguration.ReconfigurationManager`) derives
join, leave and angle-change events from geometry, not from beacons.

Two layers are provided:

``BeaconProtocol``
    A :class:`~repro.sim.process.NodeProcess` that broadcasts beacons and
    tracks incoming ones on the discrete-event simulator, emitting
    :class:`NeighborEvent` objects (join / leave / angle-change).
``NeighborTable``
    The protocol's bookkeeping: last-heard times, directions, and the
    event derivation rules.
"""

from repro.ndp.events import NeighborEvent, NeighborEventType
from repro.ndp.table import NeighborTable, NeighborEntry
from repro.ndp.beacon import BeaconProtocol, BEACON

__all__ = [
    "NeighborEvent",
    "NeighborEventType",
    "NeighborTable",
    "NeighborEntry",
    "BeaconProtocol",
    "BEACON",
]
