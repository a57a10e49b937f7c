"""Per-node state produced by running CBTC(alpha).

The algorithm's output at node ``u`` is the set ``N_alpha(u)`` of discovered
neighbours, each tagged (as required by the shrink-back optimization and the
reconfiguration rules) with the power level at which it was first
discovered, plus the direction from which its acknowledgement arrived and
the power ``u`` needs to reach it.  :class:`NodeState` holds that
information; :class:`CBTCOutcome` is the collection of node states for a
whole network together with the parameters of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.geometry.angles import TWO_PI, max_angular_gap_of_sorted, sort_directions
from repro.net.node import NodeId


@dataclass(frozen=True)
class NeighborRecord:
    """One discovered neighbour of a node.

    Attributes
    ----------
    neighbor:
        ID of the discovered neighbour ``v``.
    direction:
        Angle at which ``v``'s acknowledgement arrived, in ``[0, 2*pi)``.
    required_power:
        Minimum power the discovering node needs to reach ``v``.
    discovery_power:
        Power level in use when ``v`` was first discovered (the "tag" of the
        shrink-back optimization); at least ``required_power``.
    distance:
        Euclidean distance to ``v``.  The distributed protocol derives it
        from power estimates; the centralized computation uses ground truth.
    """

    neighbor: NodeId
    direction: float
    required_power: float
    discovery_power: float
    distance: float


@dataclass
class NodeState:
    """The result of CBTC(alpha) at one node."""

    node_id: NodeId
    alpha: float
    neighbors: Dict[NodeId, NeighborRecord] = field(default_factory=dict)
    final_power: float = 0.0
    used_max_power: bool = False
    rounds: int = 0

    def add_neighbor(self, record: NeighborRecord) -> None:
        """Record a discovered neighbour, keeping the earliest discovery tag."""
        existing = self.neighbors.get(record.neighbor)
        if existing is None or record.discovery_power < existing.discovery_power:
            self.neighbors[record.neighbor] = record

    def remove_neighbor(self, neighbor: NodeId) -> Optional[NeighborRecord]:
        """Drop a neighbour (used by shrink-back and reconfiguration)."""
        return self.neighbors.pop(neighbor, None)

    @property
    def neighbor_ids(self) -> List[NodeId]:
        """IDs of discovered neighbours, sorted."""
        return sorted(self.neighbors)

    @property
    def directions(self) -> List[float]:
        """Directions of all discovered neighbours."""
        return [record.direction for record in self.neighbors.values()]

    @property
    def is_boundary(self) -> bool:
        """A boundary node still has an alpha-gap after reaching maximum power."""
        return self.used_max_power and self.has_gap()

    def _sorted_directions(self) -> List[float]:
        """Discovered directions, sorted.

        Records promise directions in ``[0, 2*pi)``, where normalizing is the
        identity, so only a list with an entry outside it is normalized.
        """
        directions = sorted(record.direction for record in self.neighbors.values())
        if directions and (directions[0] < 0.0 or directions[-1] >= TWO_PI):
            return sort_directions(directions)
        return directions

    def has_gap(self, alpha: Optional[float] = None) -> bool:
        """Whether the discovered directions leave a cone of degree alpha empty.

        Same result as ``has_gap_greater_than(self.directions, alpha)``.
        """
        threshold = self.alpha if alpha is None else alpha
        return max_angular_gap_of_sorted(self._sorted_directions()) > threshold + 1e-12

    def largest_gap(self) -> float:
        """The largest angular gap among discovered directions."""
        return max_angular_gap_of_sorted(self._sorted_directions())

    def growth_radius(self) -> float:
        """The paper's ``rad^-_{u,alpha}``: distance of the farthest discovered neighbour."""
        if not self.neighbors:
            return 0.0
        return max(record.distance for record in self.neighbors.values())

    def power_to_reach_all(self) -> float:
        """Power needed to reach every node in ``N_alpha(u)`` (= ``p(rad^-_{u,alpha})``)."""
        if not self.neighbors:
            return 0.0
        return max(record.required_power for record in self.neighbors.values())

    def record_for(self, neighbor: NodeId) -> NeighborRecord:
        """The record for a specific neighbour."""
        return self.neighbors[neighbor]

    def copy(self) -> "NodeState":
        """Deep copy (records are immutable, the mapping is copied)."""
        duplicate = NodeState(
            node_id=self.node_id,
            alpha=self.alpha,
            neighbors=dict(self.neighbors),
            final_power=self.final_power,
            used_max_power=self.used_max_power,
            rounds=self.rounds,
        )
        return duplicate


@dataclass
class CBTCOutcome:
    """CBTC results for every node of a network."""

    alpha: float
    states: Dict[NodeId, NodeState] = field(default_factory=dict)

    def __iter__(self) -> Iterator[NodeState]:
        return iter(self.states.values())

    def __len__(self) -> int:
        return len(self.states)

    def state(self, node_id: NodeId) -> NodeState:
        """State of a specific node."""
        return self.states[node_id]

    def node_ids(self) -> List[NodeId]:
        """All node IDs, sorted."""
        return sorted(self.states)

    def neighbor_pairs(self) -> List[tuple]:
        """The relation ``N_alpha`` as a list of ordered pairs ``(u, v)``."""
        pairs = []
        for state in self.states.values():
            for neighbor in state.neighbor_ids:
                pairs.append((state.node_id, neighbor))
        return pairs

    def boundary_nodes(self) -> List[NodeId]:
        """IDs of boundary nodes (still have an alpha-gap at maximum power)."""
        return [state.node_id for state in self.states.values() if state.is_boundary]

    def copy(self) -> "CBTCOutcome":
        """Deep copy of all node states."""
        return CBTCOutcome(
            alpha=self.alpha,
            states={node_id: state.copy() for node_id, state in self.states.items()},
        )
