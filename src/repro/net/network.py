"""The network container.

``Network`` owns the set of nodes together with the shared power model.  It
answers the physical-layer questions the simulator and the centralized
analyses need: who receives a broadcast sent with a given power, what is the
maximum-power reachability graph ``GR``, which nodes are within a distance.

The container is intentionally simple — a dictionary of nodes plus a power
model — so that both the centralized CBTC computation and the distributed
simulation build on exactly the same physical assumptions.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.geometry import Point, UniformGridIndex, distance
from repro.net.node import Node, NodeId
from repro.radio import PowerModel, default_power_model


class DerivedDataCache:
    """Memo of data derived from node positions and liveness.

    The owning :class:`Network` clears it on every node change (a move to
    the same position is no change), so a stored value is always current.
    Entries must be keyed on everything else they depend on.  The memo
    never rides a pickle: a loaded network starts with it empty.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[object, object] = {}

    def __reduce__(self):
        return (DerivedDataCache, ())

    def __setstate__(self, state: object) -> None:
        # Networks pickled by older versions carry the memo with per-entry
        # dirty sets and hit counters; it is dropped, not restored.
        self._values = {}

    def get(self, key: object) -> Optional[object]:
        """The value stored for ``key``, or ``None``."""
        return self._values.get(key)

    def put(self, key: object, value: object) -> None:
        """Store ``value`` for ``key``."""
        self._values[key] = value

    def clear(self) -> None:
        """Drop every entry."""
        self._values.clear()

    def __len__(self) -> int:
        return len(self._values)


class Network:
    """A collection of wireless nodes sharing a power model.

    The network keeps a lazily built :class:`UniformGridIndex` over the
    positions of its alive nodes (cell size = the power model's maximum
    range) so that range queries cost output-sensitive time instead of a
    full scan.  The index is kept *live* across changes: whenever the node
    set or any node's position/liveness changes — nodes notify the network
    through the watcher registered on them, and
    :meth:`add_node`/:meth:`remove_node` report directly — the matching
    delta update is applied to the index, the :class:`DerivedDataCache` is
    cleared, and every registered dirty listener records the node ID.
    Every range query, and every construction built on them, goes through
    this index.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        power_model: Optional[PowerModel] = None,
    ) -> None:
        self.power_model = power_model if power_model is not None else default_power_model()
        self._spatial_index: Optional[UniformGridIndex] = None
        self._derived_cache = DerivedDataCache()
        self._dirty_listeners: List[Set[NodeId]] = []
        self._nodes: Dict[NodeId, Node] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise ValueError(f"duplicate node id {node.node_id}")
            self._nodes[node.node_id] = node
            node.watch(self._on_node_changed)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_positions(
        cls,
        positions: Sequence[Tuple[float, float]],
        power_model: Optional[PowerModel] = None,
    ) -> "Network":
        """Build a network from a sequence of ``(x, y)`` coordinates.

        Node IDs are assigned by position in the sequence, matching the
        labelling in the paper's Figure 6 plots.
        """
        nodes = [Node(node_id=i, position=Point(float(x), float(y))) for i, (x, y) in enumerate(positions)]
        return cls(nodes, power_model=power_model)

    @classmethod
    def from_points(
        cls,
        points: Sequence[Point],
        power_model: Optional[PowerModel] = None,
    ) -> "Network":
        """Build a network from a sequence of :class:`Point` objects."""
        nodes = [Node(node_id=i, position=p) for i, p in enumerate(points)]
        return cls(nodes, power_model=power_model)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def node(self, node_id: NodeId) -> Node:
        """Look up a node by ID."""
        return self._nodes[node_id]

    @property
    def node_ids(self) -> List[NodeId]:
        """All node IDs, sorted."""
        return sorted(self._nodes)

    @property
    def nodes(self) -> List[Node]:
        """All nodes, sorted by ID."""
        return [self._nodes[i] for i in self.node_ids]

    def alive_nodes(self) -> List[Node]:
        """Nodes that have not crashed."""
        return [n for n in self.nodes if n.alive]

    def add_node(self, node: Node) -> None:
        """Add a node (used by the reconfiguration experiments)."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        node.watch(self._on_node_changed)
        if self._spatial_index is not None and node.alive:
            self._spatial_index.insert(node.node_id, node.position)
        self._mark_dirty(node.node_id)

    def remove_node(self, node_id: NodeId) -> Node:
        """Remove and return a node."""
        node = self._nodes.pop(node_id)
        node.unwatch(self._on_node_changed)
        if self._spatial_index is not None and node_id in self._spatial_index:
            self._spatial_index.delete(node_id)
        self._mark_dirty(node_id)
        return node

    # ------------------------------------------------------------------ #
    # Spatial index and dirty tracking
    # ------------------------------------------------------------------ #
    def register_dirty_listener(self, listener: Optional[Set[NodeId]] = None) -> Set[NodeId]:
        """Register (and return) a set that collects changed node IDs.

        Every node move/crash/recover/add/remove adds the node's ID to every
        registered listener.  Consumers that maintain incrementally updatable
        views of the network (the reconfiguration manager, the scenario
        runner) own one listener each and clear it after consuming the delta.
        """
        listener = set() if listener is None else listener
        self._dirty_listeners.append(listener)
        return listener

    def unregister_dirty_listener(self, listener: Set[NodeId]) -> None:
        """Stop feeding a previously registered listener (no-op if absent)."""
        try:
            self._dirty_listeners.remove(listener)
        except ValueError:
            pass

    def _mark_dirty(self, node_id: NodeId) -> None:
        self._derived_cache.clear()
        for listener in self._dirty_listeners:
            listener.add(node_id)

    def _on_node_changed(self, node: Node) -> None:
        index = self._spatial_index
        if index is not None:
            if node.alive:
                if node.node_id in index:
                    index.move(node.node_id, node.position)
                else:
                    index.insert(node.node_id, node.position)
            elif node.node_id in index:
                index.delete(node.node_id)
        self._mark_dirty(node.node_id)

    def invalidate_spatial_index(self) -> None:
        """Drop the cached index (for callers that mutate positions directly).

        Such callers bypass the node watchers, so every node is conservatively
        marked dirty for listeners and the derived cache is cleared.
        """
        self._spatial_index = None
        self._derived_cache.clear()
        for listener in self._dirty_listeners:
            listener.update(self._nodes)

    @property
    def derived_cache(self) -> DerivedDataCache:
        """Memo for data derived from current positions/liveness.

        Cleared on every node change (:class:`DerivedDataCache`).  Entries
        must be keyed on everything else they depend on.
        """
        return self._derived_cache

    def spatial_index(self) -> UniformGridIndex:
        """The uniform-grid index over alive nodes (built lazily, kept live).

        Cell size is the maximum transmission range, so the common
        ``neighbors_within(p, max_range)`` query inspects at most a 3x3
        block of cells.  Node changes do not discard the index: moves,
        crashes, recoveries (via node watchers) and add/remove apply the
        matching delta update to the live object, whose query answers stay
        identical to a fresh rebuild's.  Only
        :meth:`invalidate_spatial_index` drops it wholesale.
        """
        if self._spatial_index is None:
            self._spatial_index = UniformGridIndex(
                self.power_model.max_range,
                ((n.node_id, n.position) for n in self._nodes.values() if n.alive),
            )
        return self._spatial_index

    def spatial_query_counts(self) -> Tuple[int, int]:
        """``(neighbor_queries, pair_queries)`` served by the index so far.

        Telemetry for the metrics op; ``(0, 0)`` while the index has not
        been built (the accessor must not force a build just to report).
        """
        index = self._spatial_index
        if index is None:
            return (0, 0)
        return (index.neighbor_queries, index.pair_queries)

    # ------------------------------------------------------------------ #
    # Physical-layer queries
    # ------------------------------------------------------------------ #
    def distance(self, u: NodeId, v: NodeId) -> float:
        """Euclidean distance between two nodes."""
        return self.node(u).distance_to(self.node(v))

    def direction(self, u: NodeId, v: NodeId) -> float:
        """Direction from node ``u`` towards node ``v``."""
        return self.node(u).direction_to(self.node(v))

    def required_power(self, u: NodeId, v: NodeId) -> float:
        """Minimum power for ``u`` to reach ``v`` directly."""
        return self.power_model.required_power(self.distance(u, v))

    def receivers_of_broadcast(self, sender: NodeId, power: float) -> List[NodeId]:
        """Node IDs that receive a broadcast from ``sender`` at ``power``.

        Implements the paper's ``bcast(u, p, m)`` reception set
        ``{v | p(d(u, v)) <= p}``, excluding the sender itself and crashed
        nodes.
        """
        # Over-approximate the reception radius, then apply the exact
        # ``reaches_with`` predicate to each candidate's distance.
        # ``range_for_power`` clamps to the maximum range, which is safe
        # because ``reaches_with`` requires ``can_reach``.
        query_radius = self.power_model.range_for_power(power * (1.0 + 1e-9)) + 1e-9
        reaches = self.power_model.reaches_with
        return [
            node_id
            for node_id, dist in self.spatial_index().neighbors_with_distances(
                self.node(sender).position, query_radius, exclude=sender
            )
            if reaches(power, dist)
        ]

    def neighbors_within(self, node_id: NodeId, radius: float) -> List[NodeId]:
        """Alive node IDs within ``radius`` of the given node (excluding itself)."""
        return self.spatial_index().neighbors_within(self.node(node_id).position, radius, exclude=node_id)

    # ------------------------------------------------------------------ #
    # Reference graphs
    # ------------------------------------------------------------------ #
    def max_power_graph(self) -> nx.Graph:
        """The graph ``GR`` induced by every alive node transmitting at maximum power.

        ``GR = (V, E)`` with ``E = {(u, v) | d(u, v) <= R}``.  Node positions
        are attached as the ``pos`` node attribute; edge lengths as ``length``.
        """
        graph = nx.Graph()
        for node in self.alive_nodes():
            graph.add_node(node.node_id, pos=node.position.as_tuple())
        for u, v, d in self.spatial_index().pairs_within(self.power_model.max_range):
            graph.add_edge(u, v, length=d)
        return graph

    def positions(self) -> Dict[NodeId, Tuple[float, float]]:
        """Mapping of node ID to ``(x, y)`` position."""
        return {n.node_id: n.position.as_tuple() for n in self.nodes}

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` over all nodes."""
        if not self._nodes:
            raise ValueError("bounding box of an empty network is undefined")
        xs = [n.position.x for n in self.nodes]
        ys = [n.position.y for n in self.nodes]
        return (min(xs), min(ys), max(xs), max(ys))

    def copy(self) -> "Network":
        """Deep copy of the network (positions and liveness included)."""
        nodes = [
            Node(node_id=n.node_id, position=Point(n.position.x, n.position.y), alive=n.alive, label=n.label)
            for n in self.nodes
        ]
        return Network(nodes, power_model=self.power_model)
