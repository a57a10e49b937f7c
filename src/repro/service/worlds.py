"""Live worlds and the shard-side execution engine.

A :class:`World` is one hosted deployment: a live
:class:`~repro.net.network.Network` bootstrapped from a catalogue
:class:`~repro.scenarios.spec.ScenarioSpec` and the
:class:`~repro.core.reconfiguration.ReconfigurationManager` maintaining its
per-node CBTC states.

The write path rides the dirty-set machinery end to end: mobility steps and
churn deltas mark node IDs dirty through the network's watcher hooks; the
next read synchronizes the manager (one shared geometry pass), which applies
the paper's reconfiguration rules to the affected nodes only, and then
builds the topology from the maintained states.  The manager memoizes that
topology, so repeat reads of a clean world skip the pipeline; the read
result itself is computed afresh on every read.  A world caches no
results: repeat reads are answered in front of the shards by the one
read-result cache, :mod:`repro.service.readcache`.

``naive=True`` builds the serving baseline the benchmarks compare against:
a full from-scratch :func:`~repro.core.pipeline.build_topology` on
**every** request — the one-request-one-rebuild server a straightforward
implementation would be.  Both modes produce byte-identical responses (the
memo is an optimization, not an approximation), which the service test
suite asserts.

:class:`WorldHost` owns many worlds and executes protocol requests against
them.  It is deliberately synchronous and transport-free: the asyncio front
end, the multiprocessing shard workers, and the serial replay used by the
determinism battery all drive the exact same ``execute`` method, which is
what makes "serial and sharded replays are byte-identical" a structural
property rather than a hope.
"""

from __future__ import annotations

import base64
import copy
import dataclasses
import functools
import json
import pickle
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.pipeline import build_topology
from repro.core.reconfiguration import ReconfigurationManager
from repro.core.topology import TopologyResult
from repro.geometry import Point
from repro.core.analysis import preserves_max_power_connectivity
from repro.graphs.routing import canonical_single_source_paths, link_weights
from repro.io.graphs import graph_to_dict
from repro.io.results import canonical_json
from repro.net.network import Network
from repro.net.node import Node
from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry
from repro.obs.trace import get_tracer, timed
from repro.scenarios.catalogue import get_scenario
from repro.scenarios.spec import DISTRIBUTED, ScenarioSpec
from repro.sim.randomness import derive_seed
from repro.service import protocol
from repro.service.subs.tracker import DEFAULT_RING_CAPACITY, WorldTracker
from repro.service.storage.base import (
    RECORD_OP,
    RECORD_SYNC,
    Checkpoint,
    StagedRecord,
    WorldStore,
)
from repro.traffic.runner import run_traffic
from repro.traffic.spec import MIN_POWER, TrafficSpec

import networkx as nx

#: Default catalogue scenario for worlds created without an explicit one.
DEFAULT_SCENARIO = "random-waypoint-drift"

#: Default checkpoint cadence: a durable host checkpoints a world after
#: every this-many applied write ops (``cbtc serve --snapshot-every``).
DEFAULT_SNAPSHOT_EVERY = 16

#: Per-world idempotency-token memory.  A retried write re-issued under
#: its original token is answered from here instead of being applied
#: twice; the bound only has to outlive the retry window, not history.
TOKEN_CACHE_MAX_ENTRIES = 256

#: Result caches worlds pickled by older versions carried; a rehydrated
#: world drops them so they never ride its next checkpoint.
_RETIRED_STATE = ("_snapshot_cache", "_route_cache", "_adjacency", "cache_hits", "cache_misses")

#: The ops a write-ahead log holds (besides sync markers); log replay
#: re-executes exactly these and rejects anything else as corruption.
_LOGGED_OPS = frozenset(
    {protocol.CREATE_WORLD, protocol.MIGRATE_IN, protocol.ADVANCE, protocol.APPLY, protocol.SUB_TRACK}
)


class RequestError(ValueError):
    """A request that is well-formed on the wire but invalid for this world."""


def _require_int(value: Any, message: str, *, minimum: Optional[int] = None) -> int:
    """``value`` as a true integer, or :class:`RequestError` with ``message``.

    ``bool`` subclasses ``int``, so a bare ``isinstance(value, int)`` check
    quietly accepts ``true``/``false`` off the wire (``advance`` with
    ``steps: true`` used to run one step); booleans are rejected here along
    with everything else non-integral or below ``minimum``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(message)
    if minimum is not None and value < minimum:
        raise RequestError(message)
    return value


class World:
    """One live deployment hosted by a shard."""

    def __init__(
        self,
        world_id: str,
        spec: ScenarioSpec,
        seed: int,
        *,
        naive: bool = False,
    ) -> None:
        if spec.protocol == DISTRIBUTED:
            raise RequestError(
                f"scenario {spec.name!r} uses the distributed protocol; the fleet "
                f"server hosts reconfiguration-managed worlds only"
            )
        self.world_id = world_id
        self.spec = spec
        self.seed = seed
        self.naive = naive
        self.network: Network = spec.build_network(seed)
        self.mobility = spec.build_mobility(seed)
        self.manager = ReconfigurationManager(
            self.network, spec.alpha, angle_threshold=spec.angle_threshold
        )
        self._config = spec.optimizations.config()
        # The durable host's write-ahead hook: called right before a read
        # triggers a synchronize, so the WAL records the sync point (never
        # pickled — see __getstate__ — the listener closes over the host).
        self._sync_listener: Optional[Callable[[], None]] = None
        # The reconcile feed: every node move/crash/recover/add/remove
        # lands this world's ID set — the same hook the manager consumes.
        self._dirty = self.network.register_dirty_listener()
        self.writes_applied = 0
        # Idempotency tokens of writes already applied to this world, with
        # the results they produced.  Lives on the world (not the host) so
        # it rides checkpoints, eviction pickles, and migration blobs — a
        # retry that lands after a crash-recover or on the world's new
        # shard still deduplicates.  Never serialized into snapshots.
        self.applied_tokens: "OrderedDict[str, Any]" = OrderedDict()
        # Subscription diff tracking (sequence numbers + bounded diff
        # ring).  Same placement argument as the tokens: the tracker rides
        # pickles, so sequence continuity survives migration, eviction,
        # and crash recovery.  None until the first subscribe.
        self._tracker: Optional[WorldTracker] = None
        # Prime at creation (the ScenarioRunner.prime() analogue): run the
        # initial NDP reconciliation — the first synchronize after a fresh
        # CBTC outcome floods join events as boundary beacons complete every
        # node's neighbourhood knowledge — and, on the cached path, build
        # the initial topology.  A freshly created world is then quiescent:
        # its first read is a memo hit and later write bursts pay only for
        # their own deltas.  Priming can raise (a hostile spec, a resource
        # failure mid-sync); the listener and the manager's hooks registered
        # above must not outlive a World that was never handed out, so a
        # failed prime unwinds them before re-raising — ``create_world``
        # then leaves no partial state behind.
        try:
            self._next_node_id = max(self.network.node_ids, default=-1) + 1
            self.manager.synchronize(max_iterations=spec.sync_max_iterations)
            self._dirty.clear()
            if not naive:
                self.manager.topology(config=self._config)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Detach from the network's notification feeds (world deletion)."""
        self.manager.close()
        self.network.unregister_dirty_listener(self._dirty)

    def __getstate__(self) -> Dict[str, Any]:
        # Checkpoint/eviction blobs must capture the world alone: the sync
        # listener closes over the hosting WorldHost (and through it the
        # store), which must never ride into a pickle.  The adopting host
        # re-attaches its own listener on rehydration.
        state = self.__dict__.copy()
        state["_sync_listener"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Checkpoints written before idempotency tokens (or diff tracking)
        # existed lack the attributes; default them so old state dirs
        # rehydrate cleanly.  Older ones also carry result caches a world
        # no longer keeps.
        state.setdefault("applied_tokens", OrderedDict())
        state.setdefault("_tracker", None)
        for key in _RETIRED_STATE:
            state.pop(key, None)
        self.__dict__.update(state)

    def remember_token(self, token: str, result: Any) -> None:
        """Record an applied write's idempotency token and its result."""
        if token in self.applied_tokens:
            self.applied_tokens.move_to_end(token)
        self.applied_tokens[token] = copy.deepcopy(result)
        while len(self.applied_tokens) > TOKEN_CACHE_MAX_ENTRIES:
            self.applied_tokens.popitem(last=False)

    def token_result(self, token: Optional[str]) -> Optional[Any]:
        """The remembered result for ``token``, or None if never applied."""
        if token is None:
            return None
        cached = self.applied_tokens.get(token)
        if cached is None:
            return None
        self.applied_tokens.move_to_end(token)
        return copy.deepcopy(cached)

    def _notify_sync(self) -> None:
        """Tell the hosting WAL (if any) that a synchronize is about to run."""
        if self._sync_listener is not None:
            self._sync_listener()

    # ------------------------------------------------------------------ #
    # Topology refresh (the dirty-set read path)
    # ------------------------------------------------------------------ #
    def _refresh(self) -> TopologyResult:
        """Reconcile topology control with the current geometry.

        Both modes synchronize the manager exactly when the dirty listener
        reports a geometric change since the last read — reconciliation is
        part of the model's semantics, so it must not differ between modes.
        What differs is what a read *costs* afterwards: cached mode asks the
        manager for its memoized topology; naive mode rebuilds from scratch
        on every request, bypassing the manager's memo on purpose (the
        one-request-one-rebuild baseline).
        """
        if self._dirty:
            self._notify_sync()
            self.manager.synchronize(max_iterations=self.spec.sync_max_iterations)
            self._dirty.clear()
        if self.naive:
            return build_topology(
                self.network,
                self.spec.alpha,
                config=self._config,
                outcome=self.manager.outcome,
            )
        return self.manager.topology(config=self._config)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def advance(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Advance the world's mobility model ``steps`` times."""
        steps = params.get("steps", self.spec.steps_per_epoch)
        _require_int(steps, "'steps' must be a non-negative integer", minimum=0)
        for _ in range(steps):
            self.mobility.step(self.network)
        self.writes_applied += 1
        return {"world": self.world_id, "steps": steps, "writes": self.writes_applied}

    def apply_delta(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Apply an explicit churn/mobility delta.

        ``moves`` is ``[[node_id, x, y], ...]``; ``joins`` is ``[[x, y],
        ...]`` (IDs are assigned deterministically); ``crashes`` and
        ``recovers`` are node-ID lists.  The whole delta is validated before
        any of it is applied, so an invalid request leaves the world
        untouched — errors must not fork the state between replays.
        """
        # Parse and validate the whole delta first — entry shapes, coordinate
        # types, node existence — so a bad entry cannot leave the world
        # half-mutated.
        try:
            moves = [
                (node_id, Point(float(x), float(y))) for node_id, x, y in params.get("moves", [])
            ]
            join_points = [Point(float(x), float(y)) for x, y in params.get("joins", [])]
            crashes = list(params.get("crashes", []))
            recovers = list(params.get("recovers", []))
            for node_id, _ in moves:
                if node_id not in self.network:
                    raise RequestError(f"cannot move unknown node {node_id}")
            for node_id in crashes + recovers:
                if node_id not in self.network:
                    raise RequestError(f"cannot crash/recover unknown node {node_id}")
        except (TypeError, ValueError) as error:
            if isinstance(error, RequestError):
                raise
            raise RequestError(
                "malformed delta: 'moves' entries are [node_id, x, y], 'joins' entries "
                "[x, y], 'crashes'/'recovers' are node-ID lists"
            ) from None
        for node_id, position in moves:
            self.network.node(node_id).move_to(position)
        joined_ids = []
        for position in join_points:
            node = Node(node_id=self._next_node_id, position=position)
            self._next_node_id += 1
            self.network.add_node(node)
            joined_ids.append(node.node_id)
        for node_id in crashes:
            self.network.node(node_id).crash()
        for node_id in recovers:
            self.network.node(node_id).recover()
        self.writes_applied += 1
        return {
            "world": self.world_id,
            "moved": len(moves),
            "joined": joined_ids,
            "crashed": len(crashes),
            "recovered": len(recovers),
            "writes": self.writes_applied,
        }

    # ------------------------------------------------------------------ #
    # Subscription diff tracking
    # ------------------------------------------------------------------ #
    def track(self, *, ring_capacity: int = DEFAULT_RING_CAPACITY) -> WorldTracker:
        """Turn on diff tracking (idempotent); returns the tracker.

        The tracking base is the world's current canonical snapshot, and
        computing it forces a reconcile of any pending dirty state — which
        is why turning tracking on is a *logged* operation: from this point
        every write is followed by a refresh, changing the world's
        synchronize schedule, and replays must walk the same schedule from
        the same log position.
        """
        if self._tracker is None:
            self._tracker = WorldTracker(self.snapshot({}), ring_capacity=ring_capacity)
        return self._tracker

    def commit_epoch(self) -> Optional[Dict[str, Any]]:
        """The epoch-commit hook: diff the post-write snapshot into the ring.

        Called after every applied write on a tracked world.  Rides the
        dirty-listener machinery of every read: the write marked the world
        dirty, the snapshot read reconciles and rebuilds, and the tracker
        diffs the new canonical snapshot against the previous sequence
        point.  Returns the new ring entry, or ``None`` when untracked or
        unchanged.
        """
        if self._tracker is None:
            return None
        return self._tracker.commit(self.snapshot({}))

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Topology statistics over the current controlled topology."""
        topology = self._refresh()
        graph = topology.graph
        radii = sorted(topology.node_radius.values())
        return {
            "world": self.world_id,
            "alive_nodes": len(self.network.alive_nodes()),
            "edge_count": graph.number_of_edges(),
            "average_degree": topology.average_degree(),
            "average_radius": sum(radii) / len(radii) if radii else 0.0,
            "max_radius": max(radii) if radii else 0.0,
            "components": (
                nx.number_connected_components(graph) if graph.number_of_nodes() else 0
            ),
            "total_power": sum(p for _, p in sorted(topology.node_power.items())),
            "connectivity_preserved": preserves_max_power_connectivity(self.network, graph),
        }

    def route(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The canonical minimum-power route between two nodes."""
        source = params.get("source")
        target = params.get("target")
        _require_int(source, "'source' and 'target' must be node IDs")
        _require_int(target, "'source' and 'target' must be node IDs")
        adjacency = link_weights(self.network, self._refresh().graph)
        path = canonical_single_source_paths(adjacency, source).get(target)
        if path is None:
            return {"world": self.world_id, "source": source, "target": target, "reachable": False}
        return {
            "world": self.world_id,
            "source": source,
            "target": target,
            "reachable": True,
            "path": list(path),
            "hops": len(path) - 1,
            "cost": sum(adjacency[u][v] for u, v in zip(path, path[1:])),
        }

    def traffic(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Run a packet-level burst over the current topology; report metrics.

        Deterministic in ``(world state, params)``: the run's seed derives
        from the world seed and the request's ``seed`` parameter, and the
        default infinite battery keeps the run side-effect free, so the
        response is cacheable like any other read.
        """
        topology = self._refresh()
        try:
            tspec = TrafficSpec(
                kind=params.get("kind", "cbr"),
                flow_count=params.get("flows", 4),
                packets_per_flow=params.get("packets", 3),
                routing=MIN_POWER,
                interference=bool(params.get("interference", False)),
            )
        except (ValueError, TypeError) as error:
            raise RequestError(str(error)) from None
        run_seed = derive_seed(self.seed, f"service-traffic:{params.get('seed', 0)}")
        run = run_traffic(self.network, topology.graph, tspec, run_seed)
        report = json.loads(canonical_json(run.report))
        report["world"] = self.world_id
        return report

    def snapshot(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The canonical byte-comparable serialization of this world.

        Covers exactly the replay-relevant state — node positions/liveness
        and the controlled topology, both in the canonical sorted form of
        :mod:`repro.io` — and none of the serving metadata (counters, batch
        shapes), so serial and sharded replays of one request trace must
        agree on every byte.
        """
        topology = self._refresh()
        return {
            "world": self.world_id,
            "scenario": self.spec.name,
            "seed": self.seed,
            "nodes": [
                {
                    "id": node.node_id,
                    "x": node.position.x,
                    "y": node.position.y,
                    "alive": node.alive,
                }
                for node in self.network.nodes
            ],
            "topology": graph_to_dict(topology.graph),
        }

    def cache_stats(self) -> Dict[str, Any]:
        """Serving-layer counters (never cached — they change on every read)."""
        return {
            "world": self.world_id,
            "naive": self.naive,
            "writes": self.writes_applied,
            "topology_builds": self.manager.topology_builds,
            "topology_memo_hits": self.manager.memo_hits,
        }


def build_world_spec(params: Dict[str, Any]) -> Tuple[ScenarioSpec, int]:
    """Resolve ``create_world`` params into a ``(spec, seed)`` pair.

    ``scenario`` names a catalogue entry (default
    :data:`DEFAULT_SCENARIO`); ``nodes`` scales its population;
    ``mover_fraction`` restricts motion to a seed-stable subset — the
    partial-mobility regime whose events stay local.
    """
    name = params.get("scenario", DEFAULT_SCENARIO)
    try:
        spec = get_scenario(name)
    except KeyError as error:
        raise RequestError(error.args[0]) from None
    nodes = params.get("nodes")
    if nodes is not None:
        _require_int(nodes, "'nodes' must be a positive integer", minimum=1)
        spec = spec.scaled(node_count=nodes)
    mover_fraction = params.get("mover_fraction")
    if mover_fraction is not None:
        try:
            spec = dataclasses.replace(
                spec,
                mobility=dataclasses.replace(spec.mobility, mover_fraction=float(mover_fraction)),
            )
        except (TypeError, ValueError) as error:
            raise RequestError(str(error)) from None
    seed = params.get("seed", 0)
    _require_int(seed, "'seed' must be an integer")
    return spec, seed


class WorldHost:
    """Executes protocol requests against a set of hosted worlds.

    One host backs one shard (worker process), the whole serial replay, or
    the inline server — the execution semantics are identical in all three,
    which is the determinism battery's core claim.

    With a :class:`~repro.service.storage.base.WorldStore` attached the host
    is **durable**: every applied write op is staged into a write-ahead log
    (plus sync markers recording where reads reconciled the geometry — see
    :meth:`World._refresh`), and the whole batch's staged records commit
    atomically *before* its responses are released.  Periodic checkpoints
    (every ``snapshot_every`` writes) bound replay length; :meth:`recover`
    rebuilds every world from latest-checkpoint-plus-log through the normal
    execution path, byte-identically.  ``max_live_worlds`` adds LRU
    eviction: cold worlds are flushed to the store as checkpoints and
    transparently rehydrated on their next access.
    """

    def __init__(
        self,
        *,
        naive: bool = False,
        store: Optional[WorldStore] = None,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        max_live_worlds: Optional[int] = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if max_live_worlds is not None:
            if max_live_worlds < 1:
                raise ValueError("max_live_worlds must be at least 1")
            if store is None:
                raise ValueError("max_live_worlds requires a store to evict into")
        self.naive = naive
        self.store = store
        self.snapshot_every = snapshot_every
        self.max_live_worlds = max_live_worlds
        # Telemetry-only registry for this host (= this shard).  WAL phase
        # timings are observed as they happen; world/cache/pipeline counters
        # are folded in on demand by :meth:`metrics_snapshot`.
        self.metrics = MetricsRegistry()
        # LRU order: oldest-accessed first (move_to_end on every touch).
        self.worlds: "OrderedDict[str, World]" = OrderedDict()
        self.requests_executed = 0
        self.recovered_worlds = 0
        self.evictions = 0
        self.rehydrations = 0
        #: Worlds known to the store but not currently live in memory.
        self._evicted: Set[str] = set()
        #: Per-world last-assigned log position (1-based).
        self._log_seq: Dict[str, int] = {}
        #: Per-world count of RECORD_OP records ever logged (cadence basis).
        self._write_counts: Dict[str, int] = {}
        #: Per-world write count at the world's newest checkpoint.
        self._checkpointed_writes: Dict[str, int] = {}
        self._batch_seq = 0
        self._staged: List[StagedRecord] = []
        self._staged_purges: List[str] = []
        self._replaying = False
        self._use_checkpoints = True

    # ------------------------------------------------------------------ #
    # WAL staging
    # ------------------------------------------------------------------ #
    def _logging_enabled(self) -> bool:
        return self.store is not None and not self._replaying

    def _stage(self, world_id: str, record: Dict[str, Any]) -> int:
        """Append one record to the staging area; returns its marker index."""
        seq = self._log_seq.get(world_id, 0) + 1
        self._log_seq[world_id] = seq
        if record["kind"] == RECORD_OP:
            self._write_counts[world_id] = self._write_counts.get(world_id, 0) + 1
        marker = len(self._staged)
        self._staged.append((world_id, seq, record))
        return marker

    def _stage_write(
        self, world_id: str, op: str, params: Dict[str, Any], *, token: Optional[str] = None
    ) -> Optional[int]:
        if not self._logging_enabled():
            return None
        record: Dict[str, Any] = {"kind": RECORD_OP, "op": op, "params": params}
        if token is not None:
            # The token rides the WAL record so log replay re-registers it:
            # a retry landing after crash recovery still deduplicates.
            record["token"] = token
        return self._stage(world_id, record)

    def _stage_sync(self, world_id: str) -> None:
        """The :attr:`World._sync_listener` hook: log a sync marker."""
        if self._logging_enabled():
            self._stage(world_id, {"kind": RECORD_SYNC})

    def _unstage_from(self, marker: Optional[int]) -> None:
        """Roll the staging area back to ``marker`` (a failed write applied
        nothing, so its record — and any markers staged after it — must not
        become durable history)."""
        if marker is None:
            return
        for world_id, seq, record in reversed(self._staged[marker:]):
            if seq > 1:
                self._log_seq[world_id] = seq - 1
            else:
                self._log_seq.pop(world_id, None)
            if record["kind"] == RECORD_OP:
                self._write_counts[world_id] -= 1
                if not self._write_counts[world_id]:
                    self._write_counts.pop(world_id)
        del self._staged[marker:]

    # ------------------------------------------------------------------ #
    # World lifecycle: adopt / evict / rehydrate / delete
    # ------------------------------------------------------------------ #
    def _adopt(self, world_id: str, world: World) -> None:
        world._sync_listener = functools.partial(self._stage_sync, world_id)
        self.worlds[world_id] = world
        self.worlds.move_to_end(world_id)

    def _world(self, world_id: str) -> World:
        world = self.worlds.get(world_id)
        if world is not None:
            self.worlds.move_to_end(world_id)
            return world
        if world_id in self._evicted:
            return self._rehydrate(world_id)
        raise RequestError(f"unknown world {world_id!r}")

    def _rehydrate(self, world_id: str) -> World:
        """Load an evicted/recovered world back into memory.

        Adopt the latest checkpoint (if allowed), then re-execute the log
        tail through :meth:`_execute_world_op` — the same handlers live
        requests run — with staging off so nothing is logged twice.  The
        byte-identity argument is that both legs re-run exactly the code
        that produced the original state.  A log the handlers reject (or
        holding an op the WAL never logs) raises ``RuntimeError`` and
        leaves the world evicted.
        """
        assert self.store is not None
        checkpoint = self.store.latest_checkpoint(world_id) if self._use_checkpoints else None
        self._evicted.discard(world_id)
        self._replaying = True
        try:
            if checkpoint is not None:
                self._adopt(world_id, pickle.loads(checkpoint.state))
            for record in self.store.records_after(world_id, checkpoint.seq if checkpoint else 0):
                if record["kind"] == RECORD_SYNC:
                    self._world(world_id)._refresh()
                elif record["op"] in _LOGGED_OPS:
                    self._execute_world_op(
                        record["op"], world_id, record["params"], record.get("token")
                    )
                else:
                    raise RuntimeError(f"unexpected op {record['op']!r} in {world_id!r} log")
        except BaseException as error:
            failed = self.worlds.pop(world_id, None)
            if failed is not None:
                failed.close()
            self._evicted.add(world_id)
            if isinstance(error, RequestError):
                # A logged record the live handlers refuse is a corrupt log,
                # not a bad request from whoever touched the world.
                raise RuntimeError(f"cannot replay the {world_id!r} log: {error}") from error
            raise
        finally:
            self._replaying = False
        world = self.worlds.get(world_id)
        if world is None:
            self._evicted.add(world_id)
            raise RequestError(f"unknown world {world_id!r}")
        self.rehydrations += 1
        return world

    def _forget_world(self, world_id: str) -> None:
        """Drop a world's host-side bookkeeping and stage its durable purge.

        Shared by deletion and outbound migration: any records this batch
        already staged for the world die with it, and the purge rides the
        same commit.
        """
        self._evicted.discard(world_id)
        self._log_seq.pop(world_id, None)
        self._write_counts.pop(world_id, None)
        self._checkpointed_writes.pop(world_id, None)
        self._staged = [entry for entry in self._staged if entry[0] != world_id]
        if self._logging_enabled():
            self._staged_purges.append(world_id)

    def _delete_world(self, world_id: str) -> None:
        live = self.worlds.pop(world_id, None)
        if live is not None:
            live.close()
        self._forget_world(world_id)

    # ------------------------------------------------------------------ #
    # Checkpoints and eviction
    # ------------------------------------------------------------------ #
    def _checkpoint(self, world_id: str, world: World) -> Checkpoint:
        """Pickle the world *as it is* — forcing a synchronize here would
        fork its history from the uninterrupted run."""
        with timed(
            self.metrics.histogram("wal.checkpoint_seconds"), "wal.checkpoint"
        ):
            return Checkpoint(seq=self._log_seq.get(world_id, 0), state=pickle.dumps(world))

    def _due_checkpoints(self) -> List[Tuple[str, Checkpoint]]:
        """Live worlds whose write count crossed the cadence since their
        last checkpoint.  Cadence counts *writes* (not sync markers): the
        checkpoint point is then a deterministic function of the write
        trace, so every replay checkpoints at the same log positions."""
        due: List[Tuple[str, Checkpoint]] = []
        for world_id, world in self.worlds.items():
            writes = self._write_counts.get(world_id, 0)
            if writes - self._checkpointed_writes.get(world_id, 0) >= self.snapshot_every:
                due.append((world_id, self._checkpoint(world_id, world)))
                self._checkpointed_writes[world_id] = writes
        return due

    def _enforce_live_bound(self) -> None:
        if self.max_live_worlds is None or self.store is None:
            return
        while len(self.worlds) > self.max_live_worlds:
            with timed(
                self.metrics.histogram("wal.eviction_seconds"), "wal.evict"
            ):
                world_id, world = self.worlds.popitem(last=False)
                self.store.save_checkpoint(world_id, self._checkpoint(world_id, world))
                self._checkpointed_writes[world_id] = self._write_counts.get(world_id, 0)
                self._evicted.add(world_id)
                self.evictions += 1
            # The whole object graph is dropped, not closed: the evicted
            # pickle must keep its listener hooks so the rehydrated clone
            # wakes up with them intact.

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def recover(self, *, use_checkpoints: bool = True) -> int:
        """Restore this host's fleet from its store.

        Every stored world starts out *evicted*; the host then rehydrates
        them up front in world-id order, up to the live bound, and the rest
        rehydrate lazily on first access.  ``use_checkpoints=False`` forces
        full-log replay — the battery uses it to prove checkpoints change
        nothing.  Returns the number of worlds found.
        """
        if self.store is None:
            raise RuntimeError("recover() needs a store")
        with timed(self.metrics.histogram("wal.recovery_seconds"), "wal.recover"):
            self._use_checkpoints = use_checkpoints
            counts = self.store.world_counts()
            self._batch_seq = self.store.last_batch()[0]
            for world_id, (records, writes) in counts.items():
                self._log_seq[world_id] = records
                self._write_counts[world_id] = writes
                self._checkpointed_writes[world_id] = writes
                self._evicted.add(world_id)
            for world_id in sorted(counts):
                if self.max_live_worlds is not None and len(self.worlds) >= self.max_live_worlds:
                    break
                self._rehydrate(world_id)
            self.recovered_worlds = len(counts)
            return self.recovered_worlds

    # ------------------------------------------------------------------ #
    # Subscriptions (shard side)
    # ------------------------------------------------------------------ #
    def _sub_track(
        self, world_id: str, world: World, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Turn on tracking and answer with the subscription base state.

        Fresh subscriptions get the full snapshot at the current sequence
        point; a resume (``since``) gets the retained diffs past its
        cursor, or the snapshot with ``resync: true`` when the cursor aged
        out of the ring.  Turning tracking on is logged (it changes the
        world's synchronize schedule — see :meth:`World.track`); repeat
        subscriptions are idempotent and log nothing.
        """
        since = params.get("since")
        if since is not None:
            since = _require_int(since, "'since' must be a non-negative integer", minimum=0)
        ring_capacity = params.get("ring", DEFAULT_RING_CAPACITY)
        ring_capacity = _require_int(ring_capacity, "'ring' must be a positive integer", minimum=1)
        if world._tracker is None:
            marker = self._stage_write(world_id, protocol.SUB_TRACK, {"ring": ring_capacity})
            try:
                world.track(ring_capacity=ring_capacity)
            except BaseException:
                self._unstage_from(marker)
                raise
        tracker = world._tracker
        assert tracker is not None
        result: Dict[str, Any] = {"world": world_id, "seq": tracker.seq, "tracked": True}
        if since is not None:
            entries = tracker.frames_after(since)
            if entries is not None:
                result["frames"] = [
                    protocol.push_frame(
                        world_id,
                        entry["seq"],
                        protocol.FRAME_DIFF,
                        entry["diff"],
                        base=entry["seq"] - 1,
                    )
                    for entry in entries
                ]
                return result
            result["resync"] = True
        result["snapshot"] = tracker.snapshot_copy()
        return result

    def collect_frames(self, cursors: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Push frames for the tracked worlds in ``cursors`` past each cursor.

        The front end calls this (via :data:`~repro.service.protocol.SUBS_COLLECT`)
        after any batch that wrote to a subscribed world; riding the normal
        batch path keeps frames ordered behind the writes that caused them.
        Worlds this shard no longer hosts (deleted, or migrated away midway
        through a resize) are silently skipped — the front end either
        synthesizes the terminal frame itself or re-collects from the new
        owner.  A cursor beyond the ring's reach degrades to one
        full-snapshot resync frame.
        """
        frames: List[Dict[str, Any]] = []
        for world_id in sorted(cursors):
            if world_id not in self.worlds and world_id not in self._evicted:
                continue
            world = self._world(world_id)
            tracker = world._tracker
            if tracker is None:
                continue
            cursor = cursors[world_id]
            if not isinstance(cursor, int) or isinstance(cursor, bool) or cursor < 0:
                cursor = -1
            entries = tracker.frames_after(cursor)
            if entries is None:
                frames.append(
                    protocol.push_frame(
                        world_id,
                        tracker.seq,
                        protocol.FRAME_SNAPSHOT,
                        tracker.snapshot_copy(),
                    )
                )
                continue
            frames.extend(
                protocol.push_frame(
                    world_id,
                    entry["seq"],
                    protocol.FRAME_DIFF,
                    entry["diff"],
                    base=entry["seq"] - 1,
                )
                for entry in entries
            )
        return frames

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    # The per-op dispatch; every handler returns the response's ``result``.
    def _execute_world_op(
        self,
        op: str,
        world_id: str,
        params: Dict[str, Any],
        token: Optional[str] = None,
    ) -> Any:
        if op == protocol.SHARD_METRICS:
            # Not tied to any world: the front end fans one such request to
            # every shard (with a synthetic world id) and merges the results.
            return self.metrics_snapshot()
        if op == protocol.SUBS_COLLECT:
            # Also shard-scoped (synthetic world id): drain push frames for
            # the tracked worlds named in ``cursors`` past each cursor.
            return {"frames": self.collect_frames(params.get("cursors", {}))}
        if op == protocol.MIGRATE_OUT:
            # Drain this world for its new owner: serialize, detach, and
            # purge its durable history here — the pickled blob carries
            # everything (including applied idempotency tokens), and the
            # receiving shard logs it as its own MIGRATE_IN record.
            world = self._world(world_id)
            blob = pickle.dumps(world)
            self.worlds.pop(world_id, None)
            world.close()
            self._forget_world(world_id)
            return {
                "world": world_id,
                "state": base64.b64encode(blob).decode("ascii"),
            }
        if op == protocol.MIGRATE_IN:
            if world_id in self.worlds or world_id in self._evicted:
                # A re-dispatched migration batch (worker died after the
                # adopt became durable) must converge, not error.
                return {"world": world_id, "migrated": True}
            state = params.get("state")
            if not isinstance(state, str):
                raise RequestError("migrate_in requires the pickled 'state'")
            try:
                world = pickle.loads(base64.b64decode(state))
            except Exception:
                raise RequestError("migrate_in 'state' is not a valid world blob") from None
            self._stage_write(world_id, op, params)
            self._adopt(world_id, world)
            return {"world": world_id, "migrated": True}
        if op == protocol.CREATE_WORLD:
            if world_id in self.worlds or world_id in self._evicted:
                if token is not None:
                    cached = self._world(world_id).token_result(token)
                    if cached is not None:
                        return cached
                raise RequestError(f"world {world_id!r} already exists")
            marker = self._stage_write(world_id, op, params, token=token)
            try:
                spec, seed = build_world_spec(params)
                world = World(world_id, spec, seed, naive=self.naive)
            except BaseException:
                self._unstage_from(marker)
                raise
            self._adopt(world_id, world)
            result = {
                "world": world_id,
                "scenario": spec.name,
                "seed": seed,
                "nodes": len(world.network),
            }
            if token is not None:
                world.remember_token(token, result)
            return result
        if op == protocol.DELETE_WORLD:
            if world_id not in self.worlds and world_id not in self._evicted:
                raise RequestError(f"unknown world {world_id!r}")
            self._delete_world(world_id)
            return {"world": world_id, "deleted": True}
        world = self._world(world_id)
        if op in (protocol.ADVANCE, protocol.APPLY):
            cached = world.token_result(token)
            if cached is not None:
                # The write already applied under this token (the client
                # retried a request whose response was lost) — answer from
                # memory instead of applying it twice.
                return cached
            marker = self._stage_write(world_id, op, params, token=token)
            try:
                result = (
                    world.advance(params) if op == protocol.ADVANCE else world.apply_delta(params)
                )
            except BaseException:
                self._unstage_from(marker)
                raise
            if token is not None:
                world.remember_token(token, result)
            # The epoch commit: a tracked world diffs its new snapshot into
            # the ring right here, *after* the op record was staged, so the
            # refresh's sync marker lands behind the op in the WAL and log
            # replay regenerates the identical ring.
            world.commit_epoch()
            return result
        if op in (protocol.SUB_TRACK, protocol.SUBSCRIBE):
            return self._sub_track(world_id, world, params)
        if op == protocol.UNSUBSCRIBE:
            # Subscription membership lives at the front end; shard-side
            # tracking stays on for the world's remaining lifetime (its
            # cost is the ring, bounded, and one refresh per write).
            return {"world": world_id, "unsubscribed": True}
        if op == protocol.QUERY_STATS:
            return world.stats(params)
        if op == protocol.QUERY_ROUTE:
            return world.route(params)
        if op == protocol.RUN_TRAFFIC:
            return world.traffic(params)
        if op == protocol.SNAPSHOT:
            return world.snapshot(params)
        if op == protocol.CACHE_STATS:
            return world.cache_stats()
        raise RequestError(f"op {op!r} is not a world op")

    def _execute_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one request, always returning a protocol response."""
        request_id = request.get("id")
        problem = protocol.envelope_problem(request)
        if problem is not None:
            message, code = problem
            return protocol.error_response(request_id, message, code=code)
        op = request["op"]
        if op not in protocol.WORLD_OPS:
            return protocol.error_response(request_id, f"op {op!r} is not served by shards")
        if op != protocol.SHARD_METRICS and op not in protocol.INTERNAL_OPS:
            # Metrics probes and migration plumbing are excluded so qps
            # derived from this counter reflects the workload, not the
            # observer or the rebalancer.
            self.requests_executed += 1
        try:
            result = self._execute_world_op(
                op, request["world"], request.get("params", {}), request.get("token")
            )
        except RequestError as error:
            return protocol.error_response(request_id, str(error))
        except Exception as error:
            # Containment lives here, at the per-request layer, so every
            # backend — inline dispatcher, worker process, serial replay —
            # turns an unexpected handler failure into the same error
            # response instead of killing its execution loop (or, worse,
            # failing innocent co-batched requests).
            return protocol.error_response(
                request_id, f"internal error executing {op!r}: {error!r}"
            )
        return protocol.ok_response(request_id, result)

    def execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one request as a batch of one (same durability path)."""
        return self.execute_batch([request])[0]

    def execute_batch(
        self, requests: List[Dict[str, Any]], *, batch_seq: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Execute a batch in arrival order, one response per request.

        With a store attached this is the **group commit**: all records the
        batch staged become durable in one transaction together with the
        batch marker, before the responses leave this method.  A re-dispatch
        of the already-committed batch (``batch_seq`` ≤ the committed one)
        is answered from the stored responses without executing anything —
        the exactly-once half of crash recovery.
        """
        self.metrics.histogram("host.batch_size", COUNT_BUCKETS).observe(len(requests))
        if not self._logging_enabled():
            with get_tracer().span("host.batch", size=len(requests)):
                return [self._execute_request(request) for request in requests]
        assert self.store is not None
        seq = self._batch_seq + 1 if batch_seq is None else batch_seq
        if seq <= self._batch_seq:
            committed_seq, committed = self.store.last_batch()
            if seq == committed_seq and committed is not None:
                return committed
            raise RuntimeError(
                f"batch {seq} was already committed (at {self._batch_seq}) and its "
                f"responses are no longer retained"
            )
        with get_tracer().span("host.batch", size=len(requests)):
            responses = [self._execute_request(request) for request in requests]
        with timed(self.metrics.histogram("wal.commit_seconds"), "wal.commit"):
            self.store.commit_batch(
                seq, self._staged, responses, self._due_checkpoints(), self._staged_purges
            )
        self._batch_seq = seq
        self._staged = []
        self._staged_purges = []
        self._enforce_live_bound()
        return responses

    # ------------------------------------------------------------------ #
    # Introspection / shutdown
    # ------------------------------------------------------------------ #
    @property
    def last_batch_seq(self) -> int:
        """Sequence number of the last committed batch (0 before any)."""
        return self._batch_seq

    def world_ids(self) -> List[str]:
        """Every hosted world, live or evicted."""
        return sorted(set(self.worlds) | self._evicted)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """This shard's registry snapshot with live-world counters folded in.

        Pipeline counters live on the world objects themselves (plain
        ints — the hot paths never touch a registry), so they are summed
        here at observation time.  Evicted worlds carry their counters in
        their pickles and drop out of the totals until rehydrated; the
        counters are telemetry, not durable state.
        """
        folded: Dict[str, float] = {
            "host.requests": self.requests_executed,
            "host.recovered_worlds": self.recovered_worlds,
            "host.evictions": self.evictions,
            "host.rehydrations": self.rehydrations,
        }
        sums = {
            "spatial.neighbor_queries": 0,
            "spatial.pair_queries": 0,
            "topology.full_builds": 0,
            "topology.memo_hits": 0,
            "world.writes": 0,
            "subs.tracked": 0,
        }
        for world in self.worlds.values():
            if world._tracker is not None:
                sums["subs.tracked"] += 1
            neighbor_queries, pair_queries = world.network.spatial_query_counts()
            sums["spatial.neighbor_queries"] += neighbor_queries
            sums["spatial.pair_queries"] += pair_queries
            sums["topology.full_builds"] += world.manager.topology_builds
            sums["topology.memo_hits"] += world.manager.memo_hits
            sums["world.writes"] += world.writes_applied
        folded.update(sums)
        self.metrics.gauge("host.live_worlds").set(len(self.worlds))
        self.metrics.gauge("host.evicted_worlds").set(len(self._evicted))
        return self.metrics.snapshot(extra_counters=folded)

    def close(self, *, flush: bool = True) -> None:
        """Release every hosted world's notification hooks.

        With a store and ``flush``, live worlds are checkpointed first so a
        clean shutdown restarts from checkpoints instead of log replay.
        """
        if flush and self.store is not None and not self._replaying:
            for world_id, world in self.worlds.items():
                self.store.save_checkpoint(world_id, self._checkpoint(world_id, world))
                self._checkpointed_writes[world_id] = self._write_counts.get(world_id, 0)
        for world in self.worlds.values():
            world.close()
        self.worlds.clear()
        self._evicted.clear()
