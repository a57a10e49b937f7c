"""Request-trace replay: the service layer's determinism harness.

A request *trace* is a list of protocol request dictionaries in arrival
order.  The fleet's correctness contract is that the final state of every
world is a pure function of the **per-world subsequence** of the trace —
independent of sharding, batching, worker scheduling, or transport.  This
module provides the two reference executions the battery (and the CI smoke
job) compare:

* :func:`replay_serial` — one :class:`~repro.service.worlds.WorldHost`
  executes the whole trace in order: the obviously correct baseline.
* :func:`replay_sharded` — the trace is routed through the same
  consistent-hash ring the server uses, then each shard's queue is consumed
  in seeded-random interleaved batches of seeded-random sizes, every
  request passing the server's :class:`~repro.service.readcache.ReadCache`
  on its way to the shard.  Any such schedule preserves per-world order
  (worlds never migrate between shards), so the resulting snapshots must be
  byte-identical to the serial ones — the hypothesis battery samples
  schedules adversarially.

Both return ``{world_id: canonical snapshot JSON string}`` so comparisons
are literal string equality on :func:`repro.io.results.results_to_json`
output, the repo-wide byte-identity notion.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.io.results import results_to_json
from repro.service import fleet, protocol
from repro.service.readcache import SNAPSHOT_CACHE_MAX_ENTRIES, Miss, ReadCache
from repro.service.sharding import HashRing
from repro.service.storage.base import WorldStore
from repro.service.subs.mirror import WorldMirror
from repro.service.worlds import DEFAULT_SNAPSHOT_EVERY, WorldHost
from repro.sim.randomness import SeededRandom


def snapshot_request(world_id: str) -> Dict[str, Any]:
    """The canonical parameterless snapshot request for ``world_id``."""
    return {"id": None, "op": protocol.SNAPSHOT, "world": world_id, "params": {}}


def collect_snapshots(host: WorldHost) -> Dict[str, str]:
    """Final canonical snapshots of every world hosted by ``host``.

    ``world_ids()`` covers evicted worlds too — snapshotting rehydrates
    them, which is exactly the transparency the eviction tests assert.
    """
    snapshots: Dict[str, str] = {}
    for world_id in host.world_ids():
        response = host.execute(snapshot_request(world_id))
        if not response.get("ok"):  # pragma: no cover - snapshots cannot fail
            raise RuntimeError(f"snapshot of {world_id!r} failed: {response.get('error')}")
        snapshots[world_id] = results_to_json(response["result"])
    return snapshots


def replay_serial(trace: List[Dict[str, Any]], *, naive: bool = False) -> Dict[str, str]:
    """Execute the whole trace on one host, in order; return final snapshots."""
    host = WorldHost(naive=naive)
    try:
        for request in trace:
            host.execute(request)
        return collect_snapshots(host)
    finally:
        host.close()


class ShardedReplayer:
    """Sharded trace execution with explicit phases.

    The benchmarks need to execute a trace in parts — an untimed world
    bootstrap, then a timed steady-state workload — against the *same*
    shard hosts, so the replayer keeps its hosts alive across
    :meth:`execute` calls and hands out snapshots on demand.

    With a ``store_factory`` (``shard -> WorldStore``) each host runs
    durably, and :meth:`crash` models a worker death between batches: the
    shard's host is *abandoned* — no flush, no close, exactly what a killed
    process leaves behind — and a fresh host recovers from the shard's
    store.  The kill-and-recover battery interleaves ``execute`` segments
    with ``crash`` calls at hypothesis-chosen points and requires the final
    snapshots to match :func:`replay_serial` byte for byte.

    Reads pass the same :class:`~repro.service.readcache.ReadCache` the
    server front end uses (capacity 0 when ``naive``): a hit never reaches
    the host, a miss fills from the host's response, and :meth:`crash` and
    :meth:`resize` clear it as a worker restart or a ring change does.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        naive: bool = False,
        store_factory: Optional[Callable[[int], WorldStore]] = None,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        max_live_worlds: Optional[int] = None,
    ) -> None:
        self.ring = HashRing(shards)
        self.naive = naive
        self.snapshot_every = snapshot_every
        self.max_live_worlds = max_live_worlds
        self._store_factory = store_factory
        self._stores = [
            store_factory(shard) if store_factory is not None else None for shard in range(shards)
        ]
        self.hosts = [self._build_host(shard) for shard in range(shards)]
        self.read_cache = ReadCache(0 if naive else SNAPSHOT_CACHE_MAX_ENTRIES)
        #: In-process subscription mirrors (see :meth:`attach_mirror`).
        self.mirrors: Dict[str, WorldMirror] = {}

    def _build_host(self, shard: int) -> WorldHost:
        return WorldHost(
            naive=self.naive,
            store=self._stores[shard],
            snapshot_every=self.snapshot_every,
            max_live_worlds=self.max_live_worlds,
        )

    def crash(self, shard: int, *, use_checkpoints: bool = True) -> int:
        """Abandon ``shard``'s host and recover a replacement from its store.

        Returns the number of worlds recovered.  ``use_checkpoints=False``
        forces full-log replay, proving checkpoints are an optimization
        with no observable effect.
        """
        if self._stores[shard] is None:
            raise ValueError("crash() needs a store_factory to recover from")
        # No close(), no flush: a killed worker's in-memory state simply
        # vanishes, and only what commit_batch persisted survives.
        self.hosts[shard] = self._build_host(shard)
        self.read_cache.clear()
        return self.hosts[shard].recover(use_checkpoints=use_checkpoints)

    def resize(self, new_shards: int) -> int:
        """Change the shard count, migrating moved worlds between hosts.

        The in-process twin of the server's live ``resize``: every world
        whose ring assignment changes is drained off its current host
        (``migrate_out`` — serializing it and purging its durable history)
        and adopted by its new owner (``migrate_in``), through the same
        :func:`repro.service.fleet.migrate` exchange the server drives.
        Shrinking closes the dying hosts only after their worlds have
        moved.  Returns the number of worlds migrated.  The battery
        interleaves ``resize`` with ``execute`` and ``crash`` segments and
        requires final snapshots byte-identical to :func:`replay_serial`
        of the same trace.
        """
        if new_shards < 1:
            raise ValueError("a replayer needs at least one shard")
        old_shards = len(self.hosts)
        new_ring = HashRing(new_shards)
        for shard in range(old_shards, new_shards):
            self._stores.append(
                self._store_factory(shard) if self._store_factory is not None else None
            )
            host = self._build_host(shard)
            if self._stores[shard] is not None:
                host.recover()
            self.hosts.append(host)
        placement = [
            (world_id, shard)
            for shard, host in enumerate(self.hosts[:old_shards])
            for world_id in host.world_ids()
        ]
        moved = 0
        for world_id, source in fleet.misplaced(placement, new_ring):
            exchange = fleet.migrate(world_id, source, new_ring.shard_of(world_id))
            if fleet.run(exchange, self._execute_on):
                moved += 1
        for shard in range(new_shards, old_shards):
            self.hosts[shard].close()
            if self._stores[shard] is not None:
                self._stores[shard].close()
        del self.hosts[new_shards:]
        del self._stores[new_shards:]
        self.ring = new_ring
        self.read_cache.clear()
        # Trackers ride the migration; fetch anything committed on the old
        # owner that no per-batch collect picked up before the move.
        self.collect_all_frames()
        return moved

    def execute(
        self,
        trace: List[Dict[str, Any]],
        *,
        schedule_seed: int = 0,
        max_batch: int = 8,
    ) -> int:
        """Replay ``trace`` under a seeded random batch schedule.

        ``schedule_seed`` drives which shard dispatches next and how large
        each batch is — the degrees of freedom the real server's
        load-dependent batching exercises.  Per-shard queues are strictly
        FIFO, exactly like the server's pending queues.  Returns the number
        of requests routed to a shard, read-cache hits included.
        """
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        queues: List[deque] = [deque() for _ in self.hosts]
        routed = 0
        for request in trace:
            world = request.get("world")
            if isinstance(world, str) and world:
                queues[self.ring.shard_of(world)].append(request)
                routed += 1
            # Front-end/malformed requests never reach a shard; they cannot
            # affect world state, so replay ignores them.
        rng = SeededRandom(schedule_seed)
        while True:
            nonempty = [shard for shard, queue in enumerate(queues) if queue]
            if not nonempty:
                return routed
            shard = rng.choice(nonempty)
            size = rng.randint(1, min(max_batch, len(queues[shard])))
            self._dispatch(shard, [queues[shard].popleft() for _ in range(size)])

    def _dispatch(self, shard: int, batch: List[Dict[str, Any]]) -> None:
        """Route one dequeued batch through the read cache, run the rest.

        Routing at dequeue time is a valid server schedule: a world lives
        on one shard, its queue is FIFO and one batch is in flight, so the
        whole batch is routed before any of its responses lands, exactly as
        on the server.
        """
        sent: List[Dict[str, Any]] = []
        misses: List[Optional[Miss]] = []
        for request in batch:
            # A malformed envelope never reaches the server's router; the
            # host answers it with the same error.
            routed = None if protocol.envelope_problem(request) else self.read_cache.route(request)
            if not isinstance(routed, bytes):
                sent.append(request)
                misses.append(routed)
        if not sent:
            return
        responses = self.hosts[shard].execute_batch(sent)
        for miss, response in zip(misses, responses):
            if miss is not None:
                self.read_cache.fill(miss, response)
        self._collect_frames(shard, sent, responses)

    def _execute_on(self, shard: int, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.hosts[shard].execute(request)

    def attach_mirror(self, world_id: str) -> WorldMirror:
        """Subscribe in-process: track the world and mirror its stream.

        The engine-level twin of the server front end's subscription path:
        a ``sub_track`` rides the world's shard (idempotent if the trace
        already subscribed), the response seeds a
        :class:`~repro.service.subs.mirror.WorldMirror`, and every
        subsequent :meth:`execute` batch that commits a push-trigger op
        collects the fresh diff frames and applies them — so the battery
        can require the mirror to be byte-identical to a fresh snapshot at
        every sequence point, under any batch schedule.
        """
        shard = self.ring.shard_of(world_id)
        response = self.hosts[shard].execute(
            {"id": None, "op": protocol.SUB_TRACK, "world": world_id, "params": {}}
        )
        if not response.get("ok"):
            raise RuntimeError(
                f"sub_track of {world_id!r} failed: {response.get('error')}"
            )
        result = response["result"]
        mirror = WorldMirror(world_id)
        mirror.seed(result["seq"], result["snapshot"])
        self.mirrors[world_id] = mirror
        return mirror

    def _collect_frames(
        self,
        shard: int,
        batch: List[Dict[str, Any]],
        responses: List[Dict[str, Any]],
    ) -> None:
        """Mirror maintenance after a batch, as the server front end does."""
        if not self.mirrors:
            return
        worlds = fleet.committed(batch, responses, self.mirrors.__contains__)
        if worlds:
            self._apply_frames(shard, fleet.collect(shard, self._cursors(worlds)))

    def collect_all_frames(self) -> None:
        """Collect outstanding frames for every mirrored world.

        Called after :meth:`resize` (migrated trackers may hold frames no
        per-batch collect has fetched yet) or at a comparison point.
        """
        live = [world for world, mirror in self.mirrors.items() if not mirror.deleted]
        for shard, request in fleet.collect_all(self.ring, self._cursors(live)):
            self._apply_frames(shard, request)

    def _cursors(self, worlds: List[str]) -> Dict[str, int]:
        """Each mirror's collect cursor (-1 before it has seen a frame)."""
        return {
            world: -1 if self.mirrors[world].seq is None else self.mirrors[world].seq
            for world in worlds
        }

    def _apply_frames(self, shard: int, request: Dict[str, Any]) -> None:
        collected = self._execute_on(shard, request)
        if collected.get("ok"):
            for frame in collected["result"]["frames"]:
                self.mirrors[frame["world"]].apply(frame)

    def mirror_snapshots(self) -> Dict[str, str]:
        """Canonical JSON of each live mirror's reconstructed snapshot."""
        return {
            world: results_to_json(mirror.snapshot)
            for world, mirror in sorted(self.mirrors.items())
            if mirror.snapshot is not None and not mirror.deleted
        }

    def snapshots(self) -> Dict[str, str]:
        """Final canonical snapshots across every shard, sorted by world."""
        snapshots: Dict[str, str] = {}
        for host in self.hosts:
            snapshots.update(collect_snapshots(host))
        return dict(sorted(snapshots.items()))

    def close(self) -> None:
        """Release every shard host (and its store, where attached)."""
        for host in self.hosts:
            host.close()
        for store in self._stores:
            if store is not None:
                store.close()


def replay_sharded(
    trace: List[Dict[str, Any]],
    *,
    shards: int = 2,
    schedule_seed: int = 0,
    max_batch: int = 8,
) -> Dict[str, str]:
    """One-shot sharded replay: execute the whole trace, return snapshots."""
    replayer = ShardedReplayer(shards)
    try:
        replayer.execute(trace, schedule_seed=schedule_seed, max_batch=max_batch)
        return replayer.snapshots()
    finally:
        replayer.close()
