"""The asyncio front end: topology-as-a-service.

:class:`FleetServer` accepts newline-delimited JSON requests over TCP,
answers front-end ops (``ping``, ``list_worlds``, ``metrics``,
``resize``, ``shutdown``) directly, and routes every
world-addressed op to the shard owning that world (consistent hashing,
:class:`~repro.service.sharding.HashRing`).

**Batching.**  Each shard has one dispatcher task and at most one batch in
flight.  Requests arriving while a batch executes accumulate in the shard's
pending queue and are dispatched together as the next batch — coalescing
emerges from load instead of from a timer, so an idle server adds no
latency and a busy one amortizes the per-dispatch cost over many requests.
Arrival order within a shard is preserved end to end (queue → batch →
in-order execution → per-request futures), which keeps per-world request
order — the determinism contract — intact no matter how batches fall.

**Pipelining.**  A connection's requests are validated and routed to their
shard queues *synchronously* in the read loop (so per-connection arrival
order still reaches the shards intact), while the responses are written
back by per-request tasks as their futures resolve.  A client that issues
one request at a time sees exactly the old strict request–response
behaviour; a pipelining client gets concurrency from a single connection,
bounded by the per-connection in-flight cap (``max_inflight``) — beyond it
the server simply stops reading, which is TCP backpressure.

**Subscriptions.**  A ``subscribe`` request registers the connection for
server-initiated push frames carrying each epoch commit of a world as a
canonical structural diff (see :mod:`repro.service.subs`).  Shards keep
the frames in per-world bounded rings; the front end *collects* fresh
frames right after any batch that committed a push-trigger op for a
subscribed world (the collect rides the same shard queue, so it is
ordered behind the writes that produced the frames) and fans them out
through per-subscriber bounded queues — a slow subscriber's backlog is
coalesced into one merged diff, never an unbounded queue.  Deleting a
subscribed world pushes a terminal ``deleted`` frame; a resize re-collects
every subscribed world from its new owner, so sequence numbers never gap
or duplicate across migrations.

**Read cache.**  A repeat read of a world that no write has been routed
to since the read was last answered is served on the event loop from the
canonical bytes the shard produced (:mod:`repro.service.readcache`): no
queue, no batch, no pipe round trip.  Writes drop the world's entries when
they are routed; a worker restart or a resize drops them all.

**Admission control.**  Each shard's pending queue is bounded
(``max_pending``, the high watermark).  A request arriving at a saturated
queue is answered immediately with a structured ``RETRY_LATER`` error
carrying a backoff hint instead of growing the queue without bound;
shedding stays on until the queue drains below the low watermark (half the
bound).  Shed counts land in the metrics registry.

**Fault injection.**  An installed :class:`~repro.service.faults.FaultPlan`
is evaluated at three hook points — connection accept (refusal), response
write (drop / delay / duplicate), and batch dispatch (shard freeze, worker
kill) — all decided in this process so one-shot rules stay consumed across
worker restarts.  Freezes are ``asyncio.sleep``\\ s in the dispatcher,
never blocking sleeps (inline pools share this event loop).

**Shards.**  The default backend is a :class:`~repro.service.workers.
ProcessShardPool` (one long-lived worker process per shard, each owning its
worlds' reconfiguration state and memoized topologies); ``inline=True``
executes shards in-process — same semantics, no IPC — which is what the
benchmarks use to isolate the serving-layer gains and what tests use for
speed.  ``naive=True`` selects the one-request-one-rebuild baseline in
either backend.

**Live resize.**  The ``resize`` op changes the shard count without
downtime: requests for worlds that move between rings are parked, each
moving world is drained off its old shard (``migrate_out`` rides the
normal batch path, so the shard's queued work for that world completes
first), restored on its new owner (``migrate_in``), and the ring is then
swapped atomically before the parked requests replay in arrival order.
The exchange and its failure policy live in :mod:`repro.service.fleet`,
which :class:`~repro.service.replay.ShardedReplayer` drives too.  On a
durable fleet the migration itself is durable: the outbound shard purges
the world's log in the same commit, and the inbound shard logs the
adopted state.  Startup heals placement the same way — a state directory written under a different ``--shards``
has its worlds migrated to their ring-correct shards before the server
reports ready; shard files beyond the fleet are reached by a temporarily
grown runtime.  A shutdown lets an in-flight migration land and starts no
other; the next start heals whatever did not move.

**Durability.**  ``state_dir`` attaches a sqlite
:class:`~repro.service.storage.sqlite.SqliteStore` per shard (one database
file each): every applied write lands in a write-ahead log before its
response leaves the worker, the pool restarts-and-recovers workers that
die mid-batch, and on server start the fleet recovers from whatever the
directory already holds — the placement map is rebuilt by scanning the
shard databases (synchronously, in ``__init__``, before the loop runs).
``max_live_worlds`` bounds resident worlds per shard via LRU eviction to
the store.

**Shutdown.**  ``stop()`` drains instead of stranding: queued-but-
undispatched requests (and any requests parked by a resize) are failed
with a structured ``SHUTTING_DOWN`` error, dispatchers finish their
in-flight batches, and the response writers flush before connections
close — a client never waits forever on a response the server will not
send.
"""

from __future__ import annotations

import asyncio
import functools
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.obs import clock
from repro.obs.metrics import (
    COUNT_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
    summarize_snapshot,
)
from repro.service import fleet, protocol
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.readcache import SNAPSHOT_CACHE_MAX_ENTRIES, ReadCache
from repro.service.sharding import HashRing
from repro.service.storage import StoreConfig, scan_world_ids
from repro.service.subs.manager import SubscriptionManager
from repro.service.workers import InlineShardPool, ProcessShardPool
from repro.service.worlds import DEFAULT_SNAPSHOT_EVERY

#: Default per-shard pending-queue bound (the high watermark).  Deep
#: enough that a healthy fleet never sheds, shallow enough that a frozen
#: shard turns into fast ``RETRY_LATER`` errors instead of an unbounded
#: queue.
DEFAULT_MAX_PENDING = 1024

#: Default per-connection in-flight request cap for pipelining clients.
DEFAULT_MAX_INFLIGHT = 64


class FleetServer:
    """Hosts many live worlds behind a batched, sharded request front end."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 2,
        inline: bool = False,
        naive: bool = False,
        state_dir: Optional[str] = None,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        max_live_worlds: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.host = host
        self.port = port
        self.shards = shards
        self.inline = inline
        self.naive = naive
        self.max_pending = max_pending
        self.max_inflight = max_inflight
        self.store_config: Optional[StoreConfig] = None
        if state_dir is not None:
            self.store_config = StoreConfig(
                kind="sqlite",
                path=state_dir,
                snapshot_every=snapshot_every,
                max_live_worlds=max_live_worlds,
            )
        elif max_live_worlds is not None:
            raise ValueError("--max-live-worlds needs --state-dir to evict into")
        self.ring = HashRing(shards)
        self.requests_received = 0
        self.batches_dispatched = 0
        self.max_batch_size = 0
        # Front-end registry: dispatch-side latency histograms plus the
        # serving and durability counters the ``metrics`` op reports.
        self.metrics = MetricsRegistry()
        # Subscription registry: which connections watch which worlds, and
        # the machinery that pushes diff frames to them.
        self._subs = SubscriptionManager(self.metrics)
        # Repeat reads of unwritten worlds are answered from here, on the
        # event loop (see repro.service.readcache).  Naive mode is the
        # one-request-one-rebuild baseline, so it caches nothing.
        self.read_cache = ReadCache(0 if naive else SNAPSHOT_CACHE_MAX_ENTRIES)
        self._restarts_seen = 0
        self._injector: Optional[FaultInjector] = (
            FaultInjector(faults) if faults is not None else None
        )
        self._started_wall = clock.wall()
        self._pool: Optional[Any] = None
        self._server: Optional[asyncio.AbstractServer] = None
        # Each pending entry is (request, response future, enqueue wall time);
        # the timestamp feeds the queue-wait histogram at dispatch.
        self._pending: List[Deque[Tuple[Dict[str, Any], asyncio.Future, float]]] = [
            deque() for _ in range(shards)
        ]
        self._wakeups: List[asyncio.Event] = []
        self._dispatchers: List[asyncio.Task] = []
        self._shedding: List[bool] = [False] * shards
        self._busy: List[bool] = [False] * shards
        self._handlers: set = set()
        self._connections: set = set()
        self._response_tasks: Set[asyncio.Task] = set()
        # Recent per-request execute time (EWMA) — the RETRY_LATER hint's
        # basis: "queue depth × how long a request has been taking".
        self._avg_request_seconds = 0.01
        # Live resize state: while a resize runs, requests whose routing
        # would change are parked here (in arrival order) and replayed
        # after the ring swap.  ``None`` means no resize in progress.
        self._parked: Optional[List[Tuple[Dict[str, Any], asyncio.Future]]] = None
        self._park_moving: Optional[Set[str]] = None
        self._next_ring: Optional[HashRing] = None
        self._resizing = False
        # Migrations in flight; stop() lets them land (see _exchange).
        self._migrating = 0
        # Outstanding create futures — a resize drains these before it
        # computes the set of moving worlds, so no create can land on a
        # shard the swap is about to reroute.
        self._create_futures: Set[asyncio.Future] = set()
        # Placement survives restarts with the worlds themselves: scan the
        # state directory here, in the synchronous constructor, so the event
        # loop never blocks on sqlite I/O.  The scan reports where each
        # world's state *is* (its shard file), which start() reconciles
        # against the ring.
        self._worlds: Dict[str, int] = (
            scan_world_ids(state_dir, shards) if state_dir is not None else {}
        )
        self._stopping: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener, start the shard pool and the dispatchers."""
        self._stopping = asyncio.Event()
        self._wakeups = [asyncio.Event() for _ in range(self.shards)]
        # Bind before spawning the pool: a failed bind (port in use) must
        # not leave orphaned worker processes behind.
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=protocol.STREAM_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        pool_class = InlineShardPool if self.inline else ProcessShardPool
        self._pool = pool_class(
            self.shards,
            naive=self.naive,
            store_config=self.store_config,
            # Recovering an empty state directory is a no-op, so a durable
            # server always starts through the recovery path — first boot
            # and restart are the same code.
            recover=self.store_config is not None and self.store_config.durable,
        )
        self._dispatchers = [
            asyncio.create_task(self._dispatch(shard)) for shard in range(self.shards)
        ]
        if self.store_config is not None and self.store_config.durable:
            await self._heal_placement()

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request arrives, then stop cleanly."""
        assert self._stopping is not None, "start() must run first"
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting, drain in-flight work, stop the shard pool.

        An in-flight migration lands first.  Then queued-but-undispatched
        requests (and requests parked by a resize) are failed with a
        structured ``SHUTTING_DOWN`` error; in-flight batches finish and
        their responses flush before connections close.
        """
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while self._migrating:
            await asyncio.sleep(0.01)
        shed = self.metrics.counter("server.shutdown_failed_requests")
        for pending in self._pending:
            while pending:
                request, future, _ = pending.popleft()
                if not future.done():
                    future.set_result(self._shutting_down_error(request.get("id")))
                shed.inc()
        if self._parked:
            for request, future in self._parked:
                if not future.done():
                    future.set_result(self._shutting_down_error(request.get("id")))
                shed.inc()
            self._parked = []
        # Wake every dispatcher so it observes the stop and exits after
        # finishing whatever batch is in flight.
        for wakeup in self._wakeups:
            wakeup.set()
        if self._dispatchers:
            done, stragglers = await asyncio.wait(self._dispatchers, timeout=30)
            for task in stragglers:  # pragma: no cover - defensive
                task.cancel()
            if stragglers:  # pragma: no cover - defensive
                await asyncio.gather(*stragglers, return_exceptions=True)
        self._dispatchers = []
        # Every routed future is resolved now; let the writers flush.
        if self._response_tasks:
            await asyncio.gather(*list(self._response_tasks), return_exceptions=True)
        await self._subs.shutdown()
        # Unblock handlers parked in readline: closing the transports makes
        # their reads return EOF, so the gather below terminates.
        for writer in list(self._connections):
            writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    @staticmethod
    def _shutting_down_error(request_id: Any) -> Dict[str, Any]:
        return protocol.error_response(
            request_id, "server is shutting down", code=protocol.SHUTTING_DOWN
        )

    # ------------------------------------------------------------------ #
    # Startup placement healing
    # ------------------------------------------------------------------ #
    async def _heal_placement(self) -> None:
        """Migrate worlds whose stored shard is not their ring shard.

        Runs once at startup: a state directory written under a different
        shard count (or interrupted mid-resize) has worlds in the wrong
        files, including files *beyond* the current fleet, which the
        runtime grows over for the heal and shrinks off afterwards.
        """
        plan = fleet.misplaced(self._worlds.items(), self.ring)
        if not plan:
            return
        reach = max(shard for _, shard in plan) + 1
        if reach > self.shards:
            await self._grow_runtime(reach)
        healed = await self._migrate_all(plan, self.ring)
        self.metrics.counter("server.placement_healed").inc(healed)
        if reach > self.shards:
            await self._shrink_runtime(self.shards)

    async def _migrate_all(self, plan: List[Tuple[str, int]], ring: HashRing) -> int:
        """Move each planned ``(world, shard)`` to its ``ring`` shard;
        return how many landed.  None starts once the server is stopping."""
        moved = 0
        for world, source in plan:
            if self._stopping.is_set():
                break
            target = ring.shard_of(world)
            if await self._exchange(fleet.migrate(world, source, target)):
                self._worlds[world] = target
                moved += 1
        return moved

    async def _exchange(self, exchange: fleet.Exchange) -> Any:
        """Drive a fleet exchange through the shard queues.  Its steps skip
        the stop gate: a started migration must land, and stop() waits."""
        self._migrating += 1
        response = None
        try:
            while True:
                shard, request = exchange.send(response)
                response = await self._enqueue(shard, request)
        except StopIteration as done:
            return done.value
        finally:
            self._migrating -= 1

    # ------------------------------------------------------------------ #
    # Dispatch (one batch in flight per shard)
    # ------------------------------------------------------------------ #
    async def _dispatch(self, shard: int) -> None:
        pending = self._pending[shard]
        wakeup = self._wakeups[shard]
        while True:
            await wakeup.wait()
            wakeup.clear()
            while pending:
                batch = list(pending)
                pending.clear()
                requests = [request for request, _, _ in batch]
                futures = [future for _, future, _ in batch]
                self.batches_dispatched += 1
                self.max_batch_size = max(self.max_batch_size, len(requests))
                now = clock.wall()
                queue_wait = self.metrics.histogram("server.queue_wait_seconds")
                for _, _, enqueued in batch:
                    queue_wait.observe(now - enqueued)
                self.metrics.histogram("server.batch_size", COUNT_BUCKETS).observe(
                    len(requests)
                )
                self.metrics.counter("server.requests").inc(len(requests))
                self.metrics.counter(f"server.shard.{shard}.requests").inc(len(requests))
                if self._injector is not None:
                    kill = False
                    freeze = 0.0
                    for _ in requests:
                        killed, frozen = self._injector.on_shard_request(shard)
                        kill = kill or killed
                        freeze += frozen
                    if freeze > 0.0:
                        self.metrics.counter("server.faults.shard_freezes").inc()
                        await asyncio.sleep(freeze)
                    if kill:
                        self.metrics.counter("server.faults.workers_killed").inc()
                        self._pool.kill_worker(shard)
                        # Reads routed while the doomed batch runs must
                        # reach the shard, not the worlds it is losing.
                        self.read_cache.clear()
                # While a process shard executes, the event loop keeps
                # reading other connections — that concurrency is what lets
                # the next batch coalesce while this one executes.
                self._busy[shard] = True
                try:
                    responses = await self._pool.dispatch(shard, requests)
                finally:
                    self._busy[shard] = False
                if self._pool.worker_restarts != self._restarts_seen:
                    # A restarted worker may have lost its worlds (no
                    # durable store): nothing cached before it may answer.
                    self._restarts_seen = self._pool.worker_restarts
                    self.read_cache.clear()
                elapsed = clock.wall() - now
                self.metrics.histogram("server.execute_seconds").observe(elapsed)
                self._avg_request_seconds = (
                    0.8 * self._avg_request_seconds + 0.2 * elapsed / max(1, len(requests))
                )
                for future, response in zip(futures, responses):
                    if not future.done():
                        future.set_result(response)
                self._maybe_collect(shard, requests, responses)
            if self._stopping is not None and self._stopping.is_set() and not self._migrating:
                return

    def _resolved(self, response: Any) -> asyncio.Future:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        future.set_result(response)
        return future

    def _enqueue(self, shard: int, request: Dict[str, Any]) -> asyncio.Future:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[shard].append((request, future, clock.wall()))
        self._wakeups[shard].set()
        return future

    def _enqueue_or_fail(self, shard: int, request: Dict[str, Any]) -> asyncio.Future:
        if self._stopping is not None and self._stopping.is_set():
            return self._resolved(self._shutting_down_error(request.get("id")))
        return self._enqueue(shard, request)

    # ------------------------------------------------------------------ #
    # Subscriptions (front-end side; see repro.service.subs)
    # ------------------------------------------------------------------ #
    def _maybe_collect(self, shard: int, requests: List[Dict[str, Any]], responses: List[Dict[str, Any]]) -> None:
        """After a batch lands, pull fresh frames for its subscribed worlds.

        The collect request is enqueued on the same shard the batch ran on,
        so it executes *after* the writes that produced the frames and
        *before* any later write — frame delivery order follows commit
        order with no extra synchronization.
        """
        if self._subs.active_count == 0:
            return
        worlds = fleet.committed(requests, responses, self._subs.is_subscribed)
        if not worlds:
            return
        cursors = {world: self._subs.cursor(world) for world in worlds}
        future = self._enqueue_or_fail(shard, fleet.collect(shard, cursors))
        future.add_done_callback(self._subs.on_collect_response)

    def _collect_subscribed(self) -> None:
        """Pull frames for every subscribed world under the current ring.

        A resize calls this right after the ring swap: frames committed on
        the old owner whose collect never ran ride the migrated tracker
        (it travels with the world), and this sweep fetches them from the
        new owner — no gap, and the per-subscriber dedup absorbs any
        overlap with a collect that was already in flight.
        """
        cursors = {
            world: self._subs.cursor(world)
            for world in self._subs.subscribed_worlds()
            if world in self._worlds
        }
        for shard, request in fleet.collect_all(self.ring, cursors):
            future = self._enqueue_or_fail(shard, request)
            future.add_done_callback(self._subs.on_collect_response)

    async def _finish_subscribe(
        self, sub: Any, inner: "asyncio.Future"
    ) -> Dict[str, Any]:
        """Await the shard's ``sub_track`` answer, then activate the handle."""
        response = await inner
        if not response.get("ok"):
            self._subs.discard(sub)
            return response
        self._subs.activate(sub, response["result"]["seq"])
        return response

    def _should_park(self, world: str) -> bool:
        """Whether a request for ``world`` must wait out the resize."""
        if self._park_moving is not None and world in self._park_moving:
            return True
        if world not in self._worlds and self._next_ring is not None:
            # Unknown world (a create racing the resize): park it exactly
            # when the two rings disagree on its placement — otherwise the
            # routing is identical under both and it can proceed.
            return self._next_ring.shard_of(world) != self.ring.shard_of(world)
        return False

    def _route(self, request: Dict[str, Any]) -> asyncio.Future:
        """Route one world-addressed request to its shard queue.

        Synchronous — the connection read loop calls it inline, which is
        what preserves per-connection (and so per-world) arrival order.
        Admission control happens here: a saturated shard answers with
        ``RETRY_LATER`` immediately instead of queueing.
        """
        request_id = request.get("id")
        if self._stopping is not None and self._stopping.is_set():
            return self._resolved(self._shutting_down_error(request_id))
        world = request["world"]
        if self._parked is not None and self._should_park(world):
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._parked.append((request, future))
            self.metrics.counter("server.resize.parked_requests").inc()
            return future
        op = request["op"]
        cached = self.read_cache.route(request)
        if isinstance(cached, bytes):
            return self._resolved(protocol.ok_line(request_id, cached))
        shard = self.ring.shard_of(world)
        pending = self._pending[shard]
        if self._shedding[shard] and len(pending) <= self.max_pending // 2:
            self._shedding[shard] = False
        if not self._shedding[shard] and len(pending) >= self.max_pending:
            self._shedding[shard] = True
        if self._shedding[shard]:
            self.metrics.counter("server.load_shed").inc()
            self.metrics.counter(f"server.shard.{shard}.load_shed").inc()
            hint = min(2.0, max(0.05, (len(pending) + 1) * self._avg_request_seconds))
            shed = protocol.error_response(
                request_id,
                f"shard {shard} queue is saturated ({len(pending)} pending)",
                code=protocol.RETRY_LATER,
                retry_after=round(hint, 4),
            )
            if cached is not None:
                self.read_cache.fill(cached, shed)  # drops a table the miss opened
            return self._resolved(shed)
        future = self._enqueue(shard, request)
        if cached is not None:
            return self.read_cache.watch(cached, request_id, future)
        # Placement is maintained here, at routing time, with the routed
        # shard captured — a resize computes its moving set from this map,
        # so a create must be visible the moment it is queued, not when its
        # response happens to be written.  The done-callback settles the
        # optimistic entry against the actual outcome.
        if op == protocol.CREATE_WORLD:
            was_absent = world not in self._worlds
            if was_absent:
                self._worlds[world] = shard
            future.add_done_callback(
                functools.partial(self._finish_create, world, shard, was_absent)
            )
        elif op == protocol.DELETE_WORLD:
            future.add_done_callback(functools.partial(self._finish_delete, world))
        return future

    @staticmethod
    def _future_response(done: asyncio.Future) -> Optional[Dict[str, Any]]:
        if done.cancelled() or done.exception() is not None:
            return None
        return done.result()

    def _finish_create(
        self, world: str, shard: int, was_absent: bool, done: asyncio.Future
    ) -> None:
        response = self._future_response(done)
        if response is not None and response.get("ok"):
            self._worlds[world] = shard
        elif was_absent and self._worlds.get(world) == shard:
            # The optimistic entry was ours and the create failed: undo it.
            # (A migration changes the mapped shard, so a resize that moved
            # the world meanwhile is never clobbered.)
            del self._worlds[world]

    def _finish_delete(self, world: str, done: asyncio.Future) -> None:
        response = self._future_response(done)
        if response is not None and response.get("ok"):
            self._worlds.pop(world, None)
            # Terminal frame is synthesized front-end side: the shard no
            # longer hosts the world, but the subscribers deserve a clean
            # end-of-stream marker rather than silence.
            self._subs.world_deleted(world)

    @staticmethod
    def _chain(inner: asyncio.Future, outer: asyncio.Future) -> None:
        """Propagate ``inner``'s response into ``outer`` (parked replay)."""

        def _copy(done: asyncio.Future) -> None:
            if outer.done():
                return
            if done.cancelled():
                outer.cancel()
            elif done.exception() is not None:  # pragma: no cover - defensive
                outer.set_exception(done.exception())
            else:
                outer.set_result(done.result())

        if inner.done():
            _copy(inner)
        else:
            inner.add_done_callback(_copy)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            if self._injector is not None and self._injector.on_connection():
                self.metrics.counter("server.faults.connections_refused").inc()
                return
            self._connections.add(writer)
            write_lock = asyncio.Lock()
            inflight: Set[asyncio.Task] = set()
            while not self._stopping.is_set():
                # Plain readline keeps the per-request hot path to one
                # awaitable; stop() unblocks it by closing the transport
                # (readline then returns EOF).
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = protocol.decode_message(line)
                except ValueError as error:
                    async with write_lock:
                        writer.write(protocol.encode_message(
                            protocol.error_response(None, f"malformed request: {error}")
                        ))
                        await writer.drain()
                    continue
                future = self._begin_request(request, writer=writer, write_lock=write_lock)
                responder = asyncio.create_task(
                    self._respond(writer, write_lock, future)
                )
                inflight.add(responder)
                self._response_tasks.add(responder)
                responder.add_done_callback(inflight.discard)
                responder.add_done_callback(self._response_tasks.discard)
                # The per-connection in-flight cap: past it the server
                # stops reading this connection until responses drain —
                # backpressure through the socket, not through memory.
                while len(inflight) >= self.max_inflight and not self._stopping.is_set():
                    await asyncio.wait(
                        list(inflight),  # detlint: ignore[det-set-iteration] -- wait-any over tasks; completion order is scheduler-driven either way and responses serialize under write_lock
                        return_when=asyncio.FIRST_COMPLETED,
                    )
            # Flush this connection's outstanding responses before the
            # transport closes under them.
            if inflight:
                await asyncio.gather(
                    *list(inflight),  # detlint: ignore[det-set-iteration] -- await-all barrier; responses serialize under write_lock, so gather order is immaterial
                    return_exceptions=True,
                )
        finally:
            if task is not None:
                self._handlers.discard(task)
            self._connections.discard(writer)
            self._subs.drop_connection(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown races
                pass

    def _begin_request(
        self,
        request: Dict[str, Any],
        *,
        writer: Optional[asyncio.StreamWriter] = None,
        write_lock: Optional[asyncio.Lock] = None,
    ) -> "asyncio.Future":
        """Validate + route one request; returns its future response.

        Synchronous up to the shard queues (ordering), async beyond them.
        ``writer``/``write_lock`` identify the connection for the ops that
        bind state to it (``subscribe``/``unsubscribe``).
        """
        request_id = request.get("id")
        problem = protocol.envelope_problem(request)
        if problem is not None:
            message, code = problem
            return self._resolved(
                protocol.error_response(request_id, message, code=code)
            )
        op = request["op"]
        if op in protocol.INTERNAL_OPS:
            return self._resolved(
                protocol.error_response(
                    request_id, f"op {op!r} is internal to the fleet"
                )
            )
        self.requests_received += 1
        if op == protocol.METRICS:
            return asyncio.ensure_future(self._serve_metrics(request_id))
        if op == protocol.RESIZE:
            return asyncio.ensure_future(
                self._serve_resize(request_id, request.get("params", {}))
            )
        if op in protocol.FRONTEND_OPS:
            return self._resolved(self._serve_frontend(op, request_id))
        if op == protocol.SUBSCRIBE:
            if writer is None or write_lock is None:
                return self._resolved(
                    protocol.error_response(
                        request_id, "subscribe requires a live connection"
                    )
                )
            # Register before routing: the handle exists (buffering early
            # frames) before the shard can possibly commit anything past
            # the sequence number the subscribe response will carry.
            sub = self._subs.register(request["world"], writer, write_lock)
            inner = self._route(
                {
                    "id": request_id,
                    "op": protocol.SUB_TRACK,
                    "world": request["world"],
                    "params": dict(request.get("params", {})),
                }
            )
            return asyncio.ensure_future(self._finish_subscribe(sub, inner))
        if op == protocol.UNSUBSCRIBE:
            removed = writer is not None and self._subs.unsubscribe(
                request["world"], writer
            )
            return self._resolved(
                protocol.ok_response(
                    request_id,
                    {"world": request["world"], "unsubscribed": bool(removed)},
                )
            )
        future = self._route(request)
        if request["op"] == protocol.CREATE_WORLD:
            self._create_futures.add(future)
            future.add_done_callback(self._create_futures.discard)
        return future

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        future: "asyncio.Future",
    ) -> None:
        response = await future
        if self._injector is not None:
            fault = self._injector.on_response()
            if fault.delay > 0.0:
                self.metrics.counter("server.faults.responses_delayed").inc()
                await asyncio.sleep(fault.delay)
            if fault.drop:
                self.metrics.counter("server.faults.responses_dropped").inc()
                return
            duplicate = fault.duplicate
        else:
            duplicate = False
        async with write_lock:
            if writer.is_closing():
                return
            # A read arrives as its finished line (see ReadCache.watch).
            payload = response if isinstance(response, bytes) else protocol.encode_message(response)
            writer.write(payload)
            if duplicate:
                self.metrics.counter("server.faults.responses_duplicated").inc()
                writer.write(payload)
            try:
                await writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover - client went away
                pass

    def _serve_frontend(self, op: str, request_id: Any) -> Dict[str, Any]:
        if op == protocol.PING:
            return protocol.ok_response(request_id, {"pong": True, "shards": self.shards})
        if op == protocol.LIST_WORLDS:
            return protocol.ok_response(
                request_id,
                {"worlds": {world: shard for world, shard in sorted(self._worlds.items())}},
            )
        # SHUTDOWN: acknowledge first; serve_until_shutdown tears down after
        # this response has been written back to the requester.
        self._stopping.set()
        return protocol.ok_response(request_id, {"stopping": True})

    async def _serve_metrics(self, request_id: Any) -> Dict[str, Any]:
        """The ``metrics`` op: fan ``shard_metrics`` to every shard, merge.

        The probes ride the normal batching path (same queues, same
        dispatchers) so ordering guarantees hold; the ``world`` field is
        synthetic because the op is shard-addressed, not world-addressed.
        """
        futures = [
            self._enqueue_or_fail(
                shard,
                {"op": protocol.SHARD_METRICS, "world": f"@shard:{shard}", "id": None},
            )
            for shard in range(self.shards)
        ]
        responses = await asyncio.gather(*futures)
        shard_snapshots: List[Optional[Dict[str, Any]]] = [
            response.get("result") if response.get("ok") else None
            for response in responses
        ]
        frontend = self._frontend_snapshot()
        merged = merge_snapshots([frontend] + [s for s in shard_snapshots if s])
        return protocol.ok_response(
            request_id,
            {
                "shards": [
                    summarize_snapshot(s) if s is not None else None
                    for s in shard_snapshots
                ],
                "frontend": summarize_snapshot(frontend),
                "merged": summarize_snapshot(merged),
            },
        )

    # ------------------------------------------------------------------ #
    # Live resize
    # ------------------------------------------------------------------ #
    async def _serve_resize(self, request_id: Any, params: Dict[str, Any]) -> Dict[str, Any]:
        """Change the shard count without downtime (the ``resize`` op)."""
        new_shards = params.get("shards")
        if isinstance(new_shards, bool) or not isinstance(new_shards, int) or new_shards < 1:
            return protocol.error_response(request_id, "'shards' must be a positive integer")
        if self._resizing:
            return protocol.error_response(
                request_id,
                "a resize is already in progress",
                code=protocol.RETRY_LATER,
                retry_after=0.5,
            )
        if new_shards == self.shards:
            return protocol.ok_response(
                request_id, {"shards": self.shards, "moved": 0, "parked": 0}
            )
        self._resizing = True
        self.metrics.counter("server.resizes").inc()
        old_shards = self.shards
        new_ring = HashRing(new_shards)
        try:
            # Phase 0: raise the park gate, then drain outstanding creates
            # so the moving set below is complete.
            self._next_ring = new_ring
            self._parked = []
            if self._create_futures:
                await asyncio.gather(*list(self._create_futures), return_exceptions=True)
            plan = fleet.misplaced(self._worlds.items(), new_ring)
            self._park_moving = {world for world, _ in plan}
            # Phase 1: grow the runtime first so target shards exist.
            if new_shards > old_shards:
                await self._grow_runtime(new_shards)
            # Phase 2: migrate each moving world.
            moved = await self._migrate_all(plan, new_ring)
            self.metrics.counter("server.migrations").inc(moved)
            # Phase 3: the swap.  No awaits between these statements — the
            # ring, the shard count, and the gate change atomically as far
            # as the event loop is concerned.
            self.ring = new_ring
            self.shards = new_shards
            self.read_cache.clear()
            parked = self._parked or []
            self._parked = None
            self._park_moving = None
            self._next_ring = None
            for request, future in parked:
                self._chain(self._route(request), future)
            # Frames committed on old owners whose collect never ran ride
            # the migrated trackers; sweep every subscribed world under the
            # new ring so subscribers see them (dedup absorbs overlap).
            self._collect_subscribed()
            # Phase 4: shrink the runtime after the swap (the dying shards
            # hold no worlds now, unless a shutdown cut the migrations
            # short; their queues drain before teardown).
            if new_shards < old_shards:
                await self._shrink_runtime(new_shards)
            return protocol.ok_response(
                request_id,
                {"shards": new_shards, "moved": moved, "parked": len(parked)},
            )
        finally:
            self._resizing = False
            if self._parked is not None:
                # Error path: drop the gate and replay under whatever ring
                # is current so parked clients never hang.
                parked = self._parked
                self._parked = None
                self._park_moving = None
                self._next_ring = None
                self.read_cache.clear()
                for request, future in parked:
                    self._chain(self._route(request), future)

    async def _grow_runtime(self, new_shards: int) -> None:
        recover = self.store_config is not None and self.store_config.durable
        if self._pool.runs_in_loop:
            self._pool.grow(new_shards, recover=recover)
        else:
            await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(self._pool.grow, new_shards, recover=recover)
            )
        for shard in range(len(self._pending), new_shards):
            self._pending.append(deque())
            self._wakeups.append(asyncio.Event())
            self._shedding.append(False)
            self._busy.append(False)
            self._dispatchers.append(asyncio.create_task(self._dispatch(shard)))

    async def _shrink_runtime(self, new_shards: int) -> None:
        # Drain the dying shards (queued metrics probes, stragglers), then
        # retire their dispatchers and workers.
        for shard in range(new_shards, len(self._pending)):
            while self._pending[shard] or self._busy[shard]:
                self._wakeups[shard].set()
                await asyncio.sleep(0.01)
        dying = self._dispatchers[new_shards:]
        for task in dying:
            task.cancel()
        if dying:
            await asyncio.gather(*dying, return_exceptions=True)
        del self._dispatchers[new_shards:]
        del self._pending[new_shards:]
        del self._wakeups[new_shards:]
        del self._shedding[new_shards:]
        del self._busy[new_shards:]
        if self._pool.runs_in_loop:
            self._pool.shrink(new_shards)
        else:
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.shrink, new_shards
            )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _frontend_snapshot(self) -> Dict[str, Any]:
        """The front end's own registry snapshot, durability gauges refreshed."""
        self._refresh_durability_metrics()
        self.metrics.gauge("server.uptime_seconds").set(
            clock.wall() - self._started_wall
        )
        self.metrics.gauge("server.worlds").set(len(self._worlds))
        self.metrics.gauge("subs.active").set(self._subs.active_count)
        self.metrics.gauge("server.read_cache.entries").set(self.read_cache.entries)
        return self.metrics.snapshot(
            extra_counters={
                "server.requests_received": self.requests_received,
                "server.read_cache.hits": self.read_cache.hits,
                "server.read_cache.misses": self.read_cache.misses,
            }
        )

    def _refresh_durability_metrics(self) -> None:
        """Fold the pool's durability counters into the registry.

        Only a server with a store registers them, so their presence in a
        snapshot is what tells a reader the fleet is durable.
        """
        if self._pool is not None and self.store_config is not None:
            self.metrics.gauge("service.worker_restarts").set(self._pool.worker_restarts)
            self.metrics.gauge("service.recovered_worlds").set(self._pool.recovered_worlds())


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 7421,
    shards: int = 2,
    inline: bool = False,
    naive: bool = False,
    state_dir: Optional[str] = None,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    max_live_worlds: Optional[int] = None,
    faults_path: Optional[str] = None,
    max_pending: int = DEFAULT_MAX_PENDING,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
) -> int:
    """Run a fleet server until a ``shutdown`` request arrives (CLI entry)."""
    faults = FaultPlan.load(faults_path) if faults_path is not None else None

    async def _main() -> int:
        server = FleetServer(
            host=host,
            port=port,
            shards=shards,
            inline=inline,
            naive=naive,
            state_dir=state_dir,
            snapshot_every=snapshot_every,
            max_live_worlds=max_live_worlds,
            faults=faults,
            max_pending=max_pending,
            max_inflight=max_inflight,
        )
        await server.start()
        mode = "inline shards" if inline else f"{shards} worker processes"
        if state_dir is not None:
            recovered = server._pool.recovered_worlds() if server._pool is not None else 0
            mode += f", durable state in {state_dir} ({recovered} worlds recovered)"
        if faults is not None:
            mode += f", fault plan with {len(faults.rules)} rules"
        print(f"fleet server listening on {server.host}:{server.port} ({mode})", flush=True)
        await server.serve_until_shutdown()
        print(
            f"fleet server: clean shutdown "
            f"({server.requests_received} requests, {server.batches_dispatched} batches, "
            f"max batch {server.max_batch_size})",
            flush=True,
        )
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 130
