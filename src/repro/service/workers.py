"""Shard execution backends: in-process and multiprocessing.

Both backends expose the same interface the front end's dispatchers drive::

    responses = await pool.dispatch(shard, [request, ...])   # in order
    pool.close()

:class:`InlineShardPool` runs every shard's :class:`~repro.service.worlds.
WorldHost` in the server process — zero IPC, ideal for tests, benchmarks
that isolate the serving-layer gains, and single-machine serving.

:class:`ProcessShardPool` gives each shard a long-lived worker process
owning its worlds' :class:`~repro.core.reconfiguration.ReconfigurationManager`
state, so epoch updates ride the dirty-set path and the memoized topology
across requests instead of rebuilding per request.  Each worker talks to the front end over one duplex
``multiprocessing`` pipe: the dispatcher sends a batch and its event loop
watches the pipe and the worker's ``Process.sentinel`` (``loop.add_reader``),
so a round trip costs no executor thread and no queue feeder thread.
Because each shard has at most one batch in flight (the dispatcher awaits
the previous batch before sending the next), per-world request order — the
determinism contract — is preserved by construction.  Batches *do* carry
sequence numbers, but for durability rather than ordering: the number keys
the store's exactly-once re-dispatch marker (see below).

Workers start **empty** unless recovering: worlds are created by
``create_world`` requests routed through the same consistent hash as every
other request, so no live object ever crosses a process boundary (requests
and responses are plain JSON-able dictionaries; stores are built *inside*
the worker from a picklable :class:`~repro.service.storage.base.StoreConfig`).

**Worker death.**  A round trip never blocks forever on a dead worker: it
waits on the pipe *and* the sentinel, and reads the pipe before deciding
the worker is dead, so a response written just before exit is still
delivered.  A broken pipe or end-of-file counts as death too.  What happens
next depends on durability (and runs in the default executor, so one
shard's recovery never stalls the event loop or the other shards):

* with a durable (sqlite) store the pool restarts the worker on a fresh
  pipe (a kill mid-``send`` can leave a partial pickle in the old one), the
  replacement recovers its fleet from the shard's write-ahead log, and the
  batch is re-dispatched under its original sequence number — if the dead
  worker had already committed it, the store answers with the committed
  responses (exactly-once); if not, the batch re-executes from the
  pre-batch state, deterministically.  The client never sees the crash.
* without one (no store, or the per-process memory store) the batch's
  state is simply gone: the pool surfaces one error response per request
  and restarts an **empty** worker so the shard keeps serving.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import multiprocessing.connection
import os
import threading
from typing import Any, Dict, List, Optional

from repro.service.storage.base import StoreConfig, build_store
from repro.service.worlds import WorldHost

#: Sentinel telling a worker loop to exit.
_STOP = "stop"

#: Sentinel telling a worker loop to die *ungracefully* (``os._exit``),
#: exercising the real supervision path.  Sent by the fault injector's
#: ``kill_worker`` rules; the decision is made parent-side so a one-shot
#: rule stays consumed across the restart.
_DIE = "die"


def _build_host(shard: int, naive: bool, store_config: Optional[StoreConfig]) -> WorldHost:
    """One shard's host, with its store attached when storage is configured."""
    if store_config is None:
        return WorldHost(naive=naive)
    return WorldHost(
        naive=naive,
        store=build_store(store_config, shard),
        snapshot_every=store_config.snapshot_every,
        max_live_worlds=store_config.max_live_worlds,
    )


class InlineShardPool:
    """All shards executed synchronously in the calling process."""

    #: Inline execution is pure in-process Python, so resizes grow and
    #: shrink the pool straight on the event loop.
    runs_in_loop = True

    def __init__(
        self,
        shard_count: int,
        *,
        naive: bool = False,
        store_config: Optional[StoreConfig] = None,
        recover: bool = False,
    ) -> None:
        if shard_count < 1:
            raise ValueError("a shard pool needs at least one shard")
        self.shard_count = shard_count
        self.naive = naive
        self.store_config = store_config
        self.worker_restarts = 0
        self._killed = [False] * shard_count
        self.hosts = [_build_host(shard, naive, store_config) for shard in range(shard_count)]
        if recover:
            if store_config is None:
                raise ValueError("recover=True needs a store_config")
            for host in self.hosts:
                host.recover()

    @property
    def durable(self) -> bool:
        """Whether shard state survives a (simulated) worker death."""
        return self.store_config is not None and self.store_config.durable

    def kill_worker(self, shard: int) -> None:
        """Mark ``shard``'s host as crashed (the inline analogue of a
        worker-process death): the next batch finds the host gone and takes
        the same restart-or-error path the process pool takes."""
        self._killed[shard] = True

    def execute(self, shard: int, batch: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run one batch on ``shard``; responses in request order."""
        if self._killed[shard]:
            self._killed[shard] = False
            # Abandon the host without flushing — a crash checkpoints
            # nothing — and rebuild, mirroring the process pool's restart.
            old_store = self.hosts[shard].store
            if old_store is not None:
                old_store.close()
            replacement = _build_host(shard, self.naive, self.store_config)
            self.hosts[shard] = replacement
            self.worker_restarts += 1
            if not self.durable:
                from repro.service.protocol import error_response

                return [
                    error_response(
                        request.get("id"),
                        f"shard {shard} worker died executing this batch; "
                        f"its worlds were lost (no durable store configured)",
                    )
                    for request in batch
                ]
            replacement.recover()
        return self.hosts[shard].execute_batch(batch)

    async def dispatch(self, shard: int, batch: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """:meth:`execute` on the event loop, then one yield.

        Running straight on the loop avoids an executor-thread round trip
        per batch (the compute holds the GIL either way); the yield lets
        other connections read, and arriving requests coalesce in the
        transport buffers into the next batch.
        """
        responses = self.execute(shard, batch)
        await asyncio.sleep(0)
        return responses

    def recovered_worlds(self) -> int:
        """Worlds restored from storage across all shards."""
        return sum(host.recovered_worlds for host in self.hosts)

    def grow(self, new_count: int, *, recover: bool = False) -> None:
        """Add shards ``shard_count..new_count-1`` (live resize, grow leg)."""
        if new_count < self.shard_count:
            raise ValueError("grow() cannot shrink the pool")
        for shard in range(self.shard_count, new_count):
            host = _build_host(shard, self.naive, self.store_config)
            if recover and host.store is not None:
                host.recover()
            self.hosts.append(host)
            self._killed.append(False)
        self.shard_count = new_count

    def shrink(self, new_count: int) -> None:
        """Drop shards ``new_count..`` (their worlds must already be gone)."""
        if not 1 <= new_count <= self.shard_count:
            raise ValueError("shrink() needs 1 <= new_count <= shard_count")
        while len(self.hosts) > new_count:
            host = self.hosts.pop()
            self._killed.pop()
            host.close()
            if host.store is not None:
                host.store.close()
        self.shard_count = new_count

    def close(self) -> None:
        """Release every host's worlds (flushing to storage where attached)."""
        for host in self.hosts:
            host.close()
            if host.store is not None:
                host.store.close()


def _worker_loop(
    shard: int,
    naive: bool,
    store_config: Optional[StoreConfig],
    recover: bool,
    conn: multiprocessing.connection.Connection,
) -> None:
    """One shard worker: execute batches until the stop sentinel arrives.

    An unexpected exception must not strand the dispatcher awaiting a
    response, so failures are converted into per-request error responses
    and the loop keeps serving — a poisoned request takes down one batch's
    semantics, not the shard.

    The store (when configured) is built here, inside the worker process —
    a sqlite connection must never cross a fork/spawn boundary.  A worker
    started with ``recover=True`` rebuilds its fleet from that store before
    serving, then reports the recovered-world count on the pipe as its
    first message (the pool's restart handshake).
    """
    # A forked worker inherits the front end's whole heap (tens of thousands
    # of objects it never touches).  Left in the tracked generations, every
    # full collection re-scans them, and those pauses land on request
    # latency; freezing moves them to the permanent generation once.
    gc.freeze()
    host = _build_host(shard, naive, store_config)
    if recover:
        # The handshake also reports the last committed batch sequence so
        # the dispatcher resumes numbering where the store left off — a
        # restarted server otherwise re-issues seq 1 against a log whose
        # exactly-once marker is far ahead.
        conn.send((host.recover(), host.last_batch_seq))
    # Orphan watchdog: a forked worker inherits the parent's file
    # descriptors — including the server's listening socket — so a worker
    # that outlives a SIGKILLed parent keeps the port bound and blocks a
    # restart.  Forked siblings hold copies of the parent's pipe ends, so
    # end-of-file does not reliably signal the parent's death; getting
    # reparented (getppid changes) does, and polling lets the loop notice.
    parent = os.getppid()
    while True:
        if not conn.poll(1.0):
            if os.getppid() != parent:
                break
            continue
        try:
            message = conn.recv()
        except EOFError:
            break
        if message == _STOP:
            break
        if message == _DIE:
            # Injected crash: die the way a real fault would — no cleanup,
            # no store flush, no pipe drain.
            os._exit(1)
        seq, batch = message
        try:
            responses = host.execute_batch(batch, batch_seq=seq)
        except Exception as error:  # pragma: no cover - defensive
            from repro.service.protocol import error_response

            responses = [
                error_response(request.get("id"), f"shard {shard} worker error: {error!r}")
                for request in batch
            ]
        conn.send(responses)
    host.close()
    if host.store is not None:
        host.store.close()


class WorkerDiedError(RuntimeError):
    """A shard worker died with a batch in flight and could not be made whole."""


def _pool_context() -> multiprocessing.context.BaseContext:
    # Same choice as the experiment runner: fork where available (cheap),
    # spawn elsewhere; workers share no mutable state with the parent, so
    # the start method never affects results.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _wake(ready: asyncio.Future) -> None:
    if not ready.done():
        ready.set_result(None)


class ProcessShardPool:
    """One long-lived worker process per shard, supervised."""

    #: Growing spawns workers and waits for their recovery handshakes, and
    #: shrinking joins them; a resize runs both in an executor thread.
    runs_in_loop = False

    def __init__(
        self,
        shard_count: int,
        *,
        naive: bool = False,
        store_config: Optional[StoreConfig] = None,
        recover: bool = False,
    ) -> None:
        if shard_count < 1:
            raise ValueError("a shard pool needs at least one shard")
        if recover and (store_config is None or not store_config.durable):
            raise ValueError("recover=True needs a durable store_config")
        self.shard_count = shard_count
        self.naive = naive
        self.store_config = store_config
        self.worker_restarts = 0
        self._recovered = 0
        self._context = _pool_context()
        # Restarts run in executor threads, so two can fork at once: the
        # lock keeps each new pipe's child end out of every other fork, and
        # guards the supervision counters.
        self._lock = threading.Lock()
        self._batch_seqs = [0] * shard_count
        self._conns: List[multiprocessing.connection.Connection] = []
        self._workers: List[multiprocessing.process.BaseProcess] = []
        for shard in range(shard_count):
            conn, worker = self._spawn(shard, recover=recover)
            self._conns.append(conn)
            self._workers.append(worker)
        if recover:
            # The recovery handshake: each worker reports its fleet size
            # before serving, so the front end can report what came back.
            for shard in range(shard_count):
                self._handshake(shard)

    @property
    def durable(self) -> bool:
        """Whether shard state survives a worker process death."""
        return self.store_config is not None and self.store_config.durable

    def recovered_worlds(self) -> int:
        """Worlds restored from storage across all shards (startup + restarts)."""
        return self._recovered

    def _spawn(self, shard: int, *, recover: bool):
        """Fresh pipe + process for ``shard`` (initial start and restarts
        alike — a worker killed mid-``send`` can leave a partial pickle in
        its pipe, so restarted workers never reuse the old one)."""
        with self._lock:
            conn, child_conn = self._context.Pipe()
            worker = self._context.Process(
                target=_worker_loop,
                args=(shard, self.naive, self.store_config, recover, child_conn),
                daemon=True,
            )
            worker.start()
            # Only the worker may hold the child end: then the parent's end
            # reads end-of-file once the worker is gone.
            child_conn.close()
        return conn, worker

    def _send(self, shard: int, message: Any) -> bool:
        """Send ``message`` to ``shard``'s worker; False if the pipe is broken."""
        try:
            self._conns[shard].send(message)
        except OSError:
            return False
        return True

    def _receive(self, shard: int) -> Optional[Any]:
        """The worker's waiting message, or ``None`` once it is dead.

        Called when the pipe or the sentinel is ready.  The pipe is read
        first, so a response written just before the worker exited still
        arrives; end-of-file or a reset means the worker died mid-message.
        """
        conn = self._conns[shard]
        try:
            if conn.poll():
                return conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def _wait(self, shard: int) -> Optional[Any]:
        """Block for the worker's next message (``None`` once it is dead)."""
        multiprocessing.connection.wait([self._conns[shard], self._workers[shard].sentinel])
        return self._receive(shard)

    async def _wait_async(self, shard: int) -> Optional[Any]:
        """:meth:`_wait` without blocking: the event loop watches the pipe
        and the sentinel, and the dispatcher resumes when either is ready."""
        loop = asyncio.get_running_loop()
        ready = loop.create_future()
        fds = (self._conns[shard].fileno(), self._workers[shard].sentinel)
        for fd in fds:
            loop.add_reader(fd, _wake, ready)
        try:
            await ready
        finally:
            for fd in fds:
                loop.remove_reader(fd)
        return self._receive(shard)

    def _handshake(self, shard: int) -> None:
        """A recovering worker's startup report (never a hang).

        Counts the recovered worlds and syncs the dispatcher's batch
        numbering to the store's committed sequence — never backwards: a
        mid-flight restart has already assigned the in-flight batch a
        number past the committed one, and re-dispatch must reuse it.
        """
        report = self._wait(shard)
        if report is None:
            raise WorkerDiedError(f"shard {shard} worker died while recovering its fleet")
        count, batch_seq = report
        with self._lock:
            self._recovered += count
            self._batch_seqs[shard] = max(self._batch_seqs[shard], batch_seq)

    def _restart(self, shard: int, *, recover: bool) -> None:
        self._workers[shard].join(timeout=5)
        self._conns[shard].close()
        conn, worker = self._spawn(shard, recover=recover)
        self._conns[shard] = conn
        self._workers[shard] = worker
        with self._lock:
            self.worker_restarts += 1
        if recover:
            self._handshake(shard)

    def _next_seq(self, shard: int) -> int:
        self._batch_seqs[shard] += 1
        return self._batch_seqs[shard]

    def _after_death(
        self, shard: int, seq: int, batch: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Supervision for a worker that died with batch ``seq`` in flight.

        The worker is restarted and — when the shard's store is durable —
        made whole from its log, after which the batch is re-dispatched
        under its original sequence number (committed ⇒ answered from the
        store; uncommitted ⇒ re-run from the pre-batch state).  Without
        durability the caller gets one error response per request instead
        of a hang.
        """
        if self.durable:
            self._restart(shard, recover=True)
            responses = self._wait(shard) if self._send(shard, (seq, batch)) else None
            if responses is None:
                raise WorkerDiedError(
                    f"shard {shard} worker died again while recovering batch {seq}"
                )
            return responses
        # Non-durable: the shard's worlds died with the worker.  Surface
        # errors (never silence a lost batch) and restart empty so the
        # shard keeps accepting new work.
        from repro.service.protocol import error_response

        self._restart(shard, recover=False)
        return [
            error_response(
                request.get("id"),
                f"shard {shard} worker died executing this batch; "
                f"its worlds were lost (no durable store configured)",
            )
            for request in batch
        ]

    async def dispatch(self, shard: int, batch: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Ship one batch to ``shard``'s worker and await its responses.

        The round trip runs on the event loop; only a worker death moves
        to the default executor (restart, recovery and re-dispatch block).
        """
        seq = self._next_seq(shard)
        responses = await self._wait_async(shard) if self._send(shard, (seq, batch)) else None
        if responses is None:
            responses = await asyncio.get_running_loop().run_in_executor(
                None, self._after_death, shard, seq, batch
            )
        return responses

    def kill_worker(self, shard: int) -> None:
        """Crash ``shard``'s worker ungracefully (fault injection).

        The death is asynchronous: the worker ``os._exit``\\ s when it reads
        the sentinel, and the next batch for the shard finds it dead and
        takes the normal supervision path (durable restart + re-dispatch or
        per-request error responses).
        """
        self._send(shard, _DIE)

    def grow(self, new_count: int, *, recover: bool = False) -> None:
        """Spawn workers for shards ``shard_count..new_count-1``."""
        if new_count < self.shard_count:
            raise ValueError("grow() cannot shrink the pool")
        if recover and not self.durable:
            raise ValueError("recover=True needs a durable store_config")
        new_shards = range(self.shard_count, new_count)
        for shard in new_shards:
            conn, worker = self._spawn(shard, recover=recover)
            self._conns.append(conn)
            self._workers.append(worker)
            self._batch_seqs.append(0)
        self.shard_count = new_count
        if recover:
            for shard in new_shards:
                self._handshake(shard)

    def _stop(self, shards: range) -> None:
        """Stop and reap the workers of ``shards``, then close their pipes."""
        for shard in shards:
            if self._workers[shard].is_alive():
                self._send(shard, _STOP)
        for shard in shards:
            worker = self._workers[shard]
            worker.join(timeout=10)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=5)
            self._conns[shard].close()

    def shrink(self, new_count: int) -> None:
        """Stop workers ``new_count..`` (their worlds must already be gone)."""
        if not 1 <= new_count <= self.shard_count:
            raise ValueError("shrink() needs 1 <= new_count <= shard_count")
        self._stop(range(new_count, self.shard_count))
        del self._conns[new_count:]
        del self._workers[new_count:]
        del self._batch_seqs[new_count:]
        self.shard_count = new_count

    def close(self) -> None:
        """Stop every worker and reap the processes."""
        self._stop(range(self.shard_count))
