"""Asyncio client for the fleet server's wire protocol.

Two classes:

* :class:`ServiceClient` — one connection.  A background read loop
  demultiplexes the stream: responses are **id-matched** to the pending
  request they answer (duplicate, stale and late responses are
  discarded), so several requests may be in flight on one connection, and
  push frames (no ``id``) are applied to per-world
  :class:`~repro.service.subs.mirror.WorldMirror` reconstructions of the
  subscribed worlds, with resume-from-sequence reconnection.  Every
  request carries a timeout, so a dropped response surfaces as
  :class:`ServiceTimeout` instead of a hang.  It is an async context
  manager: ``async with await ServiceClient.connect(host, port) as c``.
* :class:`RetryingClient` — wraps a connection factory with deadline-aware
  retries: jittered exponential backoff (seeded, deterministic), a
  per-request deadline budget, ``retry_after`` hints honoured, reconnection
  on connection loss, and idempotency tokens on writes so a re-issued
  request that *did* land the first time is answered from the server's
  dedup cache instead of applied twice (exactly-once from the client's
  point of view).
"""

from __future__ import annotations

import asyncio
import itertools
import random
import uuid
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs import clock
from repro.service import protocol
from repro.service.subs.mirror import SequenceGap, WorldMirror

#: Default per-read timeout (seconds).  Generous next to the sub-second
#: service times, tight next to "forever" — a dropped response costs one
#: timeout, not a hung client.
DEFAULT_TIMEOUT = 10.0

#: Default total time budget for one logical request across all retries.
DEFAULT_DEADLINE = 30.0

#: Backoff schedule: ``base * 2**attempt`` capped, then jittered.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0


class ServiceError(RuntimeError):
    """An error response from the server, surfaced as an exception.

    ``code`` carries the structured error code (``RETRY_LATER``,
    ``SHUTTING_DOWN``, ...) when the server sent one; ``retry_after`` the
    backoff hint in seconds riding ``RETRY_LATER`` responses.
    """

    def __init__(
        self,
        message: str,
        *,
        code: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


class ServiceTimeout(ServiceError):
    """No response arrived within the client's timeout."""


class DeadlineExceeded(ServiceError):
    """The per-request deadline budget ran out across retries.

    ``last_error`` preserves the final attempt's failure, so callers can
    distinguish "the server is overloaded" from "nothing is listening".
    """

    def __init__(self, message: str, *, last_error: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.last_error = last_error


async def _open(
    host: str, port: int, timeout: Optional[float]
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    opening = asyncio.open_connection(host, port, limit=protocol.STREAM_LIMIT)
    if timeout is None:
        return await opening
    return await asyncio.wait_for(opening, timeout)


class ServiceClient:
    """One connection speaking the newline-delimited JSON protocol.

    The read side is a background demultiplexer: id-carrying envelopes
    answer pending requests (any number may be in flight), while push
    frames (no ``id``) are applied to the per-world
    :class:`~repro.service.subs.mirror.WorldMirror` — so ordinary requests
    and a live subscription share one connection safely.

    Resume: after a disconnect (or a :class:`~repro.service.subs.mirror.
    SequenceGap`), :meth:`resume` reconnects and re-subscribes every world
    with ``since=<mirror cursor>`` — the server answers with the missing
    diffs from its ring, or a full snapshot when the cursor aged out.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self.timeout = timeout
        self.mirrors: Dict[str, WorldMirror] = {}
        self.frames_received = 0
        self.gaps = 0
        #: Worlds whose stream gapped and need a re-subscribe to heal.
        self.stale: Set[str] = set()
        self._pending: Dict[int, asyncio.Future] = {}
        #: Diff frames that raced ahead of their subscribe response (the
        #: push path can win the write lock before the responder runs).
        self._early: Dict[str, List[Dict[str, Any]]] = {}
        self._frame_event = asyncio.Event()
        self._endpoint: Optional[Tuple[str, int]] = None
        #: Optional hook called with each frame that advanced a mirror
        #: (``cbtc watch`` prints from here; duplicates never reach it).
        self.on_frame: Optional[Callable[[Dict[str, Any]], None]] = None
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str, port: int, *, timeout: Optional[float] = DEFAULT_TIMEOUT
    ) -> "ServiceClient":
        """Open a connection to a running fleet server."""
        reader, writer = await _open(host, port, timeout)
        client = cls(reader, writer, timeout=timeout)
        client._endpoint = (host, port)
        return client

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    @property
    def connected(self) -> bool:
        return not self._reader_task.done() and not self._writer.is_closing()

    # ------------------------------------------------------------------ #
    # Read side: demultiplex responses and push frames
    # ------------------------------------------------------------------ #
    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    message = protocol.decode_message(line)
                except ValueError:
                    continue
                if protocol.is_push_frame(message):
                    self._on_frame(message)
                    continue
                # Server-initiated envelopes (id=None malformed-input
                # errors) and stale or duplicate responses answer nothing.
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ConnectionError, OSError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection lost"))
            self._pending.clear()
            # Wake waiters so they observe the disconnect instead of
            # sleeping on an event no frame will ever set again.
            self._frame_event.set()

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        world = frame.get("world")
        mirror = self.mirrors.get(world)
        if mirror is None:
            return
        if mirror.seq is None and frame.get("kind") == protocol.FRAME_DIFF:
            # No base snapshot yet (subscribe response still in flight);
            # park the diff until :meth:`subscribe` seeds the mirror.
            self._early.setdefault(world, []).append(frame)
            return
        self._apply_frame(mirror, frame)

    def _apply_frame(self, mirror: WorldMirror, frame: Dict[str, Any]) -> None:
        advanced = False
        try:
            advanced = mirror.apply(frame)
        except SequenceGap:
            self.gaps += 1
            self.stale.add(mirror.world)
        self.frames_received += 1
        if advanced and self.on_frame is not None:
            self.on_frame(frame)
        self._frame_event.set()

    # ------------------------------------------------------------------ #
    # Requests (share the connection with the push stream)
    # ------------------------------------------------------------------ #
    async def request(
        self,
        op: str,
        *,
        world: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        token: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Send one request and return the raw response envelope.

        ``timeout`` overrides the client default for this request.  A
        response that arrives after the timeout is discarded.
        """
        request_id = next(self._ids)
        message: Dict[str, Any] = {"id": request_id, "op": op}
        if world is not None:
            message["world"] = world
        if params:
            message["params"] = params
        if token is not None:
            message["token"] = token
        if self._reader_task.done():
            # The read loop already failed its pending futures and would
            # never answer this one.
            raise ConnectionError("connection lost")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(protocol.encode_message(message))
            await self._writer.drain()
            read_timeout = self.timeout if timeout is None else timeout
            if read_timeout is None:
                return await future
            try:
                return await asyncio.wait_for(future, read_timeout)
            except asyncio.TimeoutError:
                raise ServiceTimeout(
                    f"no response within {read_timeout:g}s "
                    f"(request may or may not have applied)"
                ) from None
        finally:
            self._pending.pop(request_id, None)

    async def call(
        self,
        op: str,
        *,
        world: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        token: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Send one request and return its ``result``; raise on errors."""
        response = await self.request(
            op, world=world, params=params, token=token, timeout=timeout
        )
        if not response.get("ok"):
            raise ServiceError(
                response.get("error", "unknown server error"),
                code=response.get("code"),
                retry_after=response.get("retry_after"),
            )
        return response.get("result")

    # ------------------------------------------------------------------ #
    # Subscriptions
    # ------------------------------------------------------------------ #
    async def subscribe(
        self,
        world: str,
        *,
        ring: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Subscribe to ``world`` (resuming from the mirror's cursor if set).

        The response seeds the mirror: a fresh subscribe carries the base
        snapshot; a resume carries the missing diffs (or a resync snapshot
        when the cursor aged past the server's ring).
        """
        mirror = self.mirrors.get(world)
        if mirror is None:
            mirror = self.mirrors[world] = WorldMirror(world)
        params: Dict[str, Any] = {}
        if ring is not None:
            params["ring"] = ring
        if mirror.seq is not None:
            params["since"] = mirror.seq
        result = await self.call(
            protocol.SUBSCRIBE, world=world, params=params, timeout=timeout
        )
        seq = result["seq"]
        if "snapshot" in result:
            mirror.seed(seq, result["snapshot"])
            if result.get("resync"):
                mirror.resyncs += 1
        else:
            for frame in result.get("frames", []):
                self._apply_frame(mirror, frame)
        for frame in self._early.pop(world, []):
            self._apply_frame(mirror, frame)
        self.stale.discard(world)
        return result

    async def unsubscribe(self, world: str) -> bool:
        result = await self.call(protocol.UNSUBSCRIBE, world=world)
        self.mirrors.pop(world, None)
        self._early.pop(world, None)
        self.stale.discard(world)
        return bool(result.get("unsubscribed"))

    def snapshot(self, world: str) -> Optional[Dict[str, Any]]:
        """The current reconstructed snapshot (None before the base lands)."""
        mirror = self.mirrors.get(world)
        return None if mirror is None else mirror.snapshot

    async def wait_for(
        self,
        world: str,
        *,
        seq: Optional[int] = None,
        deleted: bool = False,
        timeout: Optional[float] = None,
    ) -> WorldMirror:
        """Wait until ``world``'s mirror reaches ``seq`` (or any new frame).

        With ``deleted=True``, waits for the terminal ``deleted`` frame.
        Raises :class:`ServiceTimeout` on timeout and ``ConnectionError``
        if the connection dies first.
        """
        mirror = self.mirrors[world]
        baseline = mirror.frames_applied
        deadline = None if timeout is None else clock.wall() + timeout
        while True:
            if deleted:
                if mirror.deleted:
                    return mirror
            elif seq is not None:
                if mirror.seq is not None and mirror.seq >= seq:
                    return mirror
            elif mirror.frames_applied > baseline:
                return mirror
            if self._reader_task.done():
                raise ConnectionError("connection lost while waiting for frames")
            self._frame_event.clear()
            waiter = self._frame_event.wait()
            if deadline is None:
                await waiter
                continue
            remaining = deadline - clock.wall()
            if remaining <= 0:
                raise ServiceTimeout(f"no qualifying frame for {world!r} within the timeout")
            try:
                await asyncio.wait_for(waiter, remaining)
            except asyncio.TimeoutError:
                raise ServiceTimeout(
                    f"no qualifying frame for {world!r} within the timeout"
                ) from None

    async def resume(self) -> None:
        """Reconnect and re-subscribe every world from its mirror cursor."""
        if self._endpoint is None:
            raise RuntimeError("resume() needs a client built via connect()")
        await self.close()
        self._reader, self._writer = await _open(*self._endpoint, self.timeout)
        self._early = {}
        self._reader_task = asyncio.create_task(self._read_loop())
        for world in sorted(self.mirrors):
            await self.subscribe(world)

    async def heal(self) -> None:
        """Re-subscribe every world whose stream gapped (after a resize
        whose racing collects outran a ring, for example)."""
        for world in sorted(self.stale):
            await self.subscribe(world)

    async def close(self) -> None:
        """Stop the read loop and close the connection."""
        self._reader_task.cancel()
        await asyncio.gather(self._reader_task, return_exceptions=True)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown races
            pass


#: Ops that mutate world state and therefore ride an idempotency token on
#: every attempt (reads are naturally idempotent; delete's retry ambiguity
#: is resolved in :meth:`RetryingClient.call` instead).
_WRITE_OPS = frozenset(
    {protocol.CREATE_WORLD, protocol.ADVANCE, protocol.APPLY, protocol.DELETE_WORLD}
)


class RetryingClient:
    """Deadline-aware retrying wrapper around :class:`ServiceClient`.

    Every write op carries a fresh idempotency token, so a request whose
    response was lost (timeout, dropped response, connection reset, worker
    death) can be re-issued safely: if the first attempt applied, the
    server answers from its per-world dedup cache with the original result
    instead of applying the write twice.  Reads are naturally idempotent.

    Backoff is exponential with full jitter from a **seeded** generator —
    two runs with the same seed retry on the same schedule, keeping chaos
    tests reproducible.  ``RETRY_LATER`` responses carry a server-side
    ``retry_after`` hint, used as the floor of the next sleep.

    One deliberate asymmetry: a retried ``delete_world`` that finds the
    world already gone is treated as success — the first attempt's effect
    and the retry's "unknown world" error are indistinguishable, and
    deleted-is-deleted is the caller's intent.
    """

    def __init__(
        self,
        connect: Callable[[], "asyncio.Future[ServiceClient]"],
        *,
        seed: int = 0,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        deadline: float = DEFAULT_DEADLINE,
        max_attempts: int = 8,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        token_prefix: Optional[str] = None,
    ) -> None:
        self._connect = connect
        self._client: Optional[ServiceClient] = None
        self._rng = random.Random(seed)
        self.timeout = timeout
        self.deadline = deadline
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._tokens = itertools.count(1)
        # Tokens must never collide with a *previous* client's (a reused
        # token would be answered from the server's dedup cache instead of
        # applied), so the default prefix carries a fresh UUID.  Token
        # values never influence world state or snapshots — only dedup —
        # so this randomness is outside the determinism contract.
        if token_prefix is None:
            token_prefix = f"tok-{uuid.uuid4().hex[:12]}"
        self._token_prefix = token_prefix
        self.retries = 0
        self.reconnects = 0
        self.shed_responses = 0

    @classmethod
    def to_server(
        cls, host: str, port: int, *, seed: int = 0, **options: Any
    ) -> "RetryingClient":
        """A retrying client (re)connecting to ``host:port`` as needed."""
        timeout = options.get("timeout", DEFAULT_TIMEOUT)

        async def _connect() -> ServiceClient:
            return await ServiceClient.connect(host, port, timeout=timeout)

        return cls(_connect, seed=seed, **options)

    def _next_token(self) -> str:
        return f"{self._token_prefix}-{next(self._tokens)}"

    async def _ensure_client(self) -> ServiceClient:
        if self._client is None:
            self._client = await self._connect()
        return self._client

    async def _drop_client(self) -> None:
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()
            self.reconnects += 1

    def _backoff(self, attempt: int, hint: Optional[float]) -> float:
        """Full-jitter exponential backoff, floored by the server's hint.

        The hint is jittered *upward* rather than used as an exact floor:
        the server sheds a whole pile-up at once, and if every shed client
        slept exactly the hint they would return as a phase-locked herd,
        collide with the next full queue, and get shed again in lockstep —
        escalating the tail by whole backoff generations.  Spreading the
        herd across [hint, 1.75*hint] lets it reabsorb over a couple of
        dispatch cycles instead.
        """
        ceiling = min(self.backoff_cap, self.backoff_base * (2**attempt))
        sleep = self._rng.uniform(0.0, ceiling)
        if hint is not None:
            sleep = max(sleep, float(hint) * self._rng.uniform(1.0, 1.75))
        return sleep

    async def call(
        self,
        op: str,
        *,
        world: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = None,
    ) -> Any:
        """One logical request, retried until success or deadline.

        Retried on: connection errors (reconnects first), timeouts,
        ``RETRY_LATER`` / ``SHUTTING_DOWN`` / ``WORKER_DIED`` responses.
        Not retried: ordinary application errors ("unknown world", bad
        params) — those are answers, not failures.
        """
        budget = self.deadline if deadline is None else deadline
        started = clock.wall()
        token = self._next_token() if op in _WRITE_OPS else None
        attempt = 0
        last_error: Optional[BaseException] = None
        while True:
            elapsed = clock.wall() - started
            if attempt >= self.max_attempts or elapsed >= budget:
                raise DeadlineExceeded(
                    f"{op} gave up after {attempt} attempts in {elapsed:.2f}s"
                    + (f" (last error: {last_error})" if last_error else ""),
                    last_error=last_error,
                )
            hint: Optional[float] = None
            try:
                client = await self._ensure_client()
                remaining = budget - (clock.wall() - started)
                timeout = self.timeout
                if timeout is None or remaining < timeout:
                    timeout = max(0.05, remaining)
                return await client.call(
                    op, world=world, params=params, token=token, timeout=timeout
                )
            except ServiceTimeout as error:
                # The response is lost but the request may have applied —
                # only the token makes the re-issue safe.  The connection's
                # stream may still deliver the late response; id-matching
                # would discard it, but a fresh connection is cheaper to
                # reason about and matches what a real client does.
                last_error = error
                await self._drop_client()
            except (ConnectionError, OSError) as error:
                last_error = error
                await self._drop_client()
            except ServiceError as error:
                if error.code == protocol.RETRY_LATER:
                    self.shed_responses += 1
                    hint = error.retry_after
                    last_error = error
                elif error.code in (protocol.SHUTTING_DOWN, protocol.WORKER_DIED):
                    last_error = error
                    await self._drop_client()
                elif (
                    op == protocol.DELETE_WORLD
                    and attempt > 0
                    and "unknown world" in str(error)
                ):
                    # The first attempt's delete applied; the retry found
                    # the world already gone.  Deleted-is-deleted.
                    return {"world": world, "deleted": True, "retried": True}
                else:
                    raise
            attempt += 1
            self.retries += 1
            await asyncio.sleep(self._backoff(attempt, hint))

    async def close(self) -> None:
        if self._client is not None:
            await self._client.close()
            self._client = None
