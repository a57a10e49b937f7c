"""A closed-loop newline-delimited-JSON driver for ``cbtc serve``.

Each :class:`Connection` sends one request, then reads lines until the
response carrying that request's id arrives.  Id-less push frames that
arrive meanwhile are applied to the connection's
:class:`~repro.service.subs.mirror.WorldMirror`\\ s, so a subscribed world's
mirror is maintained by the same connection that writes to the world.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.service.subs.mirror import WorldMirror

#: Per-line read limit (a subscribe response carries a whole snapshot).
LINE_LIMIT = 16 * 1024 * 1024


def encode(request: Dict[str, Any]) -> bytes:
    return (json.dumps(request, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


class Connection:
    """One TCP connection with strictly one request in flight."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.mirrors: Dict[str, WorldMirror] = {}

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
        return cls(reader, writer)

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        mirror = self.mirrors.get(frame.get("world"))
        if mirror is not None:
            mirror.apply(frame)

    async def _read_message(self) -> Dict[str, Any]:
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send ``request`` and return its response (push frames absorbed)."""
        self.writer.write(encode(request))
        await self.writer.drain()
        while True:
            message = await self._read_message()
            if message.get("push") == "frame" and "id" not in message:
                self._on_frame(message)
                continue
            if message.get("id") != request.get("id"):
                raise ConnectionError(f"response for {message.get('id')!r} while awaiting {request.get('id')!r}")
            return message

    async def subscribe(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send a ``subscribe`` and seed a mirror from its base snapshot."""
        mirror = WorldMirror(request["world"])
        self.mirrors[request["world"]] = mirror
        response = await self.call(request)
        if response.get("ok"):
            mirror.seed(response["result"]["seq"], response["result"]["snapshot"])
        return response

    async def pump_frames(self, seconds: float) -> None:
        """Absorb push frames for up to ``seconds`` (no request outstanding)."""
        deadline = time.perf_counter() + seconds
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            try:
                message = await asyncio.wait_for(self._read_message(), remaining)
            except asyncio.TimeoutError:
                return
            if message.get("push") == "frame" and "id" not in message:
                self._on_frame(message)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class LoopResult:
    """What one closed-loop phase did."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.completions: List[float] = []
        self.executed: List[List[Dict[str, Any]]] = []
        self.failed = 0
        self.start = 0.0
        self.end = 0.0


async def closed_loop(
    connections: List[Connection],
    streams: List[Iterator[Dict[str, Any]]],
    *,
    seconds: Optional[float] = None,
    per_connection: Optional[int] = None,
) -> LoopResult:
    """Drive every connection closed-loop until the time or the count runs out.

    With ``seconds`` a connection stops issuing once the phase is that old;
    with ``per_connection`` it stops after exactly that many requests (fixed
    work, so counts made during the phase repeat from run to run).
    """
    result = LoopResult()
    result.executed = [[] for _ in connections]

    async def drive(index: int) -> None:
        connection, stream, executed = connections[index], streams[index], result.executed[index]
        while True:
            if per_connection is not None and len(executed) >= per_connection:
                return
            if seconds is not None and time.perf_counter() - result.start >= seconds:
                return
            request = next(stream)
            sent = time.perf_counter()
            response = await connection.call(request)
            done = time.perf_counter()
            executed.append(request)
            result.latencies.append(done - sent)
            result.completions.append(done)
            if not response.get("ok"):
                result.failed += 1

    result.start = time.perf_counter()
    await asyncio.gather(*(drive(index) for index in range(len(connections))))
    result.end = time.perf_counter()
    return result


async def call_all(
    connections: List[Connection], per_connection: List[List[Dict[str, Any]]]
) -> Tuple[List[Dict[str, Any]], float]:
    """Issue each connection's requests in order, connections in parallel.

    Returns every response and the wall time the whole set took.
    """
    responses: List[Dict[str, Any]] = []

    async def drive(connection: Connection, requests: List[Dict[str, Any]]) -> None:
        for request in requests:
            if request.get("op") == "subscribe":
                responses.append(await connection.subscribe(request))
            else:
                responses.append(await connection.call(request))

    start = time.perf_counter()
    await asyncio.gather(*(drive(c, r) for c, r in zip(connections, per_connection)))
    return responses, time.perf_counter() - start
