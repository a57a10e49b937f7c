"""The fleet's one read-result cache: encoded read results, replayed in routing order.

A shard is the only place a result is computed, and it keeps none: every
read it executes is computed afresh from the world's current topology.  The
cache keeps the canonical JSON bytes of each successful read a shard
answered, and replays them for a repeat of that read (same world, same
:func:`~repro.service.protocol.read_key`) for as long as no write to the
world has been *routed* since the read that filled the entry.  The server
front end and :class:`~repro.service.replay.ShardedReplayer` both route
every world request through :meth:`ReadCache.route`, so the in-process
engine exercises the production read path.

**Why a hit is safe.**  Per-world request order is routing order (one FIFO
queue per shard, one batch in flight).  A hit means every request routed
for the world since the fill was a read, so the shard's world is in the
state that produced the bytes: clean and already synchronized.  Every read
is a pure function of that state, so the skipped read would have been a
recompute over the same clean world, with no ``synchronize``, no WAL record
and the same bytes.  Skipping it therefore changes neither the served
bytes, nor the shard's synchronize schedule, nor the write-ahead log.

**Write versions.**  Each world's entries live in one table, and the table
object *is* the world's write version: a routed write drops it, so the
next read starts a new one.  A read captures the table when it is routed
(its :class:`Miss`), and :meth:`ReadCache.fill` stores the response only if
that table is still the world's current one — a write routed while the
read was in flight leaves the read uncached.  :meth:`ReadCache.clear` (a
worker restart, a resize, a crash) drops every table at once, which is the
global generation bump.

**Encode once.**  A miss's result is encoded when its response lands; the
same bytes fill the cache and are spliced into the miss's own response
line (:func:`~repro.service.protocol.ok_line`), so no result is encoded
twice and a hit encodes nothing but its request id.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Dict, NamedTuple, Optional, Union

from repro.service import protocol

#: Per-world entry bound.  A long-lived quiescent world could otherwise
#: accumulate one entry per distinct read parameterization (O(n^2) route
#: pairs, unbounded traffic seeds) between writes; at the bound the
#: oldest-stored entry goes first (insertion order, a deterministic policy).
SNAPSHOT_CACHE_MAX_ENTRIES = 1024


class Miss(NamedTuple):
    """A routed read the cache could not answer, awaiting its response."""

    world: str
    key: str
    #: The world's write version when the read was routed.
    table: Dict[str, bytes]


class ReadCache:
    """Per-world tables of encoded read results, bounded per world."""

    def __init__(self, capacity: int) -> None:
        #: Entries kept per world (oldest dropped first); 0 disables caching.
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._tables: Dict[str, Dict[str, bytes]] = {}

    @property
    def entries(self) -> int:
        """Cached results over all worlds."""
        # detlint: ignore[det-float-sum-order] -- integer lengths; order cannot change the sum
        return sum(len(table) for table in self._tables.values())

    def route(self, request: Dict[str, Any]) -> Union[bytes, Miss, None]:
        """The routing rule for one world-addressed request.

        A read looks up: its cached bytes (a hit, which must not reach the
        shard) or, unless caching is off, a :class:`Miss` to :meth:`fill`
        once the shard answers.  Any other op except ``cache_stats``
        invalidates the world's entries.  ``None`` means there is nothing
        to fill.
        """
        world = request["world"]
        op = request["op"]
        if op not in protocol.READ_OPS:
            if op != protocol.CACHE_STATS:
                self._tables.pop(world, None)
            return None
        key = protocol.read_key(op, request.get("params", {}))
        table = self._tables.get(world)
        result = table.get(key) if table is not None else None
        if result is not None:
            self.hits += 1
            return result
        self.misses += 1
        if not self.capacity:
            return None
        if table is None:
            table = self._tables[world] = {}
        return Miss(world, key, table)

    def fill(self, miss: Miss, response: Dict[str, Any]) -> Optional[bytes]:
        """Land a miss's response; the encoded result of a success.

        The bytes fill the cache only while ``miss.table`` is still the
        world's write version.  A refill of a key already present (two
        identical reads were in flight) replaces it in place.  An error
        (unknown world, bad params) is never cached and returns ``None``.
        """
        current = self._tables.get(miss.world) is miss.table
        if not response.get("ok"):
            # An empty table the read opened goes too, so reads of worlds
            # that do not exist leave nothing behind.
            if current and not miss.table:
                del self._tables[miss.world]
            return None
        result = protocol.encode_result(response["result"])
        if current:
            table = miss.table
            if miss.key not in table and len(table) >= self.capacity:
                table.pop(next(iter(table)))
            table[miss.key] = result
        return result

    def watch(self, miss: Miss, request_id: Any, routed: asyncio.Future) -> asyncio.Future:
        """The future a routed read's responder awaits (the server's glue).

        When the shard's response lands it is :meth:`fill`-ed, and a
        success's bytes are spliced into the finished response line the
        returned future resolves to.  An error response passes through
        unchanged.
        """
        answered = routed.get_loop().create_future()
        routed.add_done_callback(functools.partial(self._land, miss, request_id, answered))
        return answered

    def _land(
        self, miss: Miss, request_id: Any, answered: asyncio.Future, routed: asyncio.Future
    ) -> None:
        if routed.cancelled():
            answered.cancel()
            return
        response = routed.result()
        result = self.fill(miss, response)
        answer: Any = response if result is None else protocol.ok_line(request_id, result)
        if not answered.done():  # its responder may have been cancelled
            answered.set_result(answer)

    def clear(self) -> None:
        """Forget every world (a worker restarted or the ring changed)."""
        self._tables.clear()
