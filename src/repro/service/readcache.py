"""The front end's read cache: encoded read results, replayed in routing order.

A shard is still the only place a result is computed.  The cache only keeps
the canonical JSON bytes of each successful read the shard answered, and
replays them for a repeat of that read (same world, same
:func:`~repro.service.protocol.read_key`) for as long as no write to the
world has been *routed* since the read that filled the entry.

**Why a hit is safe.**  Per-world request order is routing order (one FIFO
queue per shard, one batch in flight).  A hit means every request routed
for the world since the fill was a read, so the shard's world is in the
state that produced the bytes: clean and already synchronized.  The
skipped read would have been a snapshot-cache hit there (at worst, after a
cache eviction, a recompute over the same clean state) with no
``synchronize``, no WAL record and the same bytes.  Skipping it therefore
changes neither the served bytes, nor the shard's synchronize schedule,
nor the write-ahead log.

**Write versions.**  Each world's entries live in one table, and the table
object *is* the world's write version: a routed write drops it, so the
next read starts a new one.  A read captures the table when it is routed,
and its response fills the cache only if that table is still the world's
current one — a write routed while the read was in flight leaves the read
uncached.  :meth:`ReadCache.clear` (a worker restart, a resize) drops every
table at once, which is the global generation bump.

**Encode once.**  A miss's result is encoded when its response lands; the
same bytes fill the cache and are spliced into the miss's own response
line (:func:`~repro.service.protocol.ok_line`), so no result is encoded
twice and a hit encodes nothing but its request id.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Dict, Optional

from repro.service import protocol


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

    def lookup(self, world: str, key: str) -> Optional[bytes]:
        """The encoded result of a repeat read, or ``None`` (a miss)."""
        table = self._tables.get(world)
        result = table.get(key) if table is not None else None
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def watch(self, world: str, key: str, request_id: Any, routed: asyncio.Future) -> asyncio.Future:
        """The future a routed read's responder awaits.

        When the shard's response lands, a success is encoded once: the
        bytes fill ``key`` (unless a write to ``world`` was routed first)
        and are spliced into the finished response line the returned
        future resolves to.  An error response passes through unchanged.
        """
        if self.capacity == 0:
            return routed
        table = self._tables.get(world)
        if table is None:
            table = self._tables[world] = {}
        answered = routed.get_loop().create_future()
        routed.add_done_callback(
            functools.partial(self._land, world, table, key, request_id, answered)
        )
        return answered

    def _land(
        self,
        world: str,
        table: Dict[str, bytes],
        key: str,
        request_id: Any,
        answered: asyncio.Future,
        routed: asyncio.Future,
    ) -> None:
        current = self._tables.get(world) is table
        if routed.cancelled():
            answered.cancel()
            return
        response = routed.result()
        if response.get("ok"):
            result = protocol.encode_result(response["result"])
            if current:
                if len(table) >= self.capacity:
                    table.pop(next(iter(table)))
                table[key] = result
            answer: Any = protocol.ok_line(request_id, result)
        else:
            # An error (unknown world, bad params) is never cached; an empty
            # table it opened goes too, so reads of worlds that do not
            # exist leave nothing behind.
            if current and not table:
                del self._tables[world]
            answer = response
        if not answered.done():  # its responder may have been cancelled
            answered.set_result(answer)

    def invalidate(self, world: str) -> None:
        """A write to ``world`` was routed: its cached results are stale."""
        self._tables.pop(world, None)

    def clear(self) -> None:
        """Forget every world (a worker restarted or the ring changed)."""
        self._tables.clear()
