"""The transport-free fleet core: placement, migration and frame collection.

The server front end and :class:`~repro.service.replay.ShardedReplayer`
both decide here *what* goes to which shard; this module knows nothing
about queues, pipes or hosts.  A migration is an *exchange*: a generator
yielding ``(shard, request)`` steps and receiving each step's response.
:func:`run` drives one with a blocking ``execute(shard, request)``; the
server awaits the same steps through its shard queues.  The exchange holds
the one failure policy, so resize, startup heal and the replayer agree:

* ``migrate_out`` refused — the world is absent (deleted while queued
  ahead of the drain); nothing moves.
* ``migrate_in`` refused — the world is put back on its source shard.
* the put-back refused — :class:`MigrationLost`: the drained state is the
  only copy, and it must never be dropped silently.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterable, List, Tuple

from repro.service import protocol
from repro.service.sharding import HashRing

#: Yields ``(shard, request)`` steps, receives responses, returns a result.
Exchange = Generator[Tuple[int, Dict[str, Any]], Dict[str, Any], Any]


class MigrationLost(RuntimeError):
    """A drained world could land neither on its target nor back home."""


def misplaced(placement: Iterable[Tuple[str, int]], ring: HashRing) -> List[Tuple[str, int]]:
    """The sorted ``(world, shard)`` pairs not on their ``ring`` shard."""
    return sorted((world, shard) for world, shard in placement if shard != ring.shard_of(world))


def _migrate_in(world: str, state: str) -> Dict[str, Any]:
    return {"id": None, "op": protocol.MIGRATE_IN, "world": world, "params": {"state": state}}


def migrate(world: str, source: int, target: int) -> Exchange:
    """Move ``world`` from ``source`` to ``target``; True when it landed.

    ``migrate_out`` rides the source shard's request path behind the
    world's queued work (the drain), and purges its durable log in the same
    commit; ``migrate_in`` logs the adopted state on the target.
    """
    out = yield source, {"id": None, "op": protocol.MIGRATE_OUT, "world": world}
    if not out.get("ok"):
        return False
    state = out["result"]["state"]
    landed = yield target, _migrate_in(world, state)
    if landed.get("ok"):
        return True
    restored = yield source, _migrate_in(world, state)
    if not restored.get("ok"):
        raise MigrationLost(
            f"{world!r} could not land on shard {target} ({landed.get('error')}) "
            f"nor return to shard {source} ({restored.get('error')})"
        )
    return False


def run(exchange: Exchange, execute: Callable[[int, Dict[str, Any]], Dict[str, Any]]) -> Any:
    """Drive ``exchange`` to completion with a blocking ``execute``."""
    response = None
    try:
        while True:
            response = execute(*exchange.send(response))
    except StopIteration as done:
        return done.value


def committed(
    requests: List[Dict[str, Any]],
    responses: List[Dict[str, Any]],
    watched: Callable[[str], bool],
) -> List[str]:
    """Sorted watched worlds a batch's landed push-trigger ops wrote to."""
    worlds = set()
    for request, response in zip(requests, responses):
        world = request.get("world")
        if (
            request.get("op") in protocol.PUSH_TRIGGER_OPS
            and response.get("ok")
            and isinstance(world, str)
            and watched(world)
        ):
            worlds.add(world)
    return sorted(worlds)


def collect(shard: int, cursors: Dict[str, int]) -> Dict[str, Any]:
    """The ``subs_collect`` request for frames past each world's cursor."""
    params = {"cursors": cursors}
    return {"id": None, "op": protocol.SUBS_COLLECT, "world": f"@shard:{shard}", "params": params}


def collect_all(ring: HashRing, cursors: Dict[str, int]) -> List[Tuple[int, Dict[str, Any]]]:
    """One ``(shard, collect)`` per shard owning a world of ``cursors``, by shard."""
    by_shard: Dict[int, Dict[str, int]] = {}
    for world, cursor in sorted(cursors.items()):
        by_shard.setdefault(ring.shard_of(world), {})[world] = cursor
    return [(shard, collect(shard, by_shard[shard])) for shard in sorted(by_shard)]
