"""The fleet server's JSON wire protocol.

One request or response per line, encoded as a canonical JSON object
(sorted keys, no whitespace) terminated by ``\\n``.  Requests are plain
dictionaries — no typed envelope classes — because the same payload has to
cross three very different boundaries unchanged: a TCP socket (the asyncio
front end), a ``multiprocessing`` pipe (the shard workers), and a plain
function call (the serial replay used by the determinism battery).

A request looks like::

    {"id": 7, "op": "query_stats", "world": "w3", "params": {}}

and its response like::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": "unknown world 'w3'"}

``op`` names the operation; ``world`` addresses one hosted world (the
consistent-hash routing key) and is required for every op in
:data:`WORLD_OPS`.  The front-end ops in :data:`FRONTEND_OPS` (``ping``,
``list_worlds``, ``metrics``, ``resize``, ``shutdown``) carry no world and never
reach a shard.

Requests are validated *before* routing so a malformed message is answered
with a friendly error instead of crashing a worker.

Since protocol version 2 the stream is no longer purely request/response:
a connection that has issued :data:`SUBSCRIBE` also receives
**server-initiated push frames** — envelopes carrying a ``push`` key and
no ``id``::

    {"push": "frame", "world": "w3", "seq": 12, "kind": "diff", "data": {...}}

Clients that never subscribe can ignore them (the read loop in
:class:`~repro.service.client.ServiceClient` applies frames only to the
worlds it subscribed and matches every other envelope to a pending
request by ``id``).  Requests may carry an optional ``protocol_version``
field; the server answers versions it does not speak with a structured
:data:`UNSUPPORTED_VERSION` error instead of misinterpreting the envelope.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.io.results import canonical_json

# ---------------------------------------------------------------------- #
# Operations
# ---------------------------------------------------------------------- #
#: Create a world from a scenario spec (params: scenario, seed, nodes,
#: mover_fraction).
CREATE_WORLD = "create_world"
#: Advance the world's mobility model (params: steps) — a write.
ADVANCE = "advance"
#: Apply an explicit churn/mobility delta (params: moves/joins/crashes/
#: recovers) — a write.
APPLY = "apply"
#: Topology statistics over the current controlled topology — a read.
QUERY_STATS = "query_stats"
#: Canonical shortest route between two nodes — a read.
QUERY_ROUTE = "query_route"
#: Run a packet-level traffic burst over the current topology — a read
#: (deterministic in the request's seed; finite batteries make it a write).
RUN_TRAFFIC = "run_traffic"
#: The canonical byte-comparable serialization of the world — a read.
SNAPSHOT = "snapshot"
#: Per-world serving counters: writes and topology work (never cached itself).
CACHE_STATS = "cache_stats"
#: Drop a world from its shard — a write.
DELETE_WORLD = "delete_world"
#: One shard's metrics-registry snapshot (an internal op: the front end
#: fans it to every shard when serving :data:`METRICS`; the ``world`` field
#: only satisfies the envelope and plays no routing role).
SHARD_METRICS = "shard_metrics"
#: Drain one world off its shard for migration: the shard serializes the
#: world, removes it from its host and store, and returns the pickled
#: state (an internal op — never accepted from a TCP connection).
MIGRATE_OUT = "migrate_out"
#: Adopt a previously drained world on its new owning shard (internal).
MIGRATE_IN = "migrate_in"
#: Register the issuing connection for diff pushes from one world (params:
#: since — optional resume cursor).  The front end intercepts this op: it
#: turns on shard-side diff tracking via :data:`SUB_TRACK`, registers the
#: connection in its subscription registry, and answers with the base state
#: (a full snapshot, or the ring diffs after ``since``).
SUBSCRIBE = "subscribe"
#: Remove the issuing connection's subscription for one world (front-end
#: only: shard-side tracking stays on for the world's remaining lifetime).
UNSUBSCRIBE = "unsubscribe"
#: Turn on diff tracking for a world and return its base state (internal:
#: what the front end sends a shard on behalf of :data:`SUBSCRIBE`; also
#: the form logged in the WAL, because tracking changes the world's
#: synchronize schedule and must replay at the same log position).
SUB_TRACK = "sub_track"
#: Drain push frames for tracked worlds past per-world cursors (internal;
#: addressed to a shard with a synthetic ``world`` like shard_metrics).
SUBS_COLLECT = "subs_collect"

#: Front-end liveness probe.
PING = "ping"
#: Worlds the front end has seen created, with their shard assignment.
LIST_WORLDS = "list_worlds"
#: Merged fleet metrics: per-shard registry snapshots plus the front end's
#: own, with canonical histogram percentiles.
METRICS = "metrics"
#: Orderly server shutdown (responds, then stops accepting).
SHUTDOWN = "shutdown"
#: Live ring resize (params: shards) — migrates moved worlds between
#: shards without downtime, parking their requests meanwhile.
RESIZE = "resize"

#: Ops executed by the shard that owns ``request["world"]``.
WORLD_OPS = frozenset(
    {
        CREATE_WORLD,
        ADVANCE,
        APPLY,
        QUERY_STATS,
        QUERY_ROUTE,
        RUN_TRAFFIC,
        SNAPSHOT,
        CACHE_STATS,
        DELETE_WORLD,
        SHARD_METRICS,
        MIGRATE_OUT,
        MIGRATE_IN,
        SUBSCRIBE,
        UNSUBSCRIBE,
        SUB_TRACK,
        SUBS_COLLECT,
    }
)

#: Ops answered by the asyncio front end without touching any shard.
FRONTEND_OPS = frozenset({PING, LIST_WORLDS, METRICS, SHUTDOWN, RESIZE})

#: World ops that only read state (their responses are read-cacheable).
READ_OPS = frozenset({QUERY_STATS, QUERY_ROUTE, RUN_TRAFFIC, SNAPSHOT})

#: Ops the front end issues to its own shards but refuses from the wire:
#: migration carries pickled state, which must never be accepted from a
#: client connection, and the subscription plumbing ops bypass the
#: front end's registry bookkeeping (clients speak SUBSCRIBE/UNSUBSCRIBE).
INTERNAL_OPS = frozenset({MIGRATE_OUT, MIGRATE_IN, SUB_TRACK, SUBS_COLLECT})

#: Ops whose application can change a tracked world's snapshot (or end its
#: life) and therefore oblige the front end to collect push frames after
#: the batch that carried them.
PUSH_TRIGGER_OPS = frozenset({ADVANCE, APPLY, DELETE_WORLD, MIGRATE_IN})


# ---------------------------------------------------------------------- #
# Protocol versioning
# ---------------------------------------------------------------------- #
#: The version this build speaks.  Version 1 was the pure request/response
#: protocol (PR 5–9); version 2 added subscriptions and server-initiated
#: push frames.  The envelope field is optional — an absent
#: ``protocol_version`` means "whatever the server speaks", preserving
#: every pre-versioning client.
PROTOCOL_VERSION = 2

#: Versions this build is willing to serve.  Version 1 clients never send
#: ``subscribe`` so the push extension is invisible to them.
SUPPORTED_PROTOCOL_VERSIONS = frozenset({1, 2})

#: Per-line buffer limit both sides pass to asyncio's stream factories.
#: A full snapshot of a large world (a subscribe response, a resync frame)
#: easily exceeds asyncio's 64 KiB default ``readline`` limit, which
#: surfaces as a spurious ``LimitOverrunError`` mid-protocol.
STREAM_LIMIT = 16 * 1024 * 1024


# ---------------------------------------------------------------------- #
# Push frames (server-initiated, protocol version 2)
# ---------------------------------------------------------------------- #
#: ``kind`` of a frame carrying a structural diff against the previous
#: sequence point (``data`` is :func:`repro.service.subs.diff.compute_diff`
#: output; ``seq`` the sequence point it produces).
FRAME_DIFF = "diff"
#: ``kind`` of a frame carrying a full snapshot (subscription base state,
#: or a resync after the client's cursor aged out of the diff ring; also
#: what coalescing degrades to when merged diffs would be larger).
FRAME_SNAPSHOT = "snapshot"
#: ``kind`` of the terminal frame pushed when a subscribed world is
#: deleted.  No frames for the world follow it.
FRAME_DELETED = "deleted"


def push_frame(
    world: str,
    seq: int,
    kind: str,
    data: Any = None,
    *,
    base: Optional[int] = None,
) -> Dict[str, Any]:
    """A server-initiated push frame (no ``id`` — never answers a request).

    ``base`` rides :data:`FRAME_DIFF` frames: the sequence point the diff
    applies on top of (``seq - 1`` for a raw commit; further back for a
    coalesced frame covering several commits).  Subscribers use it to
    detect gaps instead of corrupting their mirror.
    """
    frame: Dict[str, Any] = {"push": "frame", "world": world, "seq": seq, "kind": kind}
    if base is not None:
        frame["base"] = base
    if data is not None:
        frame["data"] = data
    return frame


def is_push_frame(message: Dict[str, Any]) -> bool:
    """Whether a decoded envelope is a server-initiated push frame."""
    return message.get("push") == "frame" and "id" not in message


# ---------------------------------------------------------------------- #
# Structured error codes
# ---------------------------------------------------------------------- #
#: The shard queue (or connection) is saturated; the response carries a
#: ``retry_after`` backoff hint in seconds.  Safe to retry.
RETRY_LATER = "RETRY_LATER"
#: The server is draining: queued requests are failed instead of silently
#: dropped.  Safe to retry against a restarted server.
SHUTTING_DOWN = "SHUTTING_DOWN"
#: A shard worker died mid-batch and the request's effect is unknown; the
#: retry layer may re-issue it under the same idempotency token.
WORKER_DIED = "WORKER_DIED"
#: The request's ``protocol_version`` is not one this server speaks.  Not
#: retryable against the same server; the error message names the
#: supported versions.
UNSUPPORTED_VERSION = "UNSUPPORTED_VERSION"
#: Terminal code riding the error a subscriber sees when it touches a
#: world that has been deleted out from under it.
WORLD_DELETED = "WORLD_DELETED"


# ---------------------------------------------------------------------- #
# Encoding
# ---------------------------------------------------------------------- #
def encode_message(message: Dict[str, Any]) -> bytes:
    """Canonical single-line JSON encoding (sorted keys, compact, ``\\n``)."""
    return encode_result(message) + b"\n"


def encode_result(result: Any) -> bytes:
    """The canonical bytes ``result`` takes inside an encoded response."""
    return json.dumps(result, sort_keys=True, separators=(",", ":")).encode("utf-8")


def ok_line(request_id: Any, result: bytes) -> bytes:
    """``encode_message(ok_response(request_id, r))`` for ``result`` =
    ``encode_result(r)``, spliced without re-encoding ``r``.

    Sorted keys put ``id`` < ``ok`` < ``result``, and nested values encode
    the same inside the envelope as alone, so the splice is byte-identical.
    """
    return b'{"id":' + encode_result(request_id) + b',"ok":true,"result":' + result + b"}\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; raises ``ValueError`` on malformed input."""
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("protocol messages must be JSON objects")
    return payload


def read_key(op: str, params: Dict[str, Any]) -> str:
    """Cache key of a read: the op plus the canonical serialization of params.

    The front end's read cache keys by this, so a hit is exactly a repeat
    of a read the shard already answered over the same world state.
    """
    return f"{op}:{canonical_json(params)}"


def ok_response(request_id: Any, result: Any) -> Dict[str, Any]:
    """A success response carrying ``result``."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any,
    message: str,
    *,
    code: Optional[str] = None,
    retry_after: Optional[float] = None,
) -> Dict[str, Any]:
    """A failure response carrying a human-readable error.

    ``code`` is a machine-readable classifier (:data:`RETRY_LATER`,
    :data:`SHUTTING_DOWN`, :data:`WORKER_DIED`); ``retry_after`` is the
    backoff hint in seconds that rides :data:`RETRY_LATER` responses.
    """
    response: Dict[str, Any] = {"id": request_id, "ok": False, "error": message}
    if code is not None:
        response["code"] = code
    if retry_after is not None:
        response["retry_after"] = retry_after
    return response


def envelope_problem(
    request: Dict[str, Any],
) -> Optional[Tuple[str, Optional[str]]]:
    """Why ``request`` is malformed as ``(message, code)``, or ``None``.

    Validation stops at the envelope (op known, world present where
    required, params a dict, protocol version speakable) — per-op parameter
    checking happens in the world host, where a bad parameter still yields
    an error *response* rather than an exception.  ``code`` is the
    structured error code to attach (currently only
    :data:`UNSUPPORTED_VERSION`); ``None`` for plain malformed envelopes.
    """
    version = request.get("protocol_version")
    if version is not None:
        if not isinstance(version, int) or isinstance(version, bool):
            return ("'protocol_version' must be an integer", UNSUPPORTED_VERSION)
        if version not in SUPPORTED_PROTOCOL_VERSIONS:
            supported = ", ".join(str(v) for v in sorted(SUPPORTED_PROTOCOL_VERSIONS))
            return (
                f"protocol version {version} is not supported"
                f" (this server speaks: {supported})",
                UNSUPPORTED_VERSION,
            )
    op = request.get("op")
    if not isinstance(op, str):
        return ("request is missing its 'op'", None)
    if op not in WORLD_OPS and op not in FRONTEND_OPS:
        return (f"unknown op {op!r}", None)
    if op in WORLD_OPS:
        world = request.get("world")
        if not isinstance(world, str) or not world:
            return (f"op {op!r} requires a non-empty 'world'", None)
    params = request.get("params", {})
    if not isinstance(params, dict):
        return ("'params' must be an object", None)
    token = request.get("token")
    if token is not None and (not isinstance(token, str) or not token):
        return ("'token' must be a non-empty string", None)
    return None
