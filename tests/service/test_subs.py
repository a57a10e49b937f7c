"""The subscription & diff-push battery.

The subsystem's contract, enforced at three layers:

* **diff engine unit tests** — ``apply_diff(old, compute_diff(old, new))``
  reconstructs ``new`` byte-identically, including field removals, and
  ``merge_diffs`` composes exactly like sequential application (the
  coalescing path must never invent a third behaviour);
* **live-server hypothesis battery** — random schedules interleaving
  writes, subscribes, disconnect/resume cycles and live resizes against a
  real TCP front end, requiring the diff-reconstructed mirror to be
  byte-identical to a fresh ``snapshot`` fetch at *every* sequence point;
* **lifecycle edges** — ghost-world subscribes, delete-while-subscribed
  (the terminal ``deleted`` frame), double-subscribe idempotency, and
  resume-after-restart from the durable store.

Satellite regressions ride along: the ``protocol_version`` envelope field
round trip and the zero-request ``metrics`` path.
"""

import asyncio
import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io.results import canonical_json, results_to_json
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.replay import ShardedReplayer, replay_serial
from repro.service.server import FleetServer
from repro.service.subs.diff import apply_diff, compute_diff, merge_diffs
from repro.service.subs.mirror import SequenceGap, WorldMirror
from repro.sim.randomness import SeededRandom
from tests.service.test_determinism import build_trace


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(body, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("inline", True)
    server = FleetServer(port=0, **kwargs)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


# --------------------------------------------------------------------- #
# Diff engine
# --------------------------------------------------------------------- #
def _snapshot(rng: SeededRandom, nodes: int = 6) -> dict:
    """A small canonical-form snapshot with randomised content."""
    ids = sorted(rng.sample(range(nodes * 3), nodes))
    return {
        "world": "w",
        "scenario": "random-waypoint-drift",
        "seed": 7,
        "nodes": [
            {
                "id": node,
                "alive": rng.randrange(4) != 0,
                "x": float(rng.randrange(1500)),
                "y": float(rng.randrange(1500)),
            }
            for node in ids
        ],
        "topology": {
            "nodes": [
                {"id": node, "pos": [float(rng.randrange(1500)), float(rng.randrange(1500))]}
                for node in ids
            ],
            "edges": [
                {"u": u, "v": v, "length": float(rng.randrange(500))}
                for u, v in zip(ids, ids[1:])
                if rng.randrange(3) != 0
            ],
        },
    }


class TestDiffEngine:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_apply_reconstructs_byte_identically(self, seed):
        rng = SeededRandom(seed)
        old = _snapshot(rng.child("old"))
        new = _snapshot(rng.child("new"))
        diff = compute_diff(old, new)
        assert canonical_json(apply_diff(old, diff)) == canonical_json(new)
        # Diffing a snapshot against itself is a no-op payload.
        assert compute_diff(new, new) == {}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_merge_composes_like_sequential_application(self, seed):
        rng = SeededRandom(seed)
        a = _snapshot(rng.child("a"))
        b = _snapshot(rng.child("b"))
        c = _snapshot(rng.child("c"))
        first = compute_diff(a, b)
        second = compute_diff(b, c)
        merged = merge_diffs(first, second)
        assert canonical_json(apply_diff(a, merged)) == canonical_json(c)

    def test_field_removal_is_not_a_null_write(self):
        # Canonical JSON distinguishes an absent key from an explicit null,
        # so the diff must carry removals, not null assignments.
        topology = {"nodes": [], "edges": []}
        old = {"world": "w", "seed": 1, "extra": {"x": 1}, "nodes": [], "topology": topology}
        new = {"world": "w", "seed": 1, "nodes": [], "topology": topology}
        diff = compute_diff(old, new)
        rebuilt = apply_diff(old, diff)
        assert "extra" not in rebuilt
        assert canonical_json(rebuilt) == canonical_json(new)

    def test_apply_does_not_mutate_its_input(self):
        rng = SeededRandom(5)
        old = _snapshot(rng.child("old"))
        new = _snapshot(rng.child("new"))
        frozen = copy.deepcopy(old)
        apply_diff(old, compute_diff(old, new))
        assert old == frozen


class TestWorldMirror:
    def test_duplicate_and_stale_frames_are_ignored(self):
        mirror = WorldMirror("w")
        mirror.seed(3, {"world": "w", "nodes": []})
        frame = protocol.push_frame("w", 3, protocol.FRAME_DIFF, {}, base=2)
        assert mirror.apply(frame) is False
        assert mirror.seq == 3

    def test_gap_raises_sequence_gap(self):
        mirror = WorldMirror("w")
        mirror.seed(3, {"world": "w", "nodes": []})
        frame = protocol.push_frame("w", 7, protocol.FRAME_DIFF, {}, base=6)
        with pytest.raises(SequenceGap):
            mirror.apply(frame)

    def test_terminal_frame_marks_deleted(self):
        mirror = WorldMirror("w")
        mirror.seed(1, {"world": "w", "nodes": []})
        assert mirror.apply(protocol.push_frame("w", 2, protocol.FRAME_DELETED)) is True
        assert mirror.deleted is True
        # Nothing applies after the terminal frame.
        late = protocol.push_frame("w", 3, protocol.FRAME_SNAPSHOT, {"world": "w"})
        assert mirror.apply(late) is False


# --------------------------------------------------------------------- #
# Live-server hypothesis battery
# --------------------------------------------------------------------- #
WORLDS = ("alpha", "beta")


def _schedule(rng: SeededRandom, length: int):
    """A random action schedule: writes, subscribes, drops, resizes."""
    actions = []
    for _ in range(length):
        kind = rng.randrange(10)
        world = rng.choice(WORLDS)
        if kind < 5:
            actions.append(("advance", world))
        elif kind < 7:
            actions.append(("apply", world, rng.randrange(20)))
        elif kind == 7:
            actions.append(("reconnect",))
        elif kind == 8:
            actions.append(("resubscribe", world))
        else:
            actions.append(("resize", rng.choice((1, 2, 3))))
    return actions


async def _verify_mirrors(client, watcher):
    """Every watched mirror is byte-identical to a fresh snapshot fetch.

    The server is quiescent between actions (each write is awaited), so a
    fresh ``snapshot`` fetch observes exactly the state the last pushed
    frame described once the watcher has drained up to the shard cursor.
    """
    for world in WORLDS:
        fresh = await client.call(protocol.SNAPSHOT, world=world)
        target = results_to_json(fresh)
        for _ in range(50):
            mirror = watcher.mirrors[world]
            if mirror.snapshot is not None and results_to_json(mirror.snapshot) == target:
                break
            if watcher.stale:
                await watcher.heal()
            try:
                await watcher.wait_for(world, timeout=0.2)
            except ServiceError:
                continue
        mirror = watcher.mirrors[world]
        assert results_to_json(mirror.snapshot) == target, (
            f"mirror for {world!r} diverged at seq {mirror.seq}"
        )


class TestLiveBattery:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schedule_seed=st.integers(min_value=0, max_value=2**20),
        length=st.integers(min_value=1, max_value=10),
    )
    def test_mirror_is_byte_identical_at_every_sequence_point(
        self, schedule_seed, length
    ):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            watcher = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                for world in WORLDS:
                    await client.call(
                        protocol.CREATE_WORLD,
                        world=world,
                        params={"nodes": 20, "seed": 3, "mover_fraction": 0.3},
                    )
                    await watcher.subscribe(world)
                rng = SeededRandom(schedule_seed)
                for action in _schedule(rng, length):
                    if action[0] == "advance":
                        await client.call(
                            protocol.ADVANCE, world=action[1], params={"steps": 1}
                        )
                    elif action[0] == "apply":
                        await client.call(
                            protocol.APPLY,
                            world=action[1],
                            params={"crashes": [action[2]]},
                        )
                    elif action[0] == "reconnect":
                        await watcher.resume()
                    elif action[0] == "resubscribe":
                        await watcher.subscribe(action[1])
                    elif action[0] == "resize":
                        await client.call(
                            protocol.RESIZE, params={"shards": action[1]}
                        )
                    # Byte-identity is checked after *every* action, so a
                    # divergence is pinned to the schedule step that caused it.
                    await _verify_mirrors(client, watcher)
            finally:
                await watcher.close()
                await client.close()

        run(_with_server(body))


class TestReplayerMirrors:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**20),
        shards=st.integers(min_value=1, max_value=3),
        resize_to=st.integers(min_value=1, max_value=4),
    )
    def test_engine_mirrors_survive_resize(self, trace_seed, shards, resize_to):
        trace = build_trace(trace_seed, 4)
        replayer = ShardedReplayer(shards=shards)
        creates = [r for r in trace if r["op"] == protocol.CREATE_WORLD]
        rest = [r for r in trace if r["op"] != protocol.CREATE_WORLD]
        replayer.execute(creates)
        for request in creates:
            replayer.attach_mirror(request["world"])
        half = len(rest) // 2
        replayer.execute(rest[:half])
        replayer.resize(resize_to)
        replayer.execute(rest[half:])
        replayer.collect_all_frames()
        assert replayer.mirror_snapshots() == replayer.snapshots()

    def test_trace_level_subscribes_replay_byte_identically(self):
        """Subscribe ops in a trace keep serial and sharded replays aligned."""
        trace = build_trace(17, 4)
        with_subs = []
        for request in trace:
            with_subs.append(request)
            if request["op"] == protocol.CREATE_WORLD:
                with_subs.append(
                    {"op": protocol.SUBSCRIBE, "world": request["world"], "params": {}}
                )
        replayer = ShardedReplayer(shards=3)
        replayer.execute(with_subs)
        assert replay_serial(with_subs) == replayer.snapshots()


# --------------------------------------------------------------------- #
# Lifecycle edges
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_subscribe_to_nonexistent_world_is_an_error(self):
        async def body(server):
            watcher = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                with pytest.raises(ServiceError, match="unknown world"):
                    await watcher.subscribe("ghost")
                # The connection survives, and no phantom mirror lingers
                # in a subscribable state.
                result = await watcher.call(protocol.PING)
                assert result["pong"] is True
                assert watcher.mirrors["ghost"].seq is None
            finally:
                await watcher.close()

        run(_with_server(body))

    def test_delete_while_subscribed_pushes_terminal_frame(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            watcher = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                await client.call(
                    protocol.CREATE_WORLD, world="doomed", params={"nodes": 10}
                )
                await watcher.subscribe("doomed")
                await client.call(protocol.ADVANCE, world="doomed", params={"steps": 1})
                await watcher.wait_for("doomed", seq=1)
                await client.call(protocol.DELETE_WORLD, world="doomed")
                await watcher.wait_for("doomed", deleted=True)
                assert watcher.mirrors["doomed"].deleted is True
            finally:
                await watcher.close()
                await client.close()

        run(_with_server(body))

    def test_double_subscribe_is_idempotent(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            watcher = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                await client.call(protocol.CREATE_WORLD, world="twice", params={"nodes": 10})
                first = await watcher.subscribe("twice")
                await client.call(protocol.ADVANCE, world="twice", params={"steps": 1})
                await watcher.wait_for("twice", seq=1)
                # A second subscribe on the same connection resumes from the
                # mirror's cursor: no resync, no duplicate frames, no gap.
                second = await watcher.subscribe("twice")
                assert second["seq"] == 1
                assert second.get("frames", []) == []
                assert watcher.mirrors["twice"].resyncs == 0
                assert watcher.gaps == 0
                await client.call(protocol.ADVANCE, world="twice", params={"steps": 1})
                await watcher.wait_for("twice", seq=2)
                # Exactly one stream: seq 1 and seq 2, no duplicates applied.
                assert watcher.mirrors["twice"].frames_applied == 2
                assert first["seq"] == 0
            finally:
                await watcher.close()
                await client.close()

        run(_with_server(body))

    def test_unsubscribe_stops_delivery(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            watcher = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                await client.call(protocol.CREATE_WORLD, world="quiet", params={"nodes": 10})
                await watcher.subscribe("quiet")
                assert await watcher.unsubscribe("quiet") is True
                await client.call(protocol.ADVANCE, world="quiet", params={"steps": 1})
                # Give any stray push a beat to arrive, then check silence.
                await asyncio.sleep(0.1)
                assert watcher.frames_received == 0
                assert "quiet" not in watcher.mirrors
            finally:
                await watcher.close()
                await client.close()

        run(_with_server(body))

    def test_resume_after_server_restart_from_durable_store(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def first_life(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            watcher = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                await client.call(
                    protocol.CREATE_WORLD,
                    world="durable",
                    params={"nodes": 15, "seed": 2, "mover_fraction": 0.3},
                )
                await watcher.subscribe("durable")
                await client.call(protocol.ADVANCE, world="durable", params={"steps": 1})
                await watcher.wait_for("durable", seq=1)
                mirror = watcher.mirrors["durable"]
                return mirror.seq, results_to_json(mirror.snapshot)
            finally:
                await watcher.close()
                await client.close()

        async def second_life(server, seq, snapshot_json):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            watcher = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                # Hand-seed the mirror with the pre-restart cursor, as a
                # client that survived the outage would hold it.
                mirror = watcher.mirrors["durable"] = WorldMirror("durable")
                import json

                mirror.seed(seq, json.loads(snapshot_json))
                # One write lands while the old subscriber is away.
                await client.call(protocol.ADVANCE, world="durable", params={"steps": 1})
                result = await watcher.subscribe("durable")
                assert result["seq"] == seq + 1
                # The WAL-replayed ring served the missed diff: no resync.
                assert watcher.mirrors["durable"].resyncs == 0
                fresh = await client.call(protocol.SNAPSHOT, world="durable")
                assert results_to_json(watcher.mirrors["durable"].snapshot) == (
                    results_to_json(fresh)
                )
            finally:
                await watcher.close()
                await client.close()

        seq, snapshot_json = run(_with_server(first_life, state_dir=state_dir))
        run(_with_server(lambda s: second_life(s, seq, snapshot_json), state_dir=state_dir))


# --------------------------------------------------------------------- #
# Satellite regressions
# --------------------------------------------------------------------- #
class TestProtocolVersion:
    def test_envelope_problem_round_trip(self):
        ok = {"id": 1, "op": protocol.PING, "protocol_version": protocol.PROTOCOL_VERSION}
        assert protocol.envelope_problem(ok) is None
        legacy = {"id": 1, "op": protocol.PING, "protocol_version": 1}
        assert protocol.envelope_problem(legacy) is None
        absent = {"id": 1, "op": protocol.PING}
        assert protocol.envelope_problem(absent) is None
        message, code = protocol.envelope_problem(
            {"id": 1, "op": protocol.PING, "protocol_version": 99}
        )
        assert code == protocol.UNSUPPORTED_VERSION
        assert "99" in message
        message, code = protocol.envelope_problem(
            {"id": 1, "op": protocol.PING, "protocol_version": "two"}
        )
        assert code == protocol.UNSUPPORTED_VERSION

    def test_unsupported_version_on_the_wire(self):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                request = {"id": 1, "op": protocol.PING, "protocol_version": 99}
                writer.write(protocol.encode_message(request))
                await writer.drain()
                response = protocol.decode_message(await reader.readline())
                assert response["ok"] is False
                assert response["code"] == protocol.UNSUPPORTED_VERSION
                # The connection survives; a speakable version still works.
                request = {
                    "id": 2,
                    "op": protocol.PING,
                    "protocol_version": protocol.PROTOCOL_VERSION,
                }
                writer.write(protocol.encode_message(request))
                await writer.drain()
                response = protocol.decode_message(await reader.readline())
                assert response["ok"] is True
                assert response["result"]["pong"] is True
            finally:
                writer.close()
                await writer.wait_closed()

        run(_with_server(body))


class TestEmptyRegistries:
    def test_metrics_op_on_zero_request_server(self):
        """A fresh server answers ``metrics`` with zeros, not a crash."""

        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                payload = await client.call(protocol.METRICS)
            finally:
                await client.close()
            merged = payload["merged"]
            assert merged["counters"].get("host.requests", 0) == 0
            assert merged["counters"].get("world.writes", 0) == 0
            assert merged["gauges"]["subs.active"] == 0
            # Zero-count histograms must render as empty summaries, not
            # percentile-of-nothing errors.
            for summary in merged["histograms"].values():
                if summary["count"] == 0:
                    assert summary["p99"] is None
            return payload

        payload = run(_with_server(body))
        # The CLI renderer accepts the empty payload end to end.
        from repro.cli import _render_metrics

        text = _render_metrics(payload)
        assert "subs.active" in text

    def test_metrics_subs_gauges_track_population(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            watcher = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                await client.call(protocol.CREATE_WORLD, world="g", params={"nodes": 10})
                await watcher.subscribe("g")
                payload = await client.call(protocol.METRICS)
                assert payload["merged"]["gauges"]["subs.active"] == 1
                assert payload["merged"]["counters"]["subs.tracked"] == 1
                await watcher.unsubscribe("g")
                payload = await client.call(protocol.METRICS)
                assert payload["merged"]["gauges"]["subs.active"] == 0
            finally:
                await watcher.close()
                await client.close()

        run(_with_server(body))


class TestDisconnect:
    def test_request_after_hangup_fails_at_once(self):
        """Once the read loop has ended, a request raises ``ConnectionError``
        at once instead of waiting out its timeout (forever with none)."""

        async def answer_one_line_then_hang_up(reader, writer):
            request = protocol.decode_message(await reader.readline())
            writer.write(protocol.encode_message(protocol.ok_response(request["id"], {})))
            await writer.drain()
            writer.close()

        async def body():
            server = await asyncio.start_server(answer_one_line_then_hang_up, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect("127.0.0.1", port, timeout=None)
            try:
                assert (await client.request(protocol.PING))["ok"]
                for _ in range(500):
                    if not client.connected:
                        break
                    await asyncio.sleep(0.01)
                assert not client.connected
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.request(protocol.PING), 5.0)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body())
